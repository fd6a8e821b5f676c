"""Break-even pellet price: the selling price at which plant NPV is zero.

Cash flows are constant across the horizon (no ramp-up): revenue minus OPEX
minus tax, with straight-line depreciation of the fixed capital less salvage.
Tax on loss years goes negative (a symmetric tax shield), which keeps NPV
affine in price, so the break-even price is one closed-form inversion and NPV
is the annuity factor times one year's cash flow plus the discounted salvage:
a solve costs the same at any horizon length.  The year-by-year NPV and a
bisection on it are kept in the test suite as the reference.  No input is
checked here: a checked ``Dataset`` and ``ModelConfig`` hold each in its bound.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .energy import per_tj


class _BreakEvenInputs(NamedTuple):
    capex: float          # $
    opex: float           # $/y
    q: float              # pellet output, t/y
    n: int                # horizon, years
    r: float              # discount rate, fraction/y
    tr: float             # tax rate, fraction
    salvage_rate: float   # fraction of tfc recovered at end of horizon
    tfc: float            # depreciable fixed capital, $


def salvage_value(inputs: _BreakEvenInputs) -> float:
    return inputs.salvage_rate * inputs.tfc


def depreciation(inputs: _BreakEvenInputs) -> float:
    """Straight-line annual depreciation of fixed capital less salvage, $/y."""
    return (inputs.tfc - salvage_value(inputs)) / inputs.n


def _cash_flow(price: float, inputs: _BreakEvenInputs, dep: float) -> tuple:
    revenue = price * inputs.q
    tax = inputs.tr * (revenue - inputs.opex - dep)
    return revenue, tax, revenue - inputs.opex - tax


def _annuity(r: float, n: int) -> float:
    """Sum of (1 + r)^-t over t = 1..n."""
    if r == 0:
        return float(n)
    if r < 1e-6:  # 1 + r drops the digits of a tiny r (to 1.0 below 1.1e-16)
        return -math.expm1(-n * math.log1p(r)) / r
    return (1.0 - (1.0 + r) ** -n) / r


def _terminal(inputs: _BreakEvenInputs) -> float:
    """Salvage value discounted from the end of the horizon, $."""
    return salvage_value(inputs) * (1.0 + inputs.r) ** -inputs.n


def _invert(inputs: _BreakEvenInputs, a: float, dep: float, terminal: float) -> float:
    # NPV(p) = a*[(1-tr)*(p*q - opex) + tr*D] + terminal - capex
    per_t = a * (1.0 - inputs.tr)
    slope = per_t * inputs.q
    intercept = a * (-(1.0 - inputs.tr) * inputs.opex + inputs.tr * dep) + terminal - inputs.capex
    if math.isinf(slope):  # a huge plant overflows the slope but not the price
        return -intercept / per_t / inputs.q
    # a slope that rounds to 0.0 gives infinity, a non-finite price the pipeline rejects
    return -intercept / slope if slope else math.inf


def _solve(inputs: _BreakEvenInputs) -> tuple:
    """(price, npv at it, revenue, tax, cash flow, annuity factor) of one plant:
    cash flows are constant, so one year and the annuity factor stand for the
    horizon, and the NPV is ``annuity * cash_flow + terminal - capex``, zero up
    to rounding."""
    a = _annuity(inputs.r, inputs.n)
    dep = depreciation(inputs)
    terminal = _terminal(inputs)
    price = _invert(inputs, a, dep, terminal)
    revenue, tax, cash_flow = _cash_flow(price, inputs, dep)
    return price, a * cash_flow + terminal - inputs.capex, revenue, tax, cash_flow, a


def _per_tj(price: float, weighted_lhv: float | None) -> float | None:
    """The price in $/TJ, None without a heating value."""
    return per_tj(price, weighted_lhv) if weighted_lhv else None


def _rows(columns: dict, q: float, n: int, salvage_rate: float):
    """Each row's inputs from the columns ``capex_usd``, ``opex_usd_per_y``,
    ``discount_rate``, ``tax_rate`` and ``tfc_usd``, and ``q``, ``n`` and
    ``salvage_rate``, the same in every row."""
    return map(_BreakEvenInputs, columns["capex_usd"], columns["opex_usd_per_y"], repeat(q),
               repeat(n), columns["discount_rate"], columns["tax_rate"], repeat(salvage_rate),
               columns["tfc_usd"])


def msp_columns(columns: dict, q: float, n: int, salvage_rate: float) -> dict:
    """The msp stage's break-even columns, ``msp_usd_per_t`` through
    ``annuity_factor`` (see ``_rows`` for the arguments); ``msp_usd_per_tj``
    reads the column ``weighted_lhv_mj_per_kg`` and is None where there is no
    heating value.  For inputs outside the bounds of a checked ``Dataset`` and
    ``ModelConfig`` (such as a tax rate of 1) the columns promise nothing."""
    solved = list(map(list, zip(*map(_solve, _rows(columns, q, n, salvage_rate))))) \
        or [[] for _ in range(6)]
    price, npv, revenue, tax, cash_flow, annuity = solved
    return {
        "msp_usd_per_t": price,
        "msp_usd_per_tj": list(map(_per_tj, price, columns["weighted_lhv_mj_per_kg"])),
        "npv_at_msp_usd": npv,
        "revenue_usd_per_y": revenue,
        "tax_usd_per_y": tax,
        "cash_flow_usd_per_y": cash_flow,
        "annuity_factor": annuity,
    }
