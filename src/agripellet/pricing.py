"""Break-even pellet price: the selling price at which plant NPV is zero.

Cash flows are constant across the horizon (no ramp-up): revenue minus OPEX
minus tax, with straight-line depreciation of the fixed capital less salvage.
Tax on loss years goes negative (a symmetric tax shield), which keeps NPV
affine in price, so the break-even price is one closed-form inversion and NPV
is the annuity factor times one year's cash flow plus the discounted salvage:
a solve costs the same at any horizon length.  The year-by-year NPV and a
bisection on it are kept in the test suite as the reference.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dataio import (BELOW_ONE, FIELD_BOUNDS, HORIZON, NONNEGATIVE, POSITIVE, CheckedRecord,
                     DataError)


class _BreakEvenInputs(NamedTuple):
    capex: float          # $
    opex: float           # $/y
    q: float              # pellet output, t/y
    n: int                # horizon, years
    r: float              # discount rate, fraction/y
    tr: float             # tax rate, fraction
    salvage_rate: float   # fraction of tfc recovered at end of horizon
    tfc: float            # depreciable fixed capital, $


class BreakEvenInputs(CheckedRecord, _BreakEvenInputs):
    __slots__ = ()

    def _check(self):
        # the bounds the loader and ModelConfig check the same quantities against
        problems = []
        POSITIVE.check("q", self.q, problems)
        HORIZON.check("n", self.n, problems)
        FIELD_BOUNDS["discount_rate"].check("r", self.r, problems)
        FIELD_BOUNDS["tax_rate"].check("tr", self.tr, problems)
        BELOW_ONE.check("salvage_rate", self.salvage_rate, problems)
        for name in ("capex", "opex", "tfc"):
            NONNEGATIVE.check(name, getattr(self, name), problems)
        if problems:
            raise DataError(problems)


class AnnualCashFlow(NamedTuple):
    """One plant year at the MSP; every year of the horizon is the same.

    Year t's discounted flow is ``cash_flow * (1 + r) ** -t``, and their sum
    over the horizon is ``annuity_factor * cash_flow``.
    """

    revenue: float         # $/y
    tax: float             # $/y
    cash_flow: float       # $/y
    annuity_factor: float  # sum of (1 + r)^-t over t = 1..n


class MspResult(NamedTuple):
    msp: float                 # $/t
    npv_at_msp: float          # $
    annual_trace: AnnualCashFlow  # one plant year at the MSP
    msp_per_tj: float | None   # $/TJ when a heating-value context is attached


def salvage_value(inputs: BreakEvenInputs) -> float:
    return inputs.salvage_rate * inputs.tfc


def depreciation(inputs: BreakEvenInputs) -> float:
    """Straight-line annual depreciation of fixed capital less salvage, $/y."""
    return (inputs.tfc - salvage_value(inputs)) / inputs.n


def annual_cash_flow(price: float, inputs: BreakEvenInputs) -> tuple:
    """(revenue, tax, cash flow) of one plant year at the given pellet price."""
    revenue = price * inputs.q
    tax = inputs.tr * (revenue - inputs.opex - depreciation(inputs))
    return revenue, tax, revenue - inputs.opex - tax


def _annuity(r: float, n: int) -> float:
    """Sum of (1 + r)^-t over t = 1..n."""
    if r == 0:
        return float(n)
    if r < 1e-6:  # 1 + r drops the digits of a tiny r (to 1.0 below 1.1e-16)
        return -math.expm1(-n * math.log1p(r)) / r
    return (1.0 - (1.0 + r) ** -n) / r


def _terminal(inputs: BreakEvenInputs) -> float:
    """Salvage value discounted from the end of the horizon, $."""
    return salvage_value(inputs) * (1.0 + inputs.r) ** -inputs.n


def solve_msp_closed_form(inputs: BreakEvenInputs) -> float:
    """Invert the affine NPV(price) relation directly."""
    a = _annuity(inputs.r, inputs.n)
    # NPV(p) = a*[(1-tr)*(p*q - opex) + tr*D] + terminal - capex
    slope = a * (1.0 - inputs.tr) * inputs.q
    intercept = a * (-(1.0 - inputs.tr) * inputs.opex + inputs.tr * depreciation(inputs)) \
        + _terminal(inputs) - inputs.capex
    return -intercept / slope


def solve_msp(inputs: BreakEvenInputs, weighted_lhv: float | None = None) -> MspResult:
    """Solve the break-even price and the plant year's cash flow at that price.

    Cash flows are constant, so one year and the annuity factor stand for the
    horizon: ``npv_at_msp`` is ``annuity * cash_flow + terminal - capex``, zero
    up to rounding.
    """
    price = solve_msp_closed_form(inputs)
    revenue, tax, cash_flow = annual_cash_flow(price, inputs)
    a = _annuity(inputs.r, inputs.n)
    per_tj = price / (weighted_lhv * 1e-3) if weighted_lhv else None
    return MspResult(
        msp=price,
        npv_at_msp=a * cash_flow + _terminal(inputs) - inputs.capex,
        annual_trace=AnnualCashFlow(revenue, tax, cash_flow, a),
        msp_per_tj=per_tj,
    )
