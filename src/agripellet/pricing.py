"""Break-even pellet price: the selling price at which plant NPV is zero.

Cash flows are constant across the horizon (no ramp-up): revenue minus OPEX
minus tax, with straight-line depreciation of the fixed capital less salvage.
Tax on loss years goes negative (a symmetric tax shield), which keeps NPV
affine in price, so the break-even price is one closed-form inversion and NPV
is the annuity factor times one year's cash flow plus the discounted salvage:
a solve costs the same at any horizon length.  ``msp_columns`` computes whole
columns, one comprehension per quantity, with no per-plant record; the annuity
factor is computed once per distinct discount rate.  The per-plant formulas,
the year-by-year NPV and a bisection on it are kept in the test suite as the
reference.  No input is checked here: a checked ``Dataset`` and
``ModelConfig`` hold each in its bound.
"""

from __future__ import annotations

import math
from itertools import repeat

from .energy import per_tj


def _annuity(r: float, n: int) -> float:
    """Sum of (1 + r)^-t over t = 1..n."""
    if r == 0:
        return float(n)
    if r < 1e-6:  # 1 + r drops the digits of a tiny r (to 1.0 below 1.1e-16)
        return -math.expm1(-n * math.log1p(r)) / r
    return (1.0 - (1.0 + r) ** -n) / r


def _price(a: float, tr: float, q: float, opex: float, dep: float, terminal: float,
           capex: float) -> float:
    """The price that zeroes NPV(p) = a*[(1-tr)*(p*q - opex) + tr*dep] + terminal - capex."""
    per_t = a * (1.0 - tr)
    slope = per_t * q
    intercept = a * (-(1.0 - tr) * opex + tr * dep) + terminal - capex
    if math.isinf(slope):  # a huge plant overflows the slope but not the price
        return -intercept / per_t / q
    # a slope that rounds to 0.0 gives infinity, a non-finite price the pipeline rejects
    return -intercept / slope if slope else math.inf


# The msp stage's break-even columns, in output order.
BREAK_EVEN_COLUMNS = ("msp_usd_per_t", "msp_usd_per_tj", "npv_at_msp_usd", "revenue_usd_per_y",
                      "tax_usd_per_y", "cash_flow_usd_per_y", "annuity_factor")


def msp_columns(columns: dict, q: float, n: int, salvage_rate: float) -> dict:
    """The ``BREAK_EVEN_COLUMNS`` from the columns ``capex_usd``,
    ``opex_usd_per_y``, ``discount_rate``, ``tax_rate`` and ``tfc_usd``, and
    the pellet output ``q`` (t/y), horizon ``n`` (years) and ``salvage_rate``
    (of tfc), the same in every row.  ``msp_usd_per_tj`` reads the column
    ``weighted_lhv_mj_per_kg`` and is None where there is no heating value.
    NPV is ``annuity * cash_flow + terminal - capex``, zero up to rounding.
    For inputs outside the bounds of a checked ``Dataset`` and ``ModelConfig``
    (such as a tax rate of 1) the columns promise nothing."""
    capex, opex, tfc = columns["capex_usd"], columns["opex_usd_per_y"], columns["tfc_usd"]
    rates, tax_rates = columns["discount_rate"], columns["tax_rate"]
    annuity_by_rate = {r: _annuity(r, n) for r in set(rates)}
    annuity = list(map(annuity_by_rate.__getitem__, rates))
    salvage = [salvage_rate * t for t in tfc]
    dep = [(t - s) / n for t, s in zip(tfc, salvage)]
    terminal = [s * (1.0 + r) ** -n for s, r in zip(salvage, rates)]
    price = list(map(_price, annuity, tax_rates, repeat(q), opex, dep, terminal, capex))
    revenue = [p * q for p in price]
    tax = [tr * (rev - o - d) for tr, rev, o, d in zip(tax_rates, revenue, opex, dep)]
    cash_flow = [rev - o - t for rev, o, t in zip(revenue, opex, tax)]
    per_tj_price = [per_tj(p, lhv) if lhv else None
                    for p, lhv in zip(price, columns["weighted_lhv_mj_per_kg"])]
    npv = [a * cf + term - c for a, cf, term, c in zip(annuity, cash_flow, terminal, capex)]
    values = (price, per_tj_price, npv, revenue, tax, cash_flow, annuity)
    return dict(zip(BREAK_EVEN_COLUMNS, values, strict=True))
