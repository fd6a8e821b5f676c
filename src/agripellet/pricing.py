"""Break-even pellet price: the selling price at which plant NPV hits a target.

Cash flows are constant across the horizon (no ramp-up): revenue minus OPEX
minus tax, with straight-line depreciation of the fixed capital less salvage.
Tax on loss years goes negative (a symmetric tax shield), which keeps NPV
affine in price and the closed-form inversion exact; a bisection fallback on
the same NPV function provides an independent route to the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataio import BELOW_ONE, FIELD_BOUNDS, NONNEGATIVE, POSITIVE, DataError


@dataclass(frozen=True)
class BreakEvenInputs:
    capex: float          # $
    opex: float           # $/y
    q: float              # pellet output, t/y
    n: int                # horizon, years
    r: float              # discount rate, fraction/y
    tr: float             # tax rate, fraction
    salvage_rate: float   # fraction of tfc recovered at end of horizon
    tfc: float            # depreciable fixed capital, $
    target_npv: float = 0.0

    def __post_init__(self):
        # the bounds the loader and ModelConfig check the same quantities against
        problems = []
        POSITIVE.check("q", self.q, problems)
        if self.n < 1:
            problems.append(f"n: must be >= 1, got {self.n!r}")
        FIELD_BOUNDS["discount_rate"].check("r", self.r, problems)
        FIELD_BOUNDS["tax_rate"].check("tr", self.tr, problems)
        BELOW_ONE.check("salvage_rate", self.salvage_rate, problems)
        for name in ("capex", "opex", "tfc"):
            NONNEGATIVE.check(name, getattr(self, name), problems)
        if problems:
            raise DataError(problems)


@dataclass(frozen=True)
class AnnualCashFlow:
    """One plant year at the MSP; every year of the horizon is the same.

    Year t's discounted flow is ``cash_flow * (1 + r) ** -t``, and their sum
    over the horizon is ``annuity_factor * cash_flow``.
    """

    revenue: float         # $/y
    tax: float             # $/y
    cash_flow: float       # $/y
    annuity_factor: float  # sum of (1 + r)^-t over t = 1..n


@dataclass(frozen=True)
class MspResult:
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


def npv(price: float, inputs: BreakEvenInputs) -> float:
    """Net present value over the horizon, summed year by year."""
    _, _, cf = annual_cash_flow(price, inputs)
    total = 0.0
    factor = 1.0
    for _ in range(inputs.n):
        factor /= 1.0 + inputs.r
        total += cf * factor
    return total + salvage_value(inputs) * factor - inputs.capex


def _annuity(r: float, n: int) -> float:
    """Sum of (1 + r)^-t over t = 1..n."""
    if r == 0:
        return float(n)
    if r < 1e-6:  # 1 + r drops the digits of a tiny r (to 1.0 below 1.1e-16)
        return -math.expm1(-n * math.log1p(r)) / r
    return (1.0 - (1.0 + r) ** -n) / r


def solve_msp_closed_form(inputs: BreakEvenInputs) -> float:
    """Invert the affine NPV(price) relation directly."""
    a = _annuity(inputs.r, inputs.n)
    terminal = salvage_value(inputs) * (1.0 + inputs.r) ** -inputs.n
    # NPV(p) = a*[(1-tr)*(p*q - opex) + tr*D] + terminal - capex
    slope = a * (1.0 - inputs.tr) * inputs.q
    intercept = a * (-(1.0 - inputs.tr) * inputs.opex + inputs.tr * depreciation(inputs)) \
        + terminal - inputs.capex
    return (inputs.target_npv - intercept) / slope


BISECTION_BRACKET = (0.0, 1e6)  # $/t


def solve_msp_bisection(inputs: BreakEvenInputs, npv_tol: float = 1e-5, max_iter: int = 200) -> float:
    """Root of NPV(price) = target by bisection on the fixed price bracket.

    Iterates until the residual NPV at the midpoint is within ``npv_tol``
    dollars, so the returned price satisfies the break-even condition to the
    same tolerance as the closed form.
    """
    lo, hi = BISECTION_BRACKET
    f_lo = npv(lo, inputs) - inputs.target_npv
    f_hi = npv(hi, inputs) - inputs.target_npv
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        # cannot occur for valid inputs (NPV is strictly increasing in price
        # with slope annuity*(1-tr)*q > 0), but guard the bracket anyway
        raise DataError(
            f"no sign change on price bracket [{lo}, {hi}]: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = npv(mid, inputs) - inputs.target_npv
        if abs(f_mid) <= npv_tol:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return mid


def solve_msp(inputs: BreakEvenInputs, weighted_lhv: float | None = None) -> MspResult:
    """Solve the break-even price and the plant year's cash flow at that price.

    The closed form is the primary route; if its residual NPV strays beyond a
    cent (it should never), the bisection fallback takes over.  Cash flows
    are constant, so one year and the annuity factor stand for the horizon.
    """
    price = solve_msp_closed_form(inputs)
    if abs(npv(price, inputs) - inputs.target_npv) > 0.01:
        price = solve_msp_bisection(inputs)
    per_tj = price / (weighted_lhv * 1e-3) if weighted_lhv else None
    return MspResult(
        msp=price,
        npv_at_msp=npv(price, inputs),
        annual_trace=AnnualCashFlow(*annual_cash_flow(price, inputs),
                                    _annuity(inputs.r, inputs.n)),
        msp_per_tj=per_tj,
    )
