"""The msp stage in exact rationals: the reference that measures how far each
float the package writes lies from the exact value of its own formula.

Every formula of the cost cascade and the break-even solver is rational in
its inputs when the horizon is an integer, so ``fractions.Fraction`` gives
each value exactly.  The formulas are written from README's equations, not
by calling the stage functions, whose float constants (``1e-3`` among them)
would turn a ``Fraction`` into a float.  Each module constant is read as
``Fraction(CONSTANT)``, the float it holds, so a difference from the package
is rounding and nothing else.  The inputs are the floats the stage reads: the
resolved price level indices for the costs, and the written cost cells, the
rates and the heating value for the break-even columns.
"""

from fractions import Fraction

from agripellet import costs

F = Fraction


def ulp(x: Fraction) -> Fraction:
    """The spacing of the doubles at ``|x|``: 2^(e - 52) for 2^e <= |x| < 2^(e + 1),
    and the subnormal spacing 2^-1074 below 2^-1022."""
    x = abs(x)
    if x == 0:
        return F(2) ** -1074
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if F(2) ** e > x:
        e -= 1
    return F(2) ** (max(e, -1022) - 52)


def ulp_error(value: float, exact: Fraction, scale: Fraction | None = None) -> Fraction:
    """``|value - exact|`` in ulps of ``scale``, by default ``exact`` itself."""
    return abs(F(value) - exact) / ulp(exact if scale is None else scale)


def cost_cascade(row: dict) -> dict:
    """The ``costs.COST_COLUMNS`` of one country from its row's
    ``pli_<component>`` indices: equipment cost times the construction index,
    direct cost ``DIRECT_FACTOR·epc``, indirect ``INDIRECT_FACTOR·direct`` and
    miscellaneous ``MISC_FACTOR·(direct + indirect)``, whose sum is ``tfc_usd``;
    CAPEX adds working capital and start-up on top; OPEX is each reference line
    times its index, insurance/tax and additional expenses unscaled."""
    construction = F(row["pli_construction"])
    epc = F(costs.EPC_REF) * construction
    direct = F(costs.DIRECT_FACTOR) * epc
    indirect = F(costs.INDIRECT_FACTOR) * direct
    tfc = direct + indirect + F(costs.MISC_FACTOR) * (direct + indirect)
    capex = tfc + F(costs.WORKING_CAPITAL_FACTOR) * tfc + F(costs.STARTUP_FACTOR) * tfc
    labor = F(costs.LABOR_REF) + F(costs.LABOR_OVERHEAD_REF) + F(costs.LABOR_SUPERVISION_REF)
    opex = (F(costs.RAW_MATERIAL_REF) * F(row["pli_raw_material"])
            + labor * F(row["pli_labor"])
            + F(costs.UTILITIES_REF) * F(row["pli_electricity"])
            + F(costs.MAINTENANCE_REF) * construction
            + F(costs.INSURANCE_TAX_REF) + F(costs.ADDITIONAL_REF))
    return {"epc_usd": epc, "tfc_usd": tfc, "capex_usd": capex, "opex_usd_per_y": opex}


def annuity(r: Fraction, n: int) -> Fraction:
    """The sum of (1 + r)^-t over t = 1..n, as its geometric closed form."""
    return F(n) if r == 0 else (1 - (1 + r) ** -n) / r


def break_even(row: dict, n: int, salvage_rate: float) -> tuple:
    """``(columns, largest)``: the seven ``pricing.BREAK_EVEN_COLUMNS`` of the
    reference plant (``costs.OUTPUT_REF`` t/y) from the row's ``capex_usd``,
    ``opex_usd_per_y``, ``discount_rate``, ``tax_rate``, ``tfc_usd`` and
    ``weighted_lhv_mj_per_kg``, and for the three columns that are a
    difference of larger terms, the largest term's magnitude.

    The price zeroes ``NPV = a·cash_flow + salvage·(1+r)^-n − capex``, whose
    year has revenue ``p·q``, tax ``tr·(revenue − opex − dep)`` and cash flow
    ``revenue − opex − tax``, ``dep = (tfc − salvage)/n`` and ``salvage =
    salvage_rate·tfc``; NPV at that price is exactly 0.  The price per TJ is
    the price over ``lhv·1e-3`` TJ/t, None for a None heating value."""
    capex, opex, r, tr, tfc = (F(row[key]) for key in (
        "capex_usd", "opex_usd_per_y", "discount_rate", "tax_rate", "tfc_usd"))
    lhv = row["weighted_lhv_mj_per_kg"]
    q = F(costs.OUTPUT_REF)
    a = annuity(r, n)
    salvage = F(salvage_rate) * tfc
    dep = (tfc - salvage) / n
    terminal = salvage * (1 + r) ** -n
    price = -(a * (-(1 - tr) * opex + tr * dep) + terminal - capex) / (a * (1 - tr) * q)
    revenue = price * q
    tax = tr * (revenue - opex - dep)
    cash_flow = revenue - opex - tax
    npv = a * cash_flow + terminal - capex
    columns = {"msp_usd_per_t": price,
               "msp_usd_per_tj": None if lhv is None else price / (F(lhv) * F(1e-3)),
               "npv_at_msp_usd": npv, "revenue_usd_per_y": revenue, "tax_usd_per_y": tax,
               "cash_flow_usd_per_y": cash_flow, "annuity_factor": a}
    largest = {"tax_usd_per_y": tr * max(abs(revenue), opex, abs(dep)),
               "cash_flow_usd_per_y": max(abs(revenue), opex, abs(tax)),
               "npv_at_msp_usd": max(abs(a * cash_flow), terminal, capex)}
    return columns, largest


def exact_msp(inputs) -> Fraction:
    """The break-even price of one plant given as ``oracles.BreakEvenInputs``
    (of the reference plant's output), in exact rationals."""
    row = {"capex_usd": inputs.capex, "opex_usd_per_y": inputs.opex, "discount_rate": inputs.r,
           "tax_rate": inputs.tr, "tfc_usd": inputs.tfc, "weighted_lhv_mj_per_kg": None}
    columns, _ = break_even(row, inputs.n, inputs.salvage_rate)
    return columns["msp_usd_per_t"]
