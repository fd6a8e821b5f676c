"""Country-specific plant CAPEX/OPEX scaled from the reference pellet plant.

Reference breakdown is for a 40,080 t/y plant (``OUTPUT_REF``) in
Saskatchewan, Canada, the one plant every country builds and prices; local
cost levels are applied through price level index ratios (construction for
the capital side; labor, raw material, electricity, and construction for the
operating side).
"""

from __future__ import annotations

from .dataio import add_rows

OUTPUT_REF = 40_080.0  # t pellets/y, the output every line below is costed for

# Capital cascade (US$)
EPC_REF = 1_249_570.0    # equipment purchase cost
DIRECT_FACTOR = 3.25     # total plant direct cost, as a multiple of equipment cost
INDIRECT_FACTOR = 0.22   # of direct
MISC_FACTOR = 0.10       # of direct + indirect
WORKING_CAPITAL_FACTOR = 0.05  # of total fixed capital
STARTUP_FACTOR = 0.15          # of total fixed capital

# Operating reference lines (US$/y)
RAW_MATERIAL_REF = 482_600.0
LABOR_REF = 812_800.0
LABOR_OVERHEAD_REF = 558_800.0
LABOR_SUPERVISION_REF = 152_400.0
UTILITIES_REF = 203_200.0
MAINTENANCE_REF = 152_400.0
INSURANCE_TAX_REF = 101_600.0   # not index scaled
ADDITIONAL_REF = 76_200.0       # not index scaled

# The msp stage's cost columns, in output order.
COST_COLUMNS = ("epc_usd", "tfc_usd", "capex_usd", "opex_usd_per_y")


def cost_columns(columns: dict) -> dict:
    """The ``COST_COLUMNS`` from the price level index columns
    ``pli_<component>``, each index > 0 as a checked ``Dataset`` holds it.

    Every capital line scales with the construction index; ``tfc_usd`` is the
    total fixed capital (direct, indirect and miscellaneous cost), and CAPEX
    is that plus working capital and start-up on top of it.  OPEX is $/y: all
    three labor lines (base, overhead, supervision) scale with the labor
    index, maintenance follows construction, and insurance/tax and additional
    expenses are not scaled.
    """
    construction = columns["pli_construction"]
    epc = [EPC_REF * index for index in construction]
    direct = [DIRECT_FACTOR * e for e in epc]
    indirect = [INDIRECT_FACTOR * d for d in direct]
    tfc = [d + i + MISC_FACTOR * (d + i) for d, i in zip(direct, indirect)]
    capex = [t + WORKING_CAPITAL_FACTOR * t + STARTUP_FACTOR * t for t in tfc]
    labor_ref = LABOR_REF + LABOR_OVERHEAD_REF + LABOR_SUPERVISION_REF
    opex = add_rows((
        [RAW_MATERIAL_REF * m for m in columns["pli_raw_material"]],
        [labor_ref * lab for lab in columns["pli_labor"]],
        [UTILITIES_REF * e for e in columns["pli_electricity"]],
        [MAINTENANCE_REF * c for c in construction],
        [INSURANCE_TAX_REF] * len(epc), [ADDITIONAL_REF] * len(epc)))
    return dict(zip(COST_COLUMNS, (epc, tfc, capex, opex), strict=True))
