"""Country-specific plant CAPEX/OPEX scaled from the reference pellet plant.

Reference breakdown is for a 40,080 t/y plant in Saskatchewan, Canada; local
cost levels are applied through price level index ratios (construction for the
capital side; labor, raw material, electricity, and construction for the
operating side).
"""

from __future__ import annotations

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

def cost_columns(columns: dict) -> dict:
    """The columns ``epc_usd``, ``capex_usd`` and ``opex_usd_per_y`` from the
    price level index columns ``pli_<component>``, each index > 0 as a
    checked ``Dataset`` holds it.

    Every capital line scales with the construction index; CAPEX is the total
    fixed capital (direct, indirect and miscellaneous cost) plus working
    capital and start-up on top of it.  OPEX is $/y: all three labor lines
    (base, overhead, supervision) scale with the labor index, maintenance
    follows construction, and insurance/tax and additional expenses are not
    scaled.
    """
    construction = columns["pli_construction"]
    epc = [EPC_REF * index for index in construction]
    direct = [DIRECT_FACTOR * e for e in epc]
    indirect = [INDIRECT_FACTOR * d for d in direct]
    tfc = [d + i + MISC_FACTOR * (d + i) for d, i in zip(direct, indirect)]
    labor_ref = LABOR_REF + LABOR_OVERHEAD_REF + LABOR_SUPERVISION_REF
    return {
        "epc_usd": epc,
        "capex_usd": [t + WORKING_CAPITAL_FACTOR * t + STARTUP_FACTOR * t for t in tfc],
        "opex_usd_per_y": [
            sum((RAW_MATERIAL_REF * m, labor_ref * lab, UTILITIES_REF * e, MAINTENANCE_REF * c,
                 INSURANCE_TAX_REF, ADDITIONAL_REF))
            for lab, m, e, c in zip(columns["pli_labor"], columns["pli_raw_material"],
                                    columns["pli_electricity"], construction)],
    }
