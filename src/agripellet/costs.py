"""Country-specific plant CAPEX/OPEX scaled from the reference pellet plant.

Reference breakdown is for a 40,080 t/y plant in Saskatchewan, Canada; local
cost levels are applied through price level index ratios (construction for the
capital side; labor, raw material, electricity, and construction for the
operating side).
"""

from __future__ import annotations

from typing import NamedTuple

from .dataio import DataError

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


class CostEstimate(NamedTuple):
    epc: float              # equipment purchase cost, $
    capex: float            # $
    opex_total: float       # $/y


def capital_costs(construction_index: float) -> tuple:
    """(equipment purchase cost, CAPEX) for one country; every line scales with the index.

    CAPEX is the total fixed capital (direct, indirect and miscellaneous
    cost) plus working capital and start-up on top of it.
    """
    if construction_index <= 0:
        raise DataError(f"construction index must be > 0, got {construction_index}")
    epc = EPC_REF * construction_index
    direct = DIRECT_FACTOR * epc
    indirect = INDIRECT_FACTOR * direct
    tfc = direct + indirect + MISC_FACTOR * (direct + indirect)
    return epc, tfc + WORKING_CAPITAL_FACTOR * tfc + STARTUP_FACTOR * tfc


def operating_costs(labor_index: float, raw_material_index: float,
                    electricity_index: float, construction_index: float) -> float:
    """Annual OPEX, $/y.

    All three labor lines (base, overhead, supervision) scale with the labor
    index; maintenance follows construction; insurance/tax and additional
    expenses are not scaled.
    """
    for label, idx in (("labor", labor_index), ("raw material", raw_material_index),
                       ("electricity", electricity_index), ("construction", construction_index)):
        if idx <= 0:
            raise DataError(f"{label} index must be > 0, got {idx}")
    return sum((
        RAW_MATERIAL_REF * raw_material_index,
        (LABOR_REF + LABOR_OVERHEAD_REF + LABOR_SUPERVISION_REF) * labor_index,
        UTILITIES_REF * electricity_index,
        MAINTENANCE_REF * construction_index,
        INSURANCE_TAX_REF,
        ADDITIONAL_REF,
    ))


def estimate_costs(pli: dict) -> CostEstimate:
    """Full cost estimate from resolved price level indexes.

    ``pli`` must carry labor, raw_material, construction, and electricity.
    """
    epc, capex = capital_costs(pli["construction"])
    opex = operating_costs(pli["labor"], pli["raw_material"], pli["electricity"],
                           pli["construction"])
    return CostEstimate(epc=epc, capex=capex, opex_total=opex)
