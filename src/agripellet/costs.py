"""Country-specific plant CAPEX/OPEX scaled from the reference pellet plant.

Reference breakdown is for a 40,080 t/y plant in Saskatchewan, Canada; local
cost levels are applied through price level index ratios (construction for the
capital side; labor, raw material, electricity, and construction for the
operating side).
"""

from __future__ import annotations

from typing import NamedTuple

from .dataio import PLI_COMPONENTS, DataError

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


def _check_index(label: str, index: float) -> None:
    if index <= 0:
        raise DataError(f"{label} index must be > 0, got {index}")


def _capital_columns(construction: list) -> tuple:
    """(equipment purchase cost, CAPEX) columns; every line scales with the index.

    CAPEX is the total fixed capital (direct, indirect and miscellaneous
    cost) plus working capital and start-up on top of it.
    """
    epc = [EPC_REF * index for index in construction]
    direct = [DIRECT_FACTOR * e for e in epc]
    indirect = [INDIRECT_FACTOR * d for d in direct]
    tfc = [d + i + MISC_FACTOR * (d + i) for d, i in zip(direct, indirect)]
    return epc, [t + WORKING_CAPITAL_FACTOR * t + STARTUP_FACTOR * t for t in tfc]


def _operating_column(labor: list, raw_material: list, electricity: list,
                      construction: list) -> list:
    """Annual OPEX, $/y.

    All three labor lines (base, overhead, supervision) scale with the labor
    index; maintenance follows construction; insurance/tax and additional
    expenses are not scaled.
    """
    labor_ref = LABOR_REF + LABOR_OVERHEAD_REF + LABOR_SUPERVISION_REF
    return [sum((RAW_MATERIAL_REF * m, labor_ref * lab, UTILITIES_REF * e, MAINTENANCE_REF * c,
                 INSURANCE_TAX_REF, ADDITIONAL_REF))
            for lab, m, e, c in zip(labor, raw_material, electricity, construction)]


def capital_costs(construction_index: float) -> tuple:
    """(equipment purchase cost, CAPEX) for one country."""
    _check_index("construction", construction_index)
    (epc,), (capex,) = _capital_columns([construction_index])
    return epc, capex


def operating_costs(labor_index: float, raw_material_index: float,
                    electricity_index: float, construction_index: float) -> float:
    """Annual OPEX of one country, $/y."""
    for label, index in (("labor", labor_index), ("raw material", raw_material_index),
                         ("electricity", electricity_index),
                         ("construction", construction_index)):
        _check_index(label, index)
    return _operating_column([labor_index], [raw_material_index], [electricity_index],
                             [construction_index])[0]


def estimate_costs(pli: dict) -> CostEstimate:
    """Full cost estimate from resolved price level indexes.

    ``pli`` must carry labor, raw_material, construction, and electricity.
    """
    epc, capex = capital_costs(pli["construction"])
    opex = operating_costs(pli["labor"], pli["raw_material"], pli["electricity"],
                           pli["construction"])
    return CostEstimate(epc=epc, capex=capex, opex_total=opex)


def cost_failures(columns: dict) -> dict:
    """Row -> message for each row whose price level indexes (``pli_<component>``
    lists) ``estimate_costs`` rejects, with its message; a row is scanned only
    when a column holds a value that is not > 0."""
    pli = [columns[f"pli_{p}"] for p in PLI_COMPONENTS]
    if all(min(col, default=1.0) > 0 for col in pli):
        return {}
    failures = {}
    for row, indexes in enumerate(zip(*pli)):
        try:
            estimate_costs(dict(zip(PLI_COMPONENTS, indexes)))
        except DataError as exc:
            failures[row] = str(exc)
    return failures


def cost_columns(columns: dict) -> dict:
    """The columns ``epc_usd``, ``capex_usd`` and ``opex_usd_per_y`` from the
    price level index columns ``pli_<component>``, each index > 0 (see
    ``cost_failures``)."""
    construction = columns["pli_construction"]
    epc, capex = _capital_columns(construction)
    opex = _operating_column(columns["pli_labor"], columns["pli_raw_material"],
                             columns["pli_electricity"], construction)
    return {"epc_usd": epc, "capex_usd": capex, "opex_usd_per_y": opex}
