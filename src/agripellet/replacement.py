"""Scenario-ranked greedy substitution of fossil fuels with pellet energy.

Fuels are compared on a per-energy basis: levelized cost in $/TJ and emission
intensity in kgCO2e/TJ.  A scenario picks the ranking score (cost savings,
emissions savings, or cost savings under a carbon tax); pellet energy is then
allocated greedily down the ranking, capped by each fuel's national
consumption.  Allocation proceeds regardless of score sign, so savings can go
negative under crashed fossil prices; they are deliberately not clamped.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, getitem, itemgetter, mul, neg, sub

from .dataio import FUELS, add_rows
from .energy import per_tj

# Fixed order for breaking score ties, so output is reproducible.
CANONICAL_FUEL_ORDER = ("coal", "natural_gas", "oil")


# $/TJ from a $/t price, and kgCO2e/TJ from a kgCO2e/t emission factor, at a
# heating value in MJ/kg
fuel_lcoe = emission_intensity = per_tj

# Every column a plan adds to a country's record; a country without one has none.
PLAN_COLUMNS = (
    "scenario", "carbon_tax_usd_per_tco2e", "rank_1", "rank_2", "rank_3",
    *(f"alloc_{f}_tj" for f in FUELS), *(f"replaced_{f}_frac" for f in FUELS),
    "replaced_overall_frac", "unused_pellet_tj", "s_ec_usd_per_y", "s_em_kgco2e_per_y",
)
_TIE_ORDER = tuple(CANONICAL_FUEL_ORDER.index(f) for f in FUELS)
_INDEXES = tuple(range(len(FUELS)))


def _order(scores) -> list:
    """One row's fuel indexes best score first, a tie broken by
    ``CANONICAL_FUEL_ORDER`` (and a NaN score left where ``sorted`` leaves it)."""
    return [i for _, _, i in sorted(zip(map(neg, scores), _TIE_ORDER, _INDEXES))]


def _ratios(parts: list, wholes: list) -> list:
    """Each part over its whole, 0.0 where the whole is not positive."""
    return [a / c if c > 0 else 0.0 for a, c in zip(parts, wholes)]


def plan_columns(columns: dict, consumption: dict, fuel_properties: dict, pellet_ef: float,
                 scenario: str, carbon_tax: float) -> tuple:
    """The plan stage's columns for rows that have a heating value.

    ``columns`` holds ``price_<fuel>``, ``msp_usd_per_tj`` (the pellet LCOE
    as ``pricing.msp_columns`` gives it), ``weighted_lhv_mj_per_kg`` and
    ``pellet_energy_tj``; ``consumption`` each fuel's consumption column
    (TJ, a missing value read as 0.0).  Returns the
    ``PLAN_COLUMNS`` and the columns of each row's scores best first, which
    order ``rank_1..3`` without being columns and can overflow alone.

    Each fuel's per-TJ score is a column: scenario A scores cost savings, B
    emissions savings, C cost savings with the carbon tax priced into both
    sides (intensity converted kg -> t).  The ranking and the allocation are
    made row by row: each row's pellet energy goes greedily down its ranking,
    each fuel taking the least of its consumption and what is left; every
    per-row sum runs over the fuels in ``FUELS`` order.
    """
    lhv, energy = columns["weighted_lhv_mj_per_kg"], columns["pellet_energy_tj"]
    pellet_lcoe = columns["msp_usd_per_tj"]
    pellet_intensity = list(map(emission_intensity, repeat(pellet_ef), lhv))
    lcoe, intensity = [], []  # per fuel: a column of $/TJ, one kgCO2e/TJ
    for f in FUELS:
        props = fuel_properties[f]
        lcoe.append(list(map(fuel_lcoe, columns[f"price_{f}"], repeat(props.lhv))))
        intensity.append(emission_intensity(props.ef, props.lhv))
    cost_gap = [list(map(sub, col, pellet_lcoe)) for col in lcoe]
    emission_gap = [list(map(sub, repeat(i), pellet_intensity)) for i in intensity]
    if scenario == "A":
        scores = cost_gap
    elif scenario == "B":
        scores = emission_gap
    else:
        pellet = [c + carbon_tax * i / 1000.0 for c, i in zip(pellet_lcoe, pellet_intensity)]
        scores = [list(map(sub, map(add, col, repeat(carbon_tax * i / 1000.0)), pellet))
                  for col, i in zip(lcoe, intensity)]
    score_rows = list(zip(*scores))
    orders = list(map(_order, score_rows))
    ranked = [list(map(itemgetter(k), orders)) for k in _INDEXES]  # fuel index at each rank
    cons = [consumption[f] for f in FUELS]
    alloc = [[0.0] * len(energy) for _ in FUELS]
    for row, (order, left) in enumerate(zip(orders, energy)):
        for i in order:
            alloc[i][row] = take = min(left, cons[i][row])
            left -= take
    alloc_total = add_rows(alloc)

    def saved(gaps):  # each row's allocations times their gaps, summed
        return add_rows(map(mul, a, gap) for a, gap in zip(alloc, gaps))

    plan = dict(zip(PLAN_COLUMNS, (
        [scenario] * len(energy), [carbon_tax] * len(energy),
        *(list(map(FUELS.__getitem__, fuels)) for fuels in ranked), *alloc,
        *(_ratios(a, c) for a, c in zip(alloc, cons)), _ratios(alloc_total, add_rows(cons)),
        list(map(max, repeat(0.0), map(sub, energy, alloc_total))),
        saved(cost_gap), saved(emission_gap)), strict=True))
    return plan, [list(map(getitem, score_rows, fuels)) for fuels in ranked]
