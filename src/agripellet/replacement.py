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
from operator import neg

from .dataio import FUELS
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

# One country's per-fuel numbers below are sequences in FUELS order:
# consumption (TJ), fuel LCOE ($/TJ) and emission intensity (kgCO2e/TJ).


def _scores(lcoe, intensity, pellet_lcoe: float, pellet_intensity: float,
            scenario: str, carbon_tax: float) -> list:
    """Each fuel's per-TJ replacement score: scenario A scores cost savings, B
    emissions savings, C cost savings with the carbon tax priced into both
    sides (intensity converted kg -> t)."""
    if scenario == "A":
        return [c - pellet_lcoe for c in lcoe]
    if scenario == "B":
        return [i - pellet_intensity for i in intensity]
    if scenario == "C":
        pellet = pellet_lcoe + carbon_tax * pellet_intensity / 1000.0
        return [c + carbon_tax * i / 1000.0 - pellet for c, i in zip(lcoe, intensity)]
    raise ValueError(f"unknown scenario {scenario!r}")


def _order(scores: list) -> list:
    """The fuels' indexes best score first, a tie broken by ``CANONICAL_FUEL_ORDER``."""
    return [i for _, _, i in sorted(zip(map(neg, scores), _TIE_ORDER, _INDEXES))]


def _allocate(pellet_energy: float, consumption, order: list) -> tuple:
    """Greedy allocation down the ranking: (TJ per fuel, unused TJ)."""
    allocation = [0.0] * len(FUELS)
    remaining = pellet_energy
    for i in order:
        take = consumption[i] if consumption[i] < remaining else remaining  # min(remaining, c)
        allocation[i] = take
        remaining -= take
    return allocation, max(0.0, pellet_energy - sum(allocation))


def _savings(allocation: list, lcoe, intensity, pellet_lcoe: float,
             pellet_intensity: float) -> tuple:
    """(economic savings $/y, emissions savings kgCO2e/y) of an allocation."""
    return (sum([a * (c - pellet_lcoe) for a, c in zip(allocation, lcoe)]),
            sum([a * (i - pellet_intensity) for a, i in zip(allocation, intensity)]))


def _plan(pellet_energy: float, consumption, lcoe, intensity, pellet_lcoe: float,
          pellet_intensity: float, scenario: str, carbon_tax: float) -> list:
    """One country's plan as the values of ``PLAN_COLUMNS`` from ``rank_1`` on,
    followed by its scores best first."""
    scores = _scores(lcoe, intensity, pellet_lcoe, pellet_intensity, scenario, carbon_tax)
    order = _order(scores)
    allocation, unused = _allocate(pellet_energy, consumption, order)
    total_cons = sum(consumption)
    return ([FUELS[i] for i in order] + allocation
            + [a / c if c > 0 else 0.0 for a, c in zip(allocation, consumption)]
            + [sum(allocation) / total_cons if total_cons > 0 else 0.0, unused,
               *_savings(allocation, lcoe, intensity, pellet_lcoe, pellet_intensity)]
            + [scores[i] for i in order])


def plan_columns(columns: dict, consumption: dict, fuel_properties: dict, pellet_ef: float,
                 scenario: str, carbon_tax: float) -> tuple:
    """The plan stage's columns for rows that have a heating value.

    ``columns`` holds ``price_<fuel>``, ``msp_usd_per_t`` (the pellet price),
    ``weighted_lhv_mj_per_kg`` and ``pellet_energy_tj``; ``consumption`` each
    fuel's consumption column (TJ, a missing value read as 0.0).  Returns the
    ``PLAN_COLUMNS`` and the columns of each row's scores best first, which
    order ``rank_1..3`` without being columns and can overflow alone.
    """
    lhv = columns["weighted_lhv_mj_per_kg"]
    lcoe = zip(*(map(fuel_lcoe, columns[f"price_{f}"], repeat(fuel_properties[f].lhv))
                 for f in FUELS))
    intensity = [emission_intensity(fuel_properties[f].ef, fuel_properties[f].lhv)
                 for f in FUELS]
    rows = list(map(_plan, columns["pellet_energy_tj"], zip(*(consumption[f] for f in FUELS)),
                    lcoe, repeat(intensity), map(fuel_lcoe, columns["msp_usd_per_t"], lhv),
                    map(emission_intensity, repeat(pellet_ef), lhv), repeat(scenario),
                    repeat(carbon_tax)))
    values = list(map(list, zip(*rows))) or [[] for _ in range(len(PLAN_COLUMNS) + 1)]
    plan = {"scenario": [scenario] * len(rows),
            "carbon_tax_usd_per_tco2e": [carbon_tax] * len(rows),
            **dict(zip(PLAN_COLUMNS[2:], values))}
    return plan, values[len(PLAN_COLUMNS) - 2:]
