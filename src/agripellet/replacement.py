"""Scenario-ranked greedy substitution of fossil fuels with pellet energy.

Fuels are compared on a per-energy basis: levelized cost in $/TJ and emission
intensity in kgCO2e/TJ.  A scenario picks the ranking score (cost savings,
emissions savings, or cost savings under a carbon tax); pellet energy is then
allocated greedily down the ranking, capped by each fuel's national
consumption.  Allocation proceeds regardless of score sign, so savings can go
negative under crashed fossil prices; they are deliberately not clamped.
"""

from __future__ import annotations

from typing import NamedTuple

from .dataio import FUELS

# Fixed order for breaking score ties, so output is reproducible.
CANONICAL_FUEL_ORDER = ("coal", "natural_gas", "oil")

SCENARIOS = ("A", "B", "C")  # cost optimized / emissions optimized / cost with carbon tax


def fuel_lcoe(price: float, lhv: float) -> float:
    """Levelized cost of energy, $/TJ, from $/t price and MJ/kg heating value."""
    return price / (lhv * 1e-3)


def emission_intensity(ef: float, lhv: float) -> float:
    """kgCO2e per TJ from a per-ton emission factor and MJ/kg heating value."""
    return ef / (lhv * 1e-3)


class FuelEconomics(NamedTuple):
    fuel_lcoe: dict         # $/TJ
    fuel_intensity: dict    # kgCO2e/TJ
    pellet_lcoe: float      # $/TJ
    pellet_intensity: float  # kgCO2e/TJ


def build_economics(fuel_prices: dict, fuel_properties: dict,
                    pellet_price: float, weighted_lhv: float, pellet_ef: float,
                    ) -> FuelEconomics:
    return FuelEconomics(
        fuel_lcoe={f: fuel_lcoe(fuel_prices[f], fuel_properties[f].lhv) for f in FUELS},
        fuel_intensity={f: emission_intensity(fuel_properties[f].ef, fuel_properties[f].lhv)
                        for f in FUELS},
        pellet_lcoe=fuel_lcoe(pellet_price, weighted_lhv),
        pellet_intensity=emission_intensity(pellet_ef, weighted_lhv),
    )


class ReplacementPlan(NamedTuple):
    scenario: str
    carbon_tax: float
    ranking: tuple            # (fuel, score $/TJ or kgCO2e/TJ) best first
    allocation: dict          # TJ replaced per fuel
    replaced_fraction: dict   # per fuel, allocation / consumption
    replaced_fraction_overall: float
    unused_pellet_energy: float  # TJ
    s_ec: float               # $/y
    s_em: float               # kgCO2e/y


def rank_fuels(econ: FuelEconomics, scenario: str, carbon_tax: float = 0.0) -> list:
    """Fuels with their per-TJ replacement score, best first.

    Scenario A scores cost savings, B emissions savings, C cost savings with
    the carbon tax priced into both sides (intensity converted kg -> t).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    scores = {}
    for f in FUELS:
        if scenario == "A":
            scores[f] = econ.fuel_lcoe[f] - econ.pellet_lcoe
        elif scenario == "B":
            scores[f] = econ.fuel_intensity[f] - econ.pellet_intensity
        else:
            effective_fuel = econ.fuel_lcoe[f] + carbon_tax * econ.fuel_intensity[f] / 1000.0
            effective_pellet = econ.pellet_lcoe + carbon_tax * econ.pellet_intensity / 1000.0
            scores[f] = effective_fuel - effective_pellet
    order = sorted(FUELS, key=lambda f: (-scores[f], CANONICAL_FUEL_ORDER.index(f)))
    return [(f, scores[f]) for f in order]


def allocate(pellet_energy: float, consumption: dict, ranking: list) -> tuple:
    """Greedy allocation down the ranking; returns (allocation TJ per fuel, unused TJ)."""
    allocation = {f: 0.0 for f in FUELS}
    remaining = pellet_energy
    for f, _score in ranking:
        take = min(remaining, consumption.get(f) or 0.0)
        allocation[f] = take
        remaining -= take
    return allocation, max(0.0, pellet_energy - sum(allocation.values()))


def savings(allocation: dict, econ: FuelEconomics) -> tuple:
    """(economic savings $/y, emissions savings kgCO2e/y) of an allocation."""
    s_ec = sum(allocation[f] * (econ.fuel_lcoe[f] - econ.pellet_lcoe) for f in FUELS)
    s_em = sum(allocation[f] * (econ.fuel_intensity[f] - econ.pellet_intensity)
               for f in FUELS)
    return s_ec, s_em


def build_plan(pellet_energy: float, consumption: dict, econ: FuelEconomics,
               scenario: str, carbon_tax: float = 0.0) -> ReplacementPlan:
    ranking = rank_fuels(econ, scenario, carbon_tax)
    allocation, unused = allocate(pellet_energy, consumption, ranking)
    s_ec, s_em = savings(allocation, econ)
    fractions = {}
    for f in FUELS:
        cons = consumption.get(f) or 0.0
        fractions[f] = allocation[f] / cons if cons > 0 else 0.0
    total_cons = sum(consumption.get(f) or 0.0 for f in FUELS)
    total_alloc = sum(allocation.values())
    return ReplacementPlan(
        scenario=scenario,
        carbon_tax=carbon_tax,
        ranking=tuple(ranking),
        allocation=allocation,
        replaced_fraction=fractions,
        replaced_fraction_overall=total_alloc / total_cons if total_cons > 0 else 0.0,
        unused_pellet_energy=unused,
        s_ec=s_ec,
        s_em=s_em,
    )
