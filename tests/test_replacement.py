import random

import pytest

from agripellet.dataio import FUELS, FuelProperties, default_fuel_properties
from agripellet.replacement import (
    allocate,
    build_economics,
    build_plan,
    emission_intensity,
    fuel_lcoe,
    rank_fuels,
    savings,
)

PROPS = default_fuel_properties()


def average_econ(pellet_lcoe=6_600.0, weighted_lhv=16.0):
    """FuelEconomics hitting the reported global-average energy costs."""
    prices = {
        "coal": 4_403.0 * 23.9e-3,       # -> 4,403 $/TJ
        "oil": 14_036.0 * 42.0e-3,       # -> 14,036 $/TJ
        "natural_gas": 13_563.0 * 42.0e-3,
    }
    return build_economics(prices, PROPS, pellet_lcoe * weighted_lhv * 1e-3,
                           weighted_lhv, 151.0)


def test_fuel_lcoe_coal_average():
    assert round(fuel_lcoe(105.23, 23.9)) == 4_403


def test_fuel_lcoe_zero_price():
    assert fuel_lcoe(0.0, 23.9) == 0.0


def test_fuel_lcoe_oil_average():
    assert round(fuel_lcoe(589.5, 42.0)) == 14_036


def test_emission_intensities_from_reference_tables():
    assert emission_intensity(2592.0, 23.9) == pytest.approx(108_451.88284518828)
    assert emission_intensity(2977.0, 42.0) == pytest.approx(70_880.95238095238)
    assert emission_intensity(2114.0, 42.0) == pytest.approx(50_333.333333333336)
    assert emission_intensity(151.0, 16.0) == pytest.approx(9_437.5)


def test_scenario_a_ranking_at_global_averages():
    econ = average_econ()
    ranking = rank_fuels(econ, "A")
    assert [f for f, _ in ranking] == ["oil", "natural_gas", "coal"]
    scores = dict(ranking)
    assert scores["oil"] == pytest.approx(14_036.0 - 6_600.0, abs=0.5)
    assert scores["coal"] == pytest.approx(4_403.0 - 6_600.0, abs=0.5)


def test_scenario_c_zero_tax_equals_a():
    econ = average_econ()
    assert rank_fuels(econ, "C", carbon_tax=0.0) == rank_fuels(econ, "A")


def test_scenario_c_tax_can_flip_ranking():
    econ = average_econ()
    # a steep carbon price favors displacing coal despite its low market cost
    ranking = rank_fuels(econ, "C", carbon_tax=500.0)
    assert ranking[0][0] == "coal"


def test_scenario_b_ranking_with_default_factors():
    econ = average_econ()
    ranking = rank_fuels(econ, "B")
    assert [f for f, _ in ranking] == ["coal", "oil", "natural_gas"]
    scores = dict(ranking)
    assert scores["coal"] == pytest.approx(108_451.88284518828 - 9_437.5)
    assert scores["oil"] == pytest.approx(70_880.95238095238 - 9_437.5)
    assert scores["natural_gas"] == pytest.approx(50_333.333333333336 - 9_437.5)


def test_tie_break_is_canonical():
    props = {f: FuelProperties(20.0, 2000.0) for f in FUELS}
    prices = {f: 100.0 for f in FUELS}
    econ = build_economics(prices, props, 80.0, 16.0, 151.0)
    ranking = rank_fuels(econ, "A")
    assert [f for f, _ in ranking] == ["coal", "natural_gas", "oil"]


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        rank_fuels(average_econ(), "Z")


def test_greedy_allocation_hand_example():
    ranking = [("oil", 3.0), ("natural_gas", 2.0), ("coal", 1.0)]
    consumption = {"oil": 60.0, "natural_gas": 50.0, "coal": 10.0}
    allocation, unused = allocate(100.0, consumption, ranking)
    assert allocation == {"oil": 60.0, "natural_gas": 40.0, "coal": 0.0}
    assert unused == 0.0


def test_allocation_zero_supply():
    ranking = [("oil", 3.0), ("natural_gas", 2.0), ("coal", 1.0)]
    allocation, unused = allocate(0.0, {f: 10.0 for f in FUELS}, ranking)
    assert all(v == 0.0 for v in allocation.values())
    assert unused == 0.0


def test_allocation_saturation():
    ranking = [("oil", 3.0), ("natural_gas", 2.0), ("coal", 1.0)]
    consumption = {"oil": 60.0, "natural_gas": 50.0, "coal": 10.0}
    allocation, unused = allocate(1000.0, consumption, ranking)
    assert allocation == consumption
    assert unused == 880.0


def test_allocation_proceeds_at_negative_margin():
    econ = average_econ(pellet_lcoe=20_000.0)  # pellets dearer than every fuel
    plan = build_plan(100.0, {"oil": 60.0, "natural_gas": 50.0, "coal": 10.0}, econ, "A")
    assert sum(plan.allocation.values()) == pytest.approx(100.0)
    assert plan.s_ec < 0.0  # negative savings are reported, not clamped


def test_savings_oil_anchor():
    econ = average_econ()
    allocation = {"oil": 100.0, "natural_gas": 0.0, "coal": 0.0}
    s_ec, _ = savings(allocation, econ)
    assert s_ec == pytest.approx(100.0 * (14_036.0 - 6_600.0), abs=50.0)


def test_savings_zero_allocation():
    econ = average_econ()
    assert savings({f: 0.0 for f in FUELS}, econ) == (0.0, 0.0)


def test_savings_coal_emissions_anchor():
    econ = average_econ()
    _, s_em = savings({"coal": 1.0, "oil": 0.0, "natural_gas": 0.0}, econ)
    assert s_em == pytest.approx(108_451.88284518828 - 9_437.5)


def random_raw_case(rng):
    prices = {f: rng.uniform(10.0, 900.0) for f in FUELS}
    props = {f: FuelProperties(rng.uniform(10.0, 50.0), rng.uniform(500.0, 4000.0))
             for f in FUELS}
    pellet_price = rng.uniform(20.0, 400.0)
    wlhv = rng.uniform(12.0, 18.0)
    pellet_ef = rng.uniform(50.0, 500.0)
    consumption = {f: rng.uniform(0.0, 1e5) for f in FUELS}
    energy = rng.uniform(0.0, 3e5)
    return prices, props, pellet_price, wlhv, pellet_ef, consumption, energy


def random_case(rng):
    prices, props, pellet_price, wlhv, pellet_ef, consumption, energy = random_raw_case(rng)
    econ = build_economics(prices, props, pellet_price, wlhv, pellet_ef)
    return econ, consumption, energy


def test_conservation_and_bounds_random():
    rng = random.Random(57)
    for _ in range(500):
        econ, consumption, energy = random_case(rng)
        plan = build_plan(energy, consumption, econ, "A")
        total = sum(plan.allocation.values()) + plan.unused_pellet_energy
        assert total == pytest.approx(energy, rel=1e-9, abs=1e-9)
        for f in FUELS:
            assert 0.0 <= plan.allocation[f] <= consumption[f] + 1e-12


def test_emissions_scenario_dominates_random():
    rng = random.Random(59)
    for _ in range(500):
        econ, consumption, energy = random_case(rng)
        plan_a = build_plan(energy, consumption, econ, "A")
        plan_b = build_plan(energy, consumption, econ, "B")
        assert plan_b.s_em >= plan_a.s_em - 1e-6 * max(1.0, abs(plan_a.s_em))


def test_label_permutation_symmetry():
    rng = random.Random(61)
    perm = {"coal": "oil", "oil": "natural_gas", "natural_gas": "coal"}
    for _ in range(100):
        prices, props, pellet_price, wlhv, pellet_ef, consumption, energy = random_raw_case(rng)
        econ = build_economics(prices, props, pellet_price, wlhv, pellet_ef)
        econ_p = build_economics(
            {perm[f]: prices[f] for f in FUELS},
            {perm[f]: props[f] for f in FUELS},
            pellet_price, wlhv, pellet_ef,
        )
        plan = build_plan(energy, consumption, econ, "A")
        plan_p = build_plan(energy, {perm[f]: consumption[f] for f in FUELS}, econ_p, "A")
        for f in FUELS:
            assert plan_p.allocation[perm[f]] == pytest.approx(
                plan.allocation[f], rel=1e-9, abs=1e-9
            )
        assert plan_p.s_ec == pytest.approx(plan.s_ec, rel=1e-9, abs=1e-6)
        assert plan_p.s_em == pytest.approx(plan.s_em, rel=1e-9, abs=1e-6)


def test_replaced_fractions():
    econ = average_econ()
    plan = build_plan(70.0, {"oil": 60.0, "natural_gas": 40.0, "coal": 0.0}, econ, "A")
    assert plan.replaced_fraction["oil"] == pytest.approx(1.0)
    assert plan.replaced_fraction["natural_gas"] == pytest.approx(10.0 / 40.0)
    assert plan.replaced_fraction["coal"] == 0.0
    assert plan.replaced_fraction_overall == pytest.approx(70.0 / 100.0)
