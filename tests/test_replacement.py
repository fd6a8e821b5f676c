import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from agripellet.dataio import FUELS, FuelProperties, default_fuel_properties
from agripellet.replacement import PLAN_COLUMNS, emission_intensity, fuel_lcoe, plan_columns
from conftest import plan_row

PROPS = default_fuel_properties()

# the reported global-average energy costs in $/t
AVERAGE_PRICES = {
    "coal": 4_403.0 * 23.9e-3,       # -> 4,403 $/TJ
    "oil": 14_036.0 * 42.0e-3,       # -> 14,036 $/TJ
    "natural_gas": 13_563.0 * 42.0e-3,
}
# TJ per fuel
CONSUMPTION = {"oil": 60.0, "natural_gas": 50.0, "coal": 10.0}


def average_plan(scenario="A", pellet_energy=100.0, consumption=CONSUMPTION,
                 pellet_lcoe=6_600.0, weighted_lhv=16.0, carbon_tax=0.0):
    """One country's plan at the global-average energy costs, and its ranking;
    scenario A ranks oil, natural gas, coal there."""
    return plan_row(pellet_energy, consumption, AVERAGE_PRICES, PROPS,
                    pellet_lcoe, weighted_lhv, 151.0, scenario, carbon_tax)


def allocation(plan):
    return {f: plan[f"alloc_{f}_tj"] for f in FUELS}


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
    _, ranking = average_plan("A")
    assert [f for f, _ in ranking] == ["oil", "natural_gas", "coal"]
    scores = dict(ranking)
    assert scores["oil"] == pytest.approx(14_036.0 - 6_600.0, abs=0.5)
    assert scores["coal"] == pytest.approx(4_403.0 - 6_600.0, abs=0.5)


def test_scenario_c_zero_tax_equals_a():
    assert average_plan("C", carbon_tax=0.0)[1] == average_plan("A")[1]


def test_scenario_c_tax_can_flip_ranking():
    # a steep carbon price favors displacing coal despite its low market cost
    _, ranking = average_plan("C", carbon_tax=500.0)
    assert ranking[0][0] == "coal"


def test_scenario_b_ranking_with_default_factors():
    _, ranking = average_plan("B")
    assert [f for f, _ in ranking] == ["coal", "oil", "natural_gas"]
    scores = dict(ranking)
    assert scores["coal"] == pytest.approx(108_451.88284518828 - 9_437.5)
    assert scores["oil"] == pytest.approx(70_880.95238095238 - 9_437.5)
    assert scores["natural_gas"] == pytest.approx(50_333.333333333336 - 9_437.5)


def test_tie_break_is_canonical():
    props = {f: FuelProperties(20.0, 2000.0) for f in FUELS}
    prices = {f: 100.0 for f in FUELS}
    _, ranking = plan_row(100.0, CONSUMPTION, prices, props, 5_000.0, 16.0, 151.0, "A")
    assert [f for f, _ in ranking] == ["coal", "natural_gas", "oil"]


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        average_plan("Z")


def test_greedy_allocation_hand_example():
    plan, _ = average_plan(pellet_energy=100.0)
    assert allocation(plan) == {"oil": 60.0, "natural_gas": 40.0, "coal": 0.0}
    assert plan["unused_pellet_tj"] == 0.0


def test_allocation_zero_supply():
    plan, _ = average_plan(pellet_energy=0.0, consumption={f: 10.0 for f in FUELS})
    assert all(v == 0.0 for v in allocation(plan).values())
    assert plan["unused_pellet_tj"] == 0.0


def test_allocation_saturation():
    plan, _ = average_plan(pellet_energy=1000.0)
    assert allocation(plan) == CONSUMPTION
    assert plan["unused_pellet_tj"] == 880.0


def test_allocation_proceeds_at_negative_margin():
    plan, _ = average_plan(pellet_lcoe=20_000.0)  # pellets dearer than every fuel
    assert sum(allocation(plan).values()) == pytest.approx(100.0)
    assert plan["s_ec_usd_per_y"] < 0.0  # negative savings are reported, not clamped


def test_savings_oil_anchor():
    # 100 TJ all go to oil, the first-ranked fuel
    plan, _ = average_plan(consumption={"oil": 100.0, "natural_gas": 0.0, "coal": 0.0})
    assert allocation(plan) == {"oil": 100.0, "natural_gas": 0.0, "coal": 0.0}
    assert plan["s_ec_usd_per_y"] == pytest.approx(100.0 * (14_036.0 - 6_600.0), abs=50.0)


def test_savings_zero_allocation():
    plan, _ = average_plan(pellet_energy=0.0)
    assert (plan["s_ec_usd_per_y"], plan["s_em_kgco2e_per_y"]) == (0.0, 0.0)


def test_savings_coal_emissions_anchor():
    # scenario B ranks coal first, so 1 TJ all goes to coal
    plan, _ = average_plan("B", pellet_energy=1.0)
    assert allocation(plan) == {"coal": 1.0, "oil": 0.0, "natural_gas": 0.0}
    assert plan["s_em_kgco2e_per_y"] == pytest.approx(108_451.88284518828 - 9_437.5)


def random_raw_case(rng):
    prices = {f: rng.uniform(10.0, 900.0) for f in FUELS}
    props = {f: FuelProperties(rng.uniform(10.0, 50.0), rng.uniform(500.0, 4000.0))
             for f in FUELS}
    pellet_lcoe = rng.uniform(1_000.0, 35_000.0)  # $/TJ: about 20-400 $/t at 12-18 MJ/kg
    wlhv = rng.uniform(12.0, 18.0)
    pellet_ef = rng.uniform(50.0, 500.0)
    consumption = {f: rng.uniform(0.0, 1e5) for f in FUELS}
    energy = rng.uniform(0.0, 3e5)
    return prices, props, pellet_lcoe, wlhv, pellet_ef, consumption, energy


def random_plan(rng, scenarios):
    """A random country's plan in each scenario."""
    prices, props, pellet_lcoe, wlhv, pellet_ef, consumption, energy = random_raw_case(rng)
    plans = [plan_row(energy, consumption, prices, props, pellet_lcoe, wlhv, pellet_ef,
                      scenario)[0] for scenario in scenarios]
    return plans, consumption, energy


def test_conservation_and_bounds_random():
    rng = random.Random(57)
    for _ in range(500):
        (plan,), consumption, energy = random_plan(rng, "A")
        total = sum(allocation(plan).values()) + plan["unused_pellet_tj"]
        assert total == pytest.approx(energy, rel=1e-9, abs=1e-9)
        for f in FUELS:
            assert 0.0 <= plan[f"alloc_{f}_tj"] <= consumption[f] + 1e-12


def test_emissions_scenario_dominates_random():
    rng = random.Random(59)
    for _ in range(500):
        (plan_a, plan_b), _, _ = random_plan(rng, "AB")
        s_em_a = plan_a["s_em_kgco2e_per_y"]
        assert plan_b["s_em_kgco2e_per_y"] >= s_em_a - 1e-6 * max(1.0, abs(s_em_a))


def test_label_permutation_symmetry():
    rng = random.Random(61)
    perm = {"coal": "oil", "oil": "natural_gas", "natural_gas": "coal"}
    for _ in range(100):
        prices, props, pellet_lcoe, wlhv, pellet_ef, consumption, energy = random_raw_case(rng)
        plan, _ = plan_row(energy, consumption, prices, props, pellet_lcoe, wlhv, pellet_ef,
                           "A")
        plan_p, _ = plan_row(energy, {perm[f]: consumption[f] for f in FUELS},
                             {perm[f]: prices[f] for f in FUELS},
                             {perm[f]: props[f] for f in FUELS},
                             pellet_lcoe, wlhv, pellet_ef, "A")
        for f in FUELS:
            assert plan_p[f"alloc_{perm[f]}_tj"] == pytest.approx(
                plan[f"alloc_{f}_tj"], rel=1e-9, abs=1e-9
            )
        for key in ("s_ec_usd_per_y", "s_em_kgco2e_per_y"):
            assert plan_p[key] == pytest.approx(plan[key], rel=1e-9, abs=1e-6)


def test_replaced_fractions():
    plan, _ = average_plan(pellet_energy=70.0,
                           consumption={"oil": 60.0, "natural_gas": 40.0, "coal": 0.0})
    assert plan["replaced_oil_frac"] == pytest.approx(1.0)
    assert plan["replaced_natural_gas_frac"] == pytest.approx(10.0 / 40.0)
    assert plan["replaced_coal_frac"] == 0.0
    assert plan["replaced_overall_frac"] == pytest.approx(70.0 / 100.0)


# ---------------------------------------------------------------------------
# the column form against the plan computed one row at a time in ``oracles``

def edges(*values, lo=0.0, hi=1e6):
    """A few exact values (ties, zeros, values whose scores overflow) or any in [lo, hi]."""
    return st.one_of(st.sampled_from(values), st.floats(lo, hi))


ROW = {  # one country's plan inputs, each key a column
    "pellet_energy_tj": edges(0.0, -0.0, 1.0, 100.0, 1e308),
    "msp_usd_per_tj": edges(0.0, 6_600.0, 1e308, 1.7e308, math.inf),
    "weighted_lhv_mj_per_kg": edges(5e-324, 16.0, 42.0, lo=1e-3, hi=30.0),
    **{f"price_{f}": edges(0.0, -0.0, 100.0, 1e308, 1.7e308) for f in FUELS},
    **{f"cons_{f}": edges(0.0, -0.0, 10.0, 1e308) for f in FUELS},  # the loader reads -0
}
PROPERTIES = st.one_of(
    st.just(default_fuel_properties()),
    # one heating value and factor for every fuel: equal prices tie their scores
    st.builds(lambda lhv, ef: {f: FuelProperties(lhv, ef) for f in FUELS},
              edges(23.9, 42.0, lo=1.0, hi=50.0), edges(0.0, 2592.0, lo=0.0, hi=5000.0)),
    st.builds(lambda lhv, ef: {f: FuelProperties(h, e) for f, h, e in zip(FUELS, lhv, ef)},
              st.tuples(*[edges(5e-324, 23.9, 42.0, lo=1.0, hi=50.0)] * 3),
              st.tuples(*[edges(0.0, 2592.0, lo=0.0, hi=5000.0)] * 3)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fixed_dictionaries(ROW), max_size=12), PROPERTIES,
       edges(0.0, 151.0, lo=0.0, hi=1e4), st.sampled_from(["A", "B", "C"]),
       edges(0.0, 50.0, 1.2e303, 1e305, lo=0.0, hi=1e3))
def test_plan_columns_match_the_row_by_row_plan(rows, properties, pellet_ef, scenario, tax):
    columns = {key: [row[key] for row in rows] for key in ROW}
    consumption = {f: columns.pop(f"cons_{f}") for f in FUELS}
    args = columns, consumption, properties, pellet_ef, scenario, tax
    plan, ranked = plan_columns(*args)
    expected_plan, expected_ranked = oracles.plan_columns(*args)
    assert list(plan) == list(PLAN_COLUMNS)

    def reprs(cols):
        return [list(map(repr, col)) for col in cols]

    assert reprs(plan.values()) == reprs(expected_plan[name] for name in plan)
    assert reprs(ranked) == reprs(expected_ranked)
