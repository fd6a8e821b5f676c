import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from agripellet.dataio import DataError, ModelConfig
from agripellet.pipeline import run_pipeline
from agripellet.pricing import msp_columns
from conftest import cost_row, make_dataset, make_profile, msp_row, random_break_even_inputs
from oracles import (BreakEvenInputs, depreciation, evaluate_country, npv, salvage_value,
                     solve_msp_bisection)


def break_even_price(inputs):
    """The break-even price of one plant, $/t."""
    return msp_row(inputs)["msp_usd_per_t"]


@pytest.fixture
def reference_inputs():
    """Unit-index plant, zero discounting and tax: the hand-solvable anchor."""
    capex = cost_row()["capex_usd"]
    return BreakEvenInputs(
        capex=capex,
        opex=2_540_000.0,
        q=40_080.0,
        n=20,
        r=0.0,
        tr=0.0,
        salvage_rate=0.10,
        tfc=capex / 1.2,
    )


def test_depreciation_reference(reference_inputs):
    assert salvage_value(reference_inputs) == pytest.approx(545_000.0, abs=1.0)
    assert depreciation(reference_inputs) == pytest.approx(245_250.0, abs=1.0)


def test_depreciation_full_salvage(reference_inputs):
    # salvage_rate must stay below 1; at the largest value below it almost
    # nothing is left to depreciate
    inputs = reference_inputs._replace(salvage_rate=math.nextafter(1.0, 0.0))
    assert depreciation(inputs) == pytest.approx(0.0, abs=1e-9)


def test_depreciation_one_year_no_salvage(reference_inputs):
    inputs = reference_inputs._replace(n=1, salvage_rate=0.0)
    assert depreciation(inputs) == inputs.tfc


def test_npv_closed_form_at_zero_price(reference_inputs):
    expected = (-reference_inputs.n * reference_inputs.opex
                + salvage_value(reference_inputs) - reference_inputs.capex)
    assert npv(0.0, reference_inputs) == pytest.approx(expected, rel=1e-12)


def test_npv_strictly_increasing_in_price():
    rng = random.Random(17)
    for _ in range(50):
        inputs = random_break_even_inputs(rng)
        p = rng.uniform(0, 500)
        assert npv(p + 1.0, inputs) > npv(p, inputs)


def test_reference_msp_anchor(reference_inputs):
    result = msp_row(reference_inputs)
    assert result["msp_usd_per_t"] == pytest.approx(70.85, abs=0.01)
    assert abs(result["npv_at_msp_usd"]) <= 0.01


def test_msp_zero_when_base_npv_is_zero(reference_inputs):
    # no OPEX and a CAPEX equal to the tax shield plus salvage: NPV(0) = 0
    free = reference_inputs._replace(opex=0.0, tr=0.3, capex=0.0)
    inputs = free._replace(capex=npv(0.0, free))
    assert npv(0.0, inputs) == pytest.approx(0.0, abs=1e-6)
    assert break_even_price(inputs) == pytest.approx(0.0, abs=1e-9)


def test_world_average_plant_anchor():
    # world-average plant costs and representative financial rates
    inputs = BreakEvenInputs(
        capex=5_327_862.0,
        opex=3_585_823.0,
        q=40_080.0,
        n=20,
        r=0.08,
        tr=0.25,
        salvage_rate=0.10,
        tfc=5_327_862.0 / 1.2,
    )
    result = msp_row(inputs, weighted_lhv=16.0)
    assert result["msp_usd_per_t"] == pytest.approx(106.0, abs=5.0)
    assert result["msp_usd_per_tj"] == pytest.approx(6_600.0, abs=350.0)


def test_annual_trace_shape_and_discounting():
    rng = random.Random(19)
    inputs = random_break_even_inputs(rng)
    year = msp_row(inputs)
    cash_flow = year["cash_flow_usd_per_y"]
    assert cash_flow == year["revenue_usd_per_y"] - inputs.opex - year["tax_usd_per_y"]
    terminal = salvage_value(inputs) * (1.0 + inputs.r) ** -inputs.n
    closed = year["annuity_factor"] * cash_flow + terminal - inputs.capex
    assert closed == pytest.approx(year["npv_at_msp_usd"], abs=1e-6)
    assert npv(year["msp_usd_per_t"], inputs) == pytest.approx(closed, abs=1e-6)


def test_negative_tax_in_loss_years():
    # at r = 0 and a depreciable base above the capital outlay, the break-even
    # year's cash flow (capex - salvage) / n is below its depreciation, a loss
    inputs = BreakEvenInputs(capex=4e6, opex=2e6, q=40_080.0, n=20, r=0.0, tr=0.3,
                             salvage_rate=0.1, tfc=5e6)
    assert msp_row(inputs)["tax_usd_per_y"] < 0.0  # symmetric tax shield, no clamping


def test_closed_form_and_bisection_agree_sample():
    rng = random.Random(101)
    for _ in range(100):
        inputs = random_break_even_inputs(rng)
        closed = break_even_price(inputs)
        iterative = solve_msp_bisection(inputs)
        assert abs(closed - iterative) <= 0.01
        assert abs(npv(closed, inputs)) <= 0.01
        assert abs(npv(iterative, inputs)) <= 0.01


def test_msp_monotone_responses():
    rng = random.Random(29)
    for _ in range(100):
        inputs = random_break_even_inputs(rng)
        base = break_even_price(inputs)
        assert break_even_price(inputs._replace(opex=inputs.opex * 1.2)) >= base
        assert break_even_price(inputs._replace(capex=inputs.capex * 1.2)) >= base
        assert break_even_price(inputs._replace(r=inputs.r + 0.05)) >= base
        assert break_even_price(inputs._replace(q=inputs.q * 1.5)) <= base


def test_msp_scales_with_costs():
    rng = random.Random(31)
    for _ in range(50):
        inputs = random_break_even_inputs(rng)
        k = rng.uniform(0.1, 8.0)
        scaled = inputs._replace(capex=k * inputs.capex, opex=k * inputs.opex,
                         tfc=k * inputs.tfc)
        assert break_even_price(scaled) == pytest.approx(
            k * break_even_price(inputs), rel=1e-9
        )


def test_tax_neutral_at_zero_discount_when_fully_depreciated():
    """With r = 0 and the whole capital outlay depreciable (tfc = capex), the
    break-even price makes total taxable income zero, so it cannot depend on
    the tax rate."""
    base = BreakEvenInputs(capex=6_540_000.0, opex=2_540_000.0, q=40_080.0, n=20,
                       r=0.0, tr=0.0, salvage_rate=0.10, tfc=6_540_000.0)
    msp0 = break_even_price(base)
    for tr in (0.1, 0.25, 0.4, 0.6, 0.9):
        year = msp_row(base._replace(tr=tr))
        assert year["msp_usd_per_t"] == pytest.approx(msp0, rel=1e-6)
        # and total taxable income over the horizon really is zero
        revenue = year["revenue_usd_per_y"]
        taxable = base.n * (revenue - base.opex - depreciation(base))
        assert taxable == pytest.approx(0.0, abs=1.0)


def test_tax_raises_msp_when_capital_exceeds_depreciable_base(reference_inputs):
    """The working-capital and start-up slice of CAPEX (capex - tfc) is never
    depreciated, so taxable income at break-even stays positive and a higher
    tax rate pushes the break-even price up, even at r = 0."""
    msp0 = break_even_price(reference_inputs)
    msp_taxed = break_even_price(reference_inputs._replace(tr=0.3))
    assert msp_taxed > msp0 * (1.0 + 1e-4)


def test_tax_rate_one_rejected():
    # a tax rate of 1 leaves no after-tax revenue to break even on: the table
    # check rejects it when the dataset is built, before the solver sees it
    with pytest.raises(DataError) as raised:
        make_dataset([make_profile(), make_profile(name="Taxland", tax_rate=1.0)])
    assert raised.value.problems == [
        "countries column 'tax_rate' row 1 ('Taxland'): must be in [0, 1), got 1.0"]
    make_dataset([make_profile(tax_rate=0.9999999999999999)])  # the largest rate below 1


@pytest.mark.parametrize("r", [5e-324, 1e-17, 1e-12, 1e-7])
def test_tiny_discount_rate_solves(reference_inputs, r):
    # 1 + r rounds to 1.0 below r = 1.1e-16; the annuity must not collapse to 0
    inputs = reference_inputs._replace(r=r)
    result = msp_row(inputs)
    discounted = sum((1.0 + r) ** -t for t in range(1, inputs.n + 1))
    assert result["annuity_factor"] == pytest.approx(discounted, rel=1e-9)
    assert abs(npv(result["msp_usd_per_t"], inputs)) <= 0.01
    assert result["msp_usd_per_t"] == pytest.approx(break_even_price(inputs._replace(r=0.0)), rel=1e-5)


def test_salvage_rate_one_rejected(reference_inputs):
    # ModelConfig holds the solver's salvage rate in [0, 1), as the reference's inputs do
    with pytest.raises(DataError, match=r"salvage_rate: must be in \[0, 1\), got 1.0"):
        ModelConfig(salvage_rate=1.0)
    with pytest.raises(DataError, match="salvage_rate"):
        reference_inputs._replace(salvage_rate=1.0)


def test_bisection_bracket_guard(reference_inputs):
    # an OPEX of 1e12 $/y puts the root near 2.5e7 $/t, above the oracle's bracket
    inputs = reference_inputs._replace(opex=1e12)
    assert break_even_price(inputs) > 1e6
    with pytest.raises(DataError, match="bracket"):
        solve_msp_bisection(inputs)


def test_long_horizon_solves_in_constant_time(reference_inputs):
    # the horizon enters through the annuity factor alone, so 1e9 years cost
    # what 20 do; the MSP tends to the perpetuity's (no depreciation, salvage
    # or annuity tail left at 1e9 years and r = 8%)
    inputs = reference_inputs._replace(n=10**9, r=0.08, tr=0.25)
    start = time.perf_counter()
    result = msp_row(inputs)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"solve took {elapsed:.3f}s"
    perpetuity = (inputs.opex + inputs.r * inputs.capex / (1.0 - inputs.tr)) / inputs.q
    assert result["msp_usd_per_t"] == pytest.approx(perpetuity, rel=1e-9)
    assert result["annuity_factor"] == pytest.approx(1.0 / inputs.r, rel=1e-12)
    assert abs(result["npv_at_msp_usd"]) <= 0.01


def test_slope_below_float_range_gives_infinity(reference_inputs):
    # NPV's slope in price, annuity * (1 - tax_rate) * q, rounds to 0.0 at a
    # 5e-324 t/y plant when the other two factors multiply to less than 0.5:
    # the price is infinite, a non-finite value the pipeline rejects
    inputs = reference_inputs._replace(q=5e-324, n=1, r=0.14, tr=0.6)
    assert msp_row(inputs)["msp_usd_per_t"] == math.inf


def test_slope_beyond_float_range_solves(dataset):
    # at a 1e308 t/y plant the slope overflows to infinity, but the price,
    # about 1e-301 $/t, is a float: it is the exact inversion's, not 0.0
    cfg = dataset.config._replace(plant_capacity=1e308)
    result = run_pipeline(dataset._replace(config=cfg), "msp", ["Albania"])
    v = {name: col[0] for name, col in result.columns.items()}
    inputs = BreakEvenInputs(capex=v["capex_usd"], opex=v["opex_usd_per_y"],
                             q=cfg.plant_capacity, n=cfg.horizon_years, r=v["discount_rate"],
                             tr=v["tax_rate"], salvage_rate=cfg.salvage_rate, tfc=v["tfc_usd"])
    assert 0.0 < v["msp_usd_per_t"] == pytest.approx(float(exact_msp(inputs)), rel=1e-9)
    assert abs(v["npv_at_msp_usd"]) <= 1e-9 * v["capex_usd"]


def test_horizon_beyond_float_rejected(reference_inputs):
    # the annuity factor needs float(n) exact; 10**400 cannot even be a float
    with pytest.raises(DataError, match=r"n: must be in \[1, 9007199254740992\]"):
        reference_inputs._replace(n=10**400)


def test_zero_rate_solves_up_to_largest_exact_horizon(reference_inputs):
    # float(n) is exact up to 2**53, so the zero-rate annuity factor n is too
    result = msp_row(reference_inputs._replace(n=2**53))
    assert math.isfinite(result["msp_usd_per_t"]) and result["annuity_factor"] == 2**53
    with pytest.raises(DataError, match=r"n: must be in \[1, 9007199254740992\], "
                                        r"got 9007199254740993"):
        reference_inputs._replace(n=2**53 + 1)


def exact_msp(inputs: BreakEvenInputs) -> Fraction:
    """The closed form's affine inversion evaluated in exact rationals."""
    r, tr, q = Fraction(inputs.r), Fraction(inputs.tr), Fraction(inputs.q)
    a = sum((1 + r) ** -t for t in range(1, inputs.n + 1))
    salvage = Fraction(inputs.salvage_rate) * Fraction(inputs.tfc)
    dep = (Fraction(inputs.tfc) - salvage) / inputs.n
    terminal = salvage * (1 + r) ** -inputs.n
    slope = a * (1 - tr) * q
    intercept = a * (-(1 - tr) * Fraction(inputs.opex) + tr * dep) + terminal \
        - Fraction(inputs.capex)
    return -intercept / slope


@pytest.mark.parametrize("tax_rate", [1 - 1e-9, 1 - 1e-12, math.nextafter(1.0, 0.0)])
def test_tax_rate_near_one_solves(dataset, tax_rate):
    # the MSP grows like 1/(1 - tax_rate) but stays the exact inversion's
    row = dataset.countries["country"].index("Afghanistan")
    tax_rates = list(dataset.countries["tax_rate"])
    tax_rates[row] = tax_rate
    dataset = dataset._replace(countries={**dataset.countries, "tax_rate": tuple(tax_rates)})
    v = evaluate_country(dataset, row, "msp").values
    assert v["tax_rate"] == tax_rate
    cfg = dataset.config
    inputs = BreakEvenInputs(capex=v["capex_usd"], opex=v["opex_usd_per_y"],
                             q=cfg.plant_capacity, n=cfg.horizon_years, r=v["discount_rate"],
                             tr=tax_rate, salvage_rate=cfg.salvage_rate, tfc=v["tfc_usd"])
    assert math.isfinite(v["msp_usd_per_t"]) and math.isfinite(v["npv_at_msp_usd"])
    assert v["msp_usd_per_t"] == pytest.approx(float(exact_msp(inputs)), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(plant_capacity=st.floats(1e3, 1e6),
       horizon_years=st.integers(1, 200) | st.integers(1, 10**9),
       salvage_rate=st.floats(0.0, 0.99),
       tfc_capex_ratio=st.floats(0.01, 1.0),
       r=st.floats(0.0, 1.0),
       tr=st.floats(0.0, 0.9))
def test_generated_configs_solve(plant_capacity, horizon_years, salvage_rate,
                                 tfc_capex_ratio, r, tr):
    cfg = ModelConfig(plant_capacity=plant_capacity, horizon_years=horizon_years,
                      salvage_rate=salvage_rate, tfc_capex_ratio=tfc_capex_ratio)
    capex = cost_row()["capex_usd"]
    inputs = BreakEvenInputs(capex=capex, opex=2_540_000.0, q=cfg.plant_capacity,
                             n=cfg.horizon_years, r=r, tr=tr,
                             salvage_rate=cfg.salvage_rate,
                             tfc=capex * cfg.tfc_capex_ratio)
    result = msp_row(inputs)
    assert math.isfinite(result["msp_usd_per_t"]) and math.isfinite(result["npv_at_msp_usd"])
    if inputs.n <= 200:
        assert abs(result["msp_usd_per_t"] - solve_msp_bisection(inputs)) <= 0.01


MSP_INPUTS = ("capex_usd", "opex_usd_per_y", "discount_rate", "tax_rate", "tfc_usd",
              "weighted_lhv_mj_per_kg")
# few rates, so that rows share them; 0.0 and 1e-9 take _annuity's two special branches
RATE_POOL = (0.0, 1e-9, 1e-7, 0.05, 0.08, 0.3, 1.0)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.0, 5e7), st.floats(0.0, 2e7),
                               st.sampled_from(RATE_POOL), st.floats(0.0, 0.9),
                               st.floats(0.0, 5e7), st.none() | st.floats(1.0, 20.0)),
                     max_size=12),
       q=st.floats(1e3, 1e6), n=st.integers(1, 60), salvage_rate=st.floats(0.0, 0.99))
@example(rows=[], q=40_080.0, n=20, salvage_rate=0.1)
def test_msp_columns_rows_match_each_row_alone(rows, q, n, salvage_rate):
    """Each row of ``msp_columns`` over many rows is, bit for bit, what it gives
    for that row alone; rows that share a rate share the annuity factor, at rate
    0 the horizon itself; the NPV at each break-even price is zero to the cent;
    no rows give seven empty columns."""
    columns = {key: [row[i] for row in rows] for i, key in enumerate(MSP_INPUTS)}
    solved = msp_columns(columns, q, n, salvage_rate)
    assert len(solved) == 7 and all(len(col) == len(rows) for col in solved.values())
    for i, row in enumerate(rows):
        alone = msp_columns({key: [value] for key, value in zip(MSP_INPUTS, row)},
                            q, n, salvage_rate)
        assert {name: repr(col[i]) for name, col in solved.items()} == {
            name: repr(col[0]) for name, col in alone.items()}, row
    annuity_by_rate = {}
    for r, annuity, npv in zip(columns["discount_rate"], solved["annuity_factor"],
                               solved["npv_at_msp_usd"]):
        assert repr(annuity_by_rate.setdefault(r, annuity)) == repr(annuity), r
        if r == 0:
            assert annuity == n
        assert abs(npv) <= 0.01, r
