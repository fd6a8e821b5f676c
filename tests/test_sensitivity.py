import csv
import random

import pytest
from hypothesis import given, settings, strategies as st

from agripellet.dataio import CROPS, FUELS, DataError, ModelConfig
from agripellet.pipeline import STAGE_PLAN, run_pipeline
from agripellet.replacement import plan_columns
from agripellet.reporting import write_sweep_files
from agripellet.sensitivity import sweep
from conftest import country_rows, make_dataset, make_profile, synthetic_market_profiles
from oracles import reports


def replanned_grid(dataset, multipliers, pellet_prices):
    """Oracle: rebuild every evaluated country's scenario A plan in every cell.

    This is the per-cell loop that ``sweep``'s closed form replaced; it maps
    ``(multiplier, price)`` to global ``(s_ec, s_em)``.
    """
    scenario_a = dataset._replace(config=dataset.config._replace(scenario="A"))
    baseline = run_pipeline(scenario_a, through=STAGE_PLAN)
    consumption = {c.name: {f: c.values[f"cons_{f}"] or 0.0 for f in FUELS}
                   for c in country_rows(dataset.countries)}
    planned = [r.values for r in reports(baseline)
               if r.values["weighted_lhv_mj_per_kg"] is not None]
    columns = {name: [v[name] for v in planned]
               for name in ("weighted_lhv_mj_per_kg", "pellet_energy_tj")}
    cons = {f: [consumption[v["country"]][f] for v in planned] for f in FUELS}
    grid = {}
    for m in multipliers:
        for p in pellet_prices:
            plans, _ = plan_columns(
                {**columns, **{f"price_{f}": [v[f"price_{f}"] * m for v in planned]
                               for f in FUELS},
                 "msp_usd_per_t": [p] * len(planned)},
                cons, dataset.fuel_properties, dataset.pellet_ef, "A", 0.0)
            total_ec = total_em = 0.0
            for s_ec, s_em in zip(plans["s_ec_usd_per_y"], plans["s_em_kgco2e_per_y"]):
                total_ec += s_ec
                total_em += s_em
            grid[(m, p)] = (total_ec, total_em)
    return grid


def with_axes(dataset, multipliers, pellet_prices):
    """The dataset with its config's sweep axes replaced."""
    return dataset._replace(config=dataset.config._replace(
        fossil_multipliers=multipliers, pellet_prices=pellet_prices))


def assert_matches_replanning(dataset, multipliers, pellet_prices):
    """s_ec within 1e-9 of the grid's largest |s_ec|, s_em within 1e-9 relative.

    The tolerance is scale-relative: near the zero crossing of a row the
    pointwise relative error of either sum is far above machine precision.
    """
    grid = sweep(with_axes(dataset, multipliers, pellet_prices))
    oracle = replanned_grid(dataset, multipliers, pellet_prices)
    assert set(grid.s_ec) == set(oracle) == set(grid.s_em)
    scale = max(abs(ec) for ec, _ in oracle.values())
    for cell, (ec, em) in oracle.items():
        assert abs(grid.s_ec[cell] - ec) <= 1e-9 * scale, cell
        assert abs(grid.s_em[cell] - em) <= 1e-9 * abs(em), cell


@pytest.fixture(scope="module")
def market_dataset():
    rng = random.Random(83)
    return make_dataset(synthetic_market_profiles(rng, 8))


def test_grid_covers_every_cell(market_dataset):
    grid = sweep(market_dataset)
    assert len(grid.fossil_multipliers) == 7
    assert len(grid.pellet_prices) == 11
    assert len(grid.s_ec) == 77
    assert len(grid.s_em) == 77
    for m in grid.fossil_multipliers:
        for p in grid.pellet_prices:
            assert (m, p) in grid.s_ec


def test_default_fossil_axis_spans_quarters(market_dataset):
    grid = sweep(market_dataset)
    assert grid.fossil_multipliers == (0.25, 0.50, 0.75, 1.00, 1.25, 1.50, 1.75)


def test_savings_monotone_in_pellet_price(market_dataset):
    grid = sweep(market_dataset)
    for m in grid.fossil_multipliers:
        row = [grid.s_ec[(m, p)] for p in grid.pellet_prices]
        assert all(a >= b - 1e-6 for a, b in zip(row, row[1:]))


def test_savings_monotone_in_fossil_multiplier(market_dataset):
    grid = sweep(market_dataset)
    for p in grid.pellet_prices:
        col = [grid.s_ec[(m, p)] for m in grid.fossil_multipliers]
        assert all(b >= a - 1e-6 for a, b in zip(col, col[1:]))


def test_at_most_one_sign_change_per_row(market_dataset):
    grid = sweep(market_dataset)
    for m in grid.fossil_multipliers:
        signs = [grid.s_ec[(m, p)] >= 0 for p in grid.pellet_prices]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes <= 1


def test_zero_margin_cell_is_zero():
    # one rice-only country whose pellet price matches every fuel's energy cost
    level = 10_000.0  # $/TJ
    profile = make_profile(
        name="Flat",
        production={"rice": 1e7},
        prices={"coal": level * 23.9e-3, "oil": level * 42.0e-3,
                "natural_gas": level * 42.0e-3},
        consumption={"coal": 1e5, "oil": 1e5, "natural_gas": 1e5},
    )
    ds = make_dataset([profile])
    pellet_price = level * 14.6e-3  # rice-only pool -> weighted LHV 14.6
    grid = sweep(with_axes(ds, (1.0,), (pellet_price,)))
    assert grid.s_ec[(1.0, pellet_price)] == pytest.approx(0.0, abs=1e-4)


def test_custom_axes_respected(market_dataset):
    grid = sweep(with_axes(market_dataset, (0.5, 1.0), (50.0, 100.0, 150.0)))
    assert grid.fossil_multipliers == (0.5, 1.0)
    assert grid.pellet_prices == (50.0, 100.0, 150.0)
    assert len(grid.s_ec) == 6


def test_baseline_uses_break_even_prices(market_dataset):
    grid = sweep(market_dataset)
    # the baseline is a real evaluation, not a grid cell
    baseline = grid.baseline.global_report
    assert baseline.s_ec_usd_per_y not in {v for v in grid.s_ec.values()}
    assert baseline.s_em_kgco2e_per_y != 0.0


def read_csv(path) -> list:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def test_csv_row_builders(market_dataset, tmp_path):
    grid = sweep(market_dataset)
    wide_path, long_path = write_sweep_files(tmp_path, grid, "csv")
    wide = read_csv(wide_path)
    assert len(wide) == 1 + 7
    assert len(wide[0]) == 1 + 11
    assert wide[0][0] == "fossil_multiplier"
    long = read_csv(long_path)
    assert len(long) == 1 + 77
    assert long[0] == ["fossil_multiplier", "pellet_price_usd_t",
                       "s_ec_usd_per_y", "s_em_kgco2e_per_y"]


@pytest.mark.parametrize("multipliers, prices", [
    ((1.0, 1.0000001), (10.0, 10.000001)),  # :g prints 6 significant digits
    ((0.25, 1.75), (10.0, 200.0)),           # :g is exact: the label keeps it
    ((1 + 2**-52, 3), (0.1 + 0.2, 1e-7)),
])
def test_sweep_labels_read_back_as_the_grid(market_dataset, tmp_path, multipliers, prices):
    grid = sweep(with_axes(market_dataset, multipliers, prices))
    wide_path, long_path = write_sweep_files(tmp_path, grid, "csv")
    wide = read_csv(wide_path)
    header = wide[0]
    assert len(set(header)) == len(header)
    assert [float(name.removeprefix("pellet_").removesuffix("_usd_t"))
            for name in header[1:]] == list(prices)
    assert [float(row[0]) for row in wide[1:]] == list(multipliers)
    long = read_csv(long_path)
    assert [(float(m), float(p)) for m, p, *_ in long[1:]] \
        == [(m, p) for m in multipliers for p in prices]
    if multipliers == (0.25, 1.75):
        assert header[1:] == ["pellet_10_usd_t", "pellet_200_usd_t"]
        assert [row[0] for row in wide[1:]] == ["0.25", "1.75"]


def test_countries_without_residue_contribute_nothing():
    bare = make_profile(name="Bare", consumption={"coal": 1e5, "oil": 1e5, "natural_gas": 1e5},
                        prices={"coal": 100.0, "oil": 500.0, "natural_gas": 400.0})
    ds = make_dataset([bare])
    grid = sweep(with_axes(ds, (1.0,), (50.0,)))
    assert grid.s_ec[(1.0, 50.0)] == 0.0
    assert grid.s_em[(1.0, 50.0)] == 0.0


def test_matches_replanning_on_bundled_data(dataset):
    cfg = dataset.config
    assert_matches_replanning(dataset, cfg.fossil_multipliers, cfg.pellet_prices)


def test_matches_replanning_on_fine_grid(dataset):
    # 25 x 40 stratified grid: one seeded value inside each equal-width bin
    rng = random.Random(1)

    def axis(lo, hi, count, digits):
        step = (hi - lo) / count
        return [round(lo + step * (i + rng.uniform(0.05, 0.95)), digits)
                for i in range(count)]

    assert_matches_replanning(dataset, axis(0.1, 1.9, 25, 4), axis(5.0, 200.0, 40, 2))


# Integer $/t prices keep any two fuel LCOEs either exactly equal (oil and
# natural gas share one heating value) or apart by far more than rounding.
_price = st.integers(1, 400).map(float)
_amount = st.sampled_from([None, 0.0]) | st.floats(1e2, 5e6)


@st.composite
def markets(draw):
    profiles = []
    for i in range(draw(st.integers(1, 4))):
        prices = {f: draw(_price) for f in FUELS}
        if draw(st.booleans()):
            prices["natural_gas"] = prices["oil"]  # tied on LCOE
        has_residue = draw(st.booleans())
        profiles.append(make_profile(
            name=f"C{i}",
            continent="KL"[i % 2],
            production={c: draw(_amount) for c in CROPS} if has_residue else None,
            pli=draw(st.floats(0.5, 2.0)),
            discount_rate=draw(st.floats(0.03, 0.15)),
            tax_rate=draw(st.floats(0.1, 0.4)),
            prices=prices,
            consumption={f: draw(_amount) for f in FUELS},
        ))
    return make_dataset(profiles)


@settings(max_examples=60, deadline=None)
@given(dataset=markets(),
       multipliers=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4, unique=True),
       pellet_prices=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=4, unique=True))
def test_matches_replanning_on_generated_markets(dataset, multipliers, pellet_prices):
    assert_matches_replanning(dataset, multipliers, pellet_prices)


@settings(max_examples=30, deadline=None)
@given(config=st.fixed_dictionaries(dict(  # the other fields keep their defaults
    plant_capacity=st.floats(1e3, 1e6),
    horizon_years=st.integers(1, 10**9),
    salvage_rate=st.floats(0.0, 0.99),
    tfc_capex_ratio=st.floats(0.01, 1.0),
    fossil_multipliers=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6, unique=True),
    pellet_prices=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=6, unique=True),
)).map(lambda fields: ModelConfig(**fields)))
def test_monotone_on_bundled_data_for_generated_configs(dataset, config):
    grid = sweep(dataset._replace(config=config))
    assert not grid.baseline.errors
    ms, ps = sorted(grid.fossil_multipliers), sorted(grid.pellet_prices)
    for m in ms:
        row = [grid.s_ec[(m, p)] for p in ps]
        assert all(a >= b for a, b in zip(row, row[1:])), f"row {m}"
    for p in ps:
        col = [grid.s_ec[(m, p)] for m in ms]
        assert all(a <= b for a, b in zip(col, col[1:])), f"column {p}"


def test_failed_country_is_left_out(market_dataset):
    # a construction index of 1e308 overflows the plant's capital cost
    broken = make_profile(name="Broken", production={"rice": 1e7},
                          pli={"labor": 1.0, "raw_material": 1.0,
                               "construction": 1e308, "electricity": 1.0})
    ds = make_dataset(country_rows(market_dataset.countries) + [broken])
    grid = sweep(ds)
    assert [name for name, _ in grid.baseline.errors] == ["Broken"]
    assert grid.s_ec == sweep(market_dataset).s_ec


def test_country_subset(market_dataset):
    # every synthetic field is the country's own, so the subset's inputs do
    # not depend on the other countries
    grid = sweep(market_dataset, countries=["Mkt00", "Mkt03"])
    assert [r.country for r in reports(grid.baseline)] == ["Mkt00", "Mkt03"]
    rows = country_rows(market_dataset.countries)
    pair = make_dataset([rows[0], rows[3]])
    assert grid.s_ec == sweep(pair).s_ec != sweep(market_dataset).s_ec


def test_overflowing_cell_rejected():
    def dataset(oil_price):
        return make_dataset([make_profile(
            production={"wheat": 1e6}, prices={"coal": 100.0, "oil": oil_price,
                                               "natural_gas": 400.0},
            consumption={"oil": 1e9})])
    (report,) = reports(run_pipeline(dataset(500.0)))
    # oil takes every pellet TJ; price it so the baseline is finite and 1.75x is not
    oil_price = 1.2e308 / report.values["alloc_oil_tj"] * 42.0e-3
    grid = sweep(with_axes(dataset(oil_price), (1.0,), (10.0,)))
    assert grid.s_ec[(1.0, 10.0)] > 1e308
    with pytest.raises(DataError, match=r"non-finite sweep cell s_ec\(m=1.75, p=10\)") as exc:
        sweep(with_axes(dataset(oil_price), (1.0, 1.75), (10.0,)))
    assert "inf" not in str(exc.value)  # the message names the cell, not its value
