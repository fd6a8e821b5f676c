import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import agripellet.pipeline as pipeline_mod
import oracles
from agripellet import costs, dataio, energy, pricing, replacement, residues
from agripellet.dataio import (CONTINENT, CROPS, FIELDS, FUELS, DataError, FuelProperties,
                               default_fuel_properties, load_dataset)
from agripellet.pipeline import run_pipeline
from agripellet.reporting import (
    _SAME_AS,
    ASSESS_COLUMNS,
    MSP_COLUMNS,
    PLOT_COLUMNS,
    RECOP_COLUMNS,
    REPORT_COLUMNS,
    write_report_files,
    write_table,
)
from agripellet.sensitivity import sweep
from conftest import (DATA_DIR, RESOLVABLE_FIELDS, assert_stage_agrees_with_report, country_rows,
                      make_dataset, make_profile, make_table, synthetic_market_profiles)
from oracles import evaluate_country, left_sum, reports, table_records, table_rows


def test_full_pipeline_clean_on_bundled_data(dataset):
    result = run_pipeline(dataset)
    assert result.errors == ()
    names = [r.country for r in reports(result)]
    assert len(names) == 178
    assert names == sorted(names)


def test_global_totals_are_exact_sums(dataset):
    result = run_pipeline(dataset)
    g = result.global_report
    for key in ("cr_final_t", "pellet_energy_tj", "s_ec_usd_per_y", "s_em_kgco2e_per_y"):
        assert getattr(g, key) == left_sum(r.values[key] for r in reports(result)
                                           if r.values.get(key) is not None)


def test_single_country_dataset_matches_its_report():
    rng = random.Random(71)
    ds = make_dataset(synthetic_market_profiles(rng, 1))
    result = run_pipeline(ds)
    (report,) = reports(result)
    g = result.global_report
    assert g.cr_final_t == report.values["cr_final_t"]
    assert g.pellet_energy_tj == report.values["pellet_energy_tj"]
    assert g.s_ec_usd_per_y == report.values["s_ec_usd_per_y"]
    assert g.replaced_fraction_overall == pytest.approx(report.values["replaced_overall_frac"])


def test_country_filter(dataset):
    result = run_pipeline(dataset, countries=["Brazil", "Canada"])
    assert [r.country for r in reports(result)] == ["Brazil", "Canada"]
    with pytest.raises(DataError, match="unknown countries"):
        run_pipeline(dataset, countries=["Atlantis"])


def test_a_str_of_countries_is_not_read_as_letters(dataset):
    """One name given as a str, to the pipeline or the sweep, is a TypeError
    naming the argument, not a DataError listing its letters as countries."""
    for run in (run_pipeline, sweep):
        with pytest.raises(TypeError, match="^countries: expected a collection of country "
                                            "names, got 'Brazil'$"):
            run(dataset, countries="Brazil")


def injecting(monkeypatch, failure) -> None:
    """Fail each empty cell at which ``failure(countries, row, name)`` gives a
    message, in ``pipeline.resolve_column`` and the oracle's ``scan_resolve`` alike."""
    real_column, real_resolve = pipeline_mod.resolve_column, oracles.scan_resolve

    def message(dataset, row, name):
        countries = dataset.countries
        return countries[name][row] is None and failure(countries, row, name)

    def failing_column(dataset, name, rows):
        values, tiers, failures = real_column(dataset, name, rows)
        for pos, row in enumerate(rows):
            if problem := message(dataset, row, name):
                values[pos] = tiers[pos] = None
                failures[pos] = problem
        return values, tiers, failures

    def failing_resolve(dataset, row, name):
        if problem := message(dataset, row, name):
            raise DataError(problem)
        return real_resolve(dataset, row, name)

    monkeypatch.setattr(pipeline_mod, "resolve_column", failing_column)
    monkeypatch.setattr(oracles, "scan_resolve", failing_resolve)


def test_one_bad_country_does_not_abort(monkeypatch):
    rng = random.Random(73)
    profiles = synthetic_market_profiles(rng, 5)
    ds = make_dataset(profiles)
    injecting(monkeypatch, lambda countries, row, name: countries["country"][row] == "Mkt02"
              and f"injected failure resolving {name}")
    result = run_pipeline(ds)
    assert [name for name, _ in result.errors] == ["Mkt02"]
    assert "injected failure" in result.errors[0][1]
    assert len(reports(result)) == 4
    assert result.global_report.countries_failed == 1


def test_field_missing_everywhere_fails_cleanly():
    a = make_profile(name="A", production={"maize": 1e6}, prices={})
    b = make_profile(name="B", production={"wheat": 1e6}, prices={})
    ds = make_dataset([a, b])
    result = run_pipeline(ds, through="plan")
    assert len(result.errors) == 2
    assert all("price_coal" in msg for _, msg in result.errors)
    # the residue and plant stages still work on the same dataset: a price is a plan input only
    for through in ("assess", "msp"):
        result = run_pipeline(ds, through=through)
        assert result.errors == () and result.columns["country"] == ["A", "B"]


def test_unknown_stage_raises(dataset):
    with pytest.raises(ValueError, match="^unknown stage 'bogus'$"):
        run_pipeline(dataset, through="bogus")


def test_evaluation_is_deterministic(dataset):
    first = run_pipeline(dataset)
    second = run_pipeline(dataset)
    assert table_rows(REPORT_COLUMNS, first) == table_rows(REPORT_COLUMNS, second)
    assert table_records(REPORT_COLUMNS, first) == table_records(REPORT_COLUMNS, second)
    assert first.global_report == second.global_report


def test_non_finite_global_total_raises():
    # each country's consumption is finite, their sum is not
    ds = make_dataset([make_profile(name=n, consumption={"coal": 1e308}) for n in "AB"])
    with pytest.raises(DataError, match="non-finite global total fossil_consumption_tj$"):
        run_pipeline(ds, through="assess")


def test_zero_residue_country_gets_no_plan():
    p = make_profile(name="NoCrops", prices={"coal": 100.0, "oil": 500.0,
                                             "natural_gas": 400.0},
                     consumption={"coal": 1e4, "oil": 1e4, "natural_gas": 1e4})
    ds = make_dataset([p])
    result = run_pipeline(ds)
    (report,) = reports(result)
    assert report.values["pellet_energy_tj"] == 0.0
    assert "rank_1" not in report.values  # no plan columns
    assert report.values["msp_usd_per_t"] > 0  # plant economics do not need residues
    assert result.global_report.rank_first_counts == {f: 0 for f in FUELS}


def test_provenance_tags_cover_resolved_fields(dataset):
    report = evaluate_country(dataset, dataset.countries["country"].index("Afghanistan"))
    for c in CROPS:
        assert report.values[f"src_dmr_{c}"] == "world-average"
    assert report.values["src_pli_labor"] == "country"
    assert report.values["src_discount_rate"] == "continent"
    assert report.values["src_price_coal"] == "continent"
    assert all(f"src_{name}" in report.values for name in RESOLVABLE_FIELDS)


def test_every_output_column_is_a_record_key(dataset):
    """A full plan-stage record has a key for every column of every output, and
    no other key: ``values.get`` would turn a misspelt column into an empty one."""
    columns = {name for cols in (ASSESS_COLUMNS, MSP_COLUMNS, RECOP_COLUMNS, REPORT_COLUMNS,
                                 *PLOT_COLUMNS.values())
               for name in cols}
    columns = {_SAME_AS.get(name, name) for name in columns}
    planned = [r for r in reports(run_pipeline(dataset)) if "rank_1" in r.values]
    assert len(planned) == 120
    for report in planned:
        assert set(report.values) == columns


# Each stage's column functions, in run order, with the tuple naming their columns.
COLUMN_FUNCTIONS = {
    "assess": ((residues, "assess_columns", residues.RESIDUE_COLUMNS),
               (energy, "energy_columns", energy.ENERGY_COLUMNS)),
    "msp": ((costs, "cost_columns", costs.COST_COLUMNS),
            (pricing, "msp_columns", pricing.BREAK_EVEN_COLUMNS)),
    "plan": ((replacement, "plan_columns", replacement.PLAN_COLUMNS),),
}


@pytest.mark.parametrize("through", list(COLUMN_FUNCTIONS))
def test_a_run_orders_its_columns_by_the_stage_tuples(dataset, monkeypatch, through):
    """A library caller reads ``result.columns`` in this order: country and
    continent, each stage's column tuples in run order, then ``X, src_X`` of
    each resolved field in ``FIELDS`` order.  Each column function returns
    exactly its tuple's keys, in order."""
    stages = list(COLUMN_FUNCTIONS)[:list(COLUMN_FUNCTIONS).index(through) + 1]
    functions = [spec for stage in stages for spec in COLUMN_FUNCTIONS[stage]]
    returned = {}
    for module, name, _ in functions:
        def spy(*args, function=getattr(module, name), name=name):
            result = function(*args)
            returned[name] = list(result[0] if type(result) is tuple else result)
            return result
        monkeypatch.setattr(module, name, spy)
    result = run_pipeline(dataset, through)
    assert returned == {name: list(columns) for _, name, columns in functions}
    resolved = [c for f in FIELDS if f.stage in stages for c in (f.key, f"src_{f.key}")]
    assert list(result.columns) == ["country", "continent",
                                    *(c for _, _, columns in functions for c in columns),
                                    *resolved]


def test_report_schema_is_stable(dataset):
    full = table_rows(REPORT_COLUMNS, run_pipeline(dataset))
    subset = table_rows(REPORT_COLUMNS, run_pipeline(dataset, countries=["Brazil"]))
    assert full[0] == subset[0] == list(REPORT_COLUMNS)
    assert len(full) == 179  # header + 178 countries
    assert len(subset) == 2


# ---------------------------------------------------------------------------
# column-by-column evaluation against the per-country reference in ``oracles``

def result_reprs(records, result) -> tuple:
    """Names, errors and every value by ``repr``, keys in record order."""
    return ([(r.country, [(k, repr(v)) for k, v in r.values.items()]) for r in records],
            result.errors, repr(result.global_report))


def assert_matches_oracle(dataset, through):
    try:
        oracle = oracles.run_pipeline(dataset, through)
    except DataError as exc:  # a global total that overflows
        with pytest.raises(DataError) as raised:
            run_pipeline(dataset, through)
        assert str(raised.value) == str(exc)
        return None
    expected = result_reprs(oracle.reports, oracle)
    result = run_pipeline(dataset, through)
    assert result_reprs(reports(result), result) == expected
    return expected


def sparse_copy(profiles, seed):
    """The rows with a seeded third of their cells emptied."""
    rng = random.Random(seed)
    return [p._replace(values={k: None if rng.random() < 0.33 else v
                               for k, v in p.values.items()}) for p in profiles]


def overflowing(profiles, keys):
    """Country i gets 1e308 or 1.7e308 in one of the fields ``keys``, a different one each
    (fields whose bound admits both, so that only derived values overflow)."""
    return [p._replace(values={**p.values, keys[i % len(keys)]: (1e308, 1.7e308)[i % 2]})
            for i, p in enumerate(profiles)]


def out_of_range(profiles):
    """Library-built countries that the loader would reject: a PLI <= 0, a
    discount rate > 1, a tax rate of 1, and some at once."""
    changes = ({"pli_labor": 0.0}, {"pli_construction": -1.0, "pli_electricity": 0.0},
               {"discount_rate": 1.5}, {"discount_rate": 2.0, "tax_rate": 1.0},
               {"pli_raw_material": -0.5, "discount_rate": 3.0})
    return [p._replace(values={**p.values, **changes[i % len(changes)]}) if i % 2 else p
            for i, p in enumerate(profiles)]


# fields whose bound admits 1e308 and 1.7e308, the consumptions left out so that the
# global totals stay finite: a country fails on a derived value that overflows
OVERFLOW_KEYS = [f.key for f in FIELDS if f.bound.hi == math.inf and not f.key.startswith("cons_")]


def oracle_datasets(bundled):
    rng = random.Random(97)
    markets = synthetic_market_profiles(rng, 24)
    no_prices = [make_profile(name=n, production={"maize": 1e6}, prices={}) for n in "AB"]
    bundled_rows = country_rows(bundled.countries)
    return {
        "bundled": bundled,
        "markets": make_dataset(markets),
        "sparse": bundled._replace(countries=make_table(sparse_copy(bundled_rows, 5))),
        "no-prices": make_dataset(no_prices),
        # every stage fails countries on a derived value that overflows
        "overflowing": bundled._replace(countries=make_table(overflowing(bundled_rows,
                                                                         OVERFLOW_KEYS))),
        "overflowing-amounts": make_dataset(overflowing(
            markets, [f.key for f in FIELDS if not (f.fallback or f.key.startswith("cons_"))]
            + ["pli_construction"])),  # two overflowing consumptions overflow the global total
        # oil has the highest emission intensity: its score alone overflows at C@1.2e303
        "oil-intensive": make_dataset(markets)._replace(fuel_properties={
            **default_fuel_properties(), "oil": FuelProperties(42.0, 9000.0)}),
    }


SCENARIOS = {"A": ("A", 0.0), "B": ("B", 0.0), "C@50": ("C", 50), "C@1.2e303": ("C", 1.2e303),
             "C@1e305": ("C", 1e305)}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("through", ["assess", "msp", "plan"])
def test_columns_match_the_per_country_oracle(dataset, through, scenario):
    name, tax = SCENARIOS[scenario]
    failed = set()
    for ds in oracle_datasets(dataset).values():
        ds = ds._replace(config=ds.config._replace(scenario=name, carbon_tax=tax))
        expected = assert_matches_oracle(ds, through)
        if expected:
            failed.update(message.split(" for ")[0] for _, message in expected[1])
    if through == "plan" and scenario == "C@1e305":
        assert "non-finite score_coal" in failed  # the scores are checked, best first
    if through == "plan" and scenario == "C@1.2e303":
        assert "non-finite score_oil" in failed


@pytest.mark.parametrize("rates, cells", [(True, 20), (False, 10)])
def test_out_of_range_table_rejected_when_built(rates, cells):
    """The countries that the stages used to fail one at a time are rejected
    with their table when it is built: one DataError names every bad cell by
    column and row, in column order, whether or not any country has rates."""
    rows = out_of_range(synthetic_market_profiles(random.Random(97), 24))
    if not rates:
        rows = [p._replace(values={**p.values, "discount_rate": None, "tax_rate": None})
                for p in rows]
    with pytest.raises(DataError) as raised:
        make_dataset(rows)
    expected = [f"countries column {f.key!r} row {row} ({p.name!r}): "
                f"must be {f.bound.text}, got {p.values[f.key]!r}"
                for f in FIELDS for row, p in enumerate(rows)
                if p.values[f.key] is not None
                and not f.bound.lo <= p.values[f.key] <= f.bound.hi]
    assert raised.value.problems == expected and len(expected) == cells


MARKETS = synthetic_market_profiles(random.Random(73), 6)  # 3 continents of 2 countries


@settings(max_examples=60, deadline=None)
@given(injected=st.sets(st.tuples(st.integers(0, len(MARKETS) - 1),
                                  st.sampled_from(RESOLVABLE_FIELDS)), max_size=8),
       overflow_keys=st.lists(st.sampled_from(OVERFLOW_KEYS), min_size=len(MARKETS),
                              max_size=len(MARKETS)),
       overflowed=st.sets(st.integers(0, len(MARKETS) - 1), max_size=3))
def test_injected_resolve_failure_matches_the_oracle(injected, overflow_keys, overflowed):
    """Countries leave at the two drop points, a failing resolve and a
    non-finite number, as the per-country oracle fails them: each with its
    first failure, named by country.  The survivors' rows are the ones a run
    on the survivors alone gives.  Each injected cell is emptied, and its
    field fails to resolve at every empty cell of its continent, as an empty
    cell's fallback depends on field and continent alone."""
    failing = {(MARKETS[row].continent, name) for row, name in injected}
    injected = {(MARKETS[row].name, name) for row, name in injected}
    rows = [p if row not in overflowed else q
            for row, (p, q) in enumerate(zip(MARKETS, overflowing(MARKETS, overflow_keys)))]
    ds = make_dataset([p._replace(values={k: None if (p.name, k) in injected else v
                                          for k, v in p.values.items()}) for p in rows])

    def failure(countries, row, name):
        return ((countries["continent"][row], name) in failing
                and f"injected failure resolving {name} for {countries['country'][row]!r}")

    with pytest.MonkeyPatch.context() as monkeypatch:
        injecting(monkeypatch, failure)
        for through, fields in (("assess", 4), ("msp", 10), ("plan", 13)):
            expected = assert_matches_oracle(ds, through)
            if expected is None:  # a global total that overflows, raised alike
                continue
            failed = {name for name, _ in expected[1]}
            assert {name for name, key in injected if key in RESOLVABLE_FIELDS[:fields]} <= failed
            full = run_pipeline(ds, through)
            survivors = full.columns["country"]
            alone = run_pipeline(ds, through, countries=survivors)
            assert not alone.errors
            assert repr(alone.columns) == repr(full.columns)
            assert alone.global_report == full.global_report._replace(countries_failed=0)


def counting(monkeypatch) -> list:
    """The ``(field, failed countries)`` of each ``pipeline.resolve_column``
    call, as made."""
    real_column = pipeline_mod.resolve_column
    calls = []

    def counting_column(dataset, name, rows):
        values, tiers, failures = real_column(dataset, name, rows)
        calls.append((name, [dataset.countries["country"][rows[pos]] for pos in failures]))
        return values, tiers, failures

    monkeypatch.setattr(pipeline_mod, "resolve_column", counting_column)
    return calls


# the stages resolve the fields in RESOLVABLE_FIELDS order: 4 dry matters for
# assess, then 6 cost and finance inputs for msp, then 3 fuel prices for plan
@pytest.mark.parametrize("through, fields", [("assess", 4), ("msp", 10), ("plan", 13)])
def test_resolve_runs_once_per_field_and_continent(dataset, monkeypatch, through, fields):
    """A field's continent and world means are computed once per run, and only
    for a continent-tier field with an empty cell: a dry matter's fallback is
    its crop's default, and renamed copies add empty cells, not means."""
    calls = []
    means = dataio._means
    monkeypatch.setattr(dataio, "_means", lambda pairs: calls.append(1) or means(pairs))
    counts = []
    rows = country_rows(dataset.countries)
    continental = {f.key for f in FIELDS if f.fallback == CONTINENT}
    for copies in (1, 2, 3, 4):  # the bundled countries and renamed copies of them
        renamed = [c._replace(name=f"{c.name} #{i}") for i in range(1, copies) for c in rows]
        ds = dataset._replace(countries=make_table(rows + renamed))
        empty = {name for c in rows + renamed for name in RESOLVABLE_FIELDS[:fields]
                 if c.values[name] is None}
        calls.clear()
        result = run_pipeline(ds, through)
        assert not result.errors
        assert empty  # the bundled data has empty cells to resolve
        assert len(calls) == len(empty & continental)
        counts.append(len(calls))
    assert counts == [{"assess": 0, "msp": 2, "plan": 5}[through]] * 4


def test_a_field_no_country_reports_fails_each_country_by_name(dataset, monkeypatch):
    """A field no country reports fails each country that reads it with its
    own message, and the other fields, each resolved once, still resolve."""
    ds = dataset._replace(countries={**dataset.countries,
                                     "tax_rate": (None,) * len(dataset.countries["tax_rate"])})
    calls = counting(monkeypatch)
    result = run_pipeline(ds, "plan")
    names = sorted(ds.countries["country"])
    assert result.errors == tuple(
        (name, f"no country in the dataset has data for 'tax_rate' (needed by {name!r})")
        for name in names)
    assert result.columns["country"] == []  # no plan is made
    assert [name for name, _ in calls] == list(RESOLVABLE_FIELDS)  # each field once, in order
    assert {name: failed for name, failed in calls if failed} == {"tax_rate": names}


# ---------------------------------------------------------------------------
# the stage subcommands against report

STAGE_OUTPUTS = {"assess": ASSESS_COLUMNS, "msp": MSP_COLUMNS, "plan": RECOP_COLUMNS}


def assert_stages_agree_with_report(dataset) -> dict:
    """Write each stage's CSV and report's countries.csv for ``dataset``, as
    the ``assess``, ``msp``, ``recop`` and ``report`` subcommands do: every
    country that a stage fails, each later stage fails too, and every column
    a stage's CSV shares with countries.csv holds the same cells for the
    countries both keep.  Returns the number of shared columns by stage."""
    results = {stage: run_pipeline(dataset, stage) for stage in STAGE_OUTPUTS}
    shared, failed = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_report_files(out, results["plan"])
        for stage, result in results.items():
            names = {name for name, _ in result.errors}
            assert failed <= names, stage
            failed = names
            write_table(out / f"{stage}.csv", STAGE_OUTPUTS[stage], result)
            shared[stage] = assert_stage_agrees_with_report(out / f"{stage}.csv",
                                                            out / "countries.csv")
    return shared


def test_stages_agree_with_report_on_the_bundled_data(dataset):
    assert assert_stages_agree_with_report(dataset) == {"assess": 22, "msp": 24, "plan": 23}


@pytest.mark.parametrize("scenario", ["A", "C@50"])
def test_stages_agree_with_report_on_the_oracle_datasets(dataset, scenario):
    name, tax = SCENARIOS[scenario]
    for ds in oracle_datasets(dataset).values():
        assert_stages_agree_with_report(ds._replace(config=ds.config._replace(scenario=name,
                                                                              carbon_tax=tax)))


BUNDLED_ROWS = country_rows(load_dataset(DATA_DIR).countries)


@settings(max_examples=30, deadline=None)
@given(rows=st.sets(st.integers(0, len(BUNDLED_ROWS) - 1), min_size=1, max_size=12),
       seed=st.integers(0, 3), scenario=st.sampled_from(sorted(SCENARIOS)))
def test_stages_agree_with_report_on_subsets(dataset, rows, seed, scenario):
    """A few bundled countries, a seeded third of their cells emptied, as a
    dataset of their own: its fallback means, and the fields no country
    reports, are the subset's."""
    name, tax = SCENARIOS[scenario]
    subset = sparse_copy([BUNDLED_ROWS[row] for row in sorted(rows)], seed)
    ds = dataset._replace(countries=make_table(subset),
                          config=dataset.config._replace(scenario=name, carbon_tax=tax))
    assert_stages_agree_with_report(ds)
