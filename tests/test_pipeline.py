import random

import pytest

import agripellet.pipeline as pipeline_mod
from agripellet.dataio import CROPS, DataError, FUELS
from agripellet.pipeline import (
    GrowthResult,
    evaluate_country,
    run_pipeline,
    yoy_growth,
)
from agripellet.reporting import (
    REPORT_COLUMNS,
    global_totals,
    table_records,
    table_rows,
)
from conftest import make_dataset, make_profile, synthetic_market_profiles


def test_full_pipeline_clean_on_bundled_data(dataset):
    result = run_pipeline(dataset)
    assert result.errors == ()
    assert len(result.reports) == 178
    names = [r.country for r in result.reports]
    assert names == sorted(names)


def test_global_totals_are_exact_sums(dataset):
    result = run_pipeline(dataset)
    g = result.global_report
    assert g.total_cr_final == sum(r.assessment.cr_final for r in result.reports)
    assert g.total_pellet_energy == sum(r.energy.pellet_energy for r in result.reports)
    assert g.total_s_ec == sum(r.plan.s_ec for r in result.reports if r.plan)
    assert g.total_s_em == sum(r.plan.s_em for r in result.reports if r.plan)


def test_single_country_dataset_matches_its_report():
    rng = random.Random(71)
    ds = make_dataset(synthetic_market_profiles(rng, 1))
    result = run_pipeline(ds)
    (report,) = result.reports
    g = result.global_report
    assert g.total_cr_final == report.assessment.cr_final
    assert g.total_pellet_energy == report.energy.pellet_energy
    assert g.total_s_ec == report.plan.s_ec
    assert g.replaced_fraction_overall == pytest.approx(
        report.plan.replaced_fraction_overall
    )


def test_country_filter(dataset):
    result = run_pipeline(dataset, countries=["Brazil", "Canada"])
    assert [r.country for r in result.reports] == ["Brazil", "Canada"]
    with pytest.raises(DataError, match="unknown countries"):
        run_pipeline(dataset, countries=["Atlantis"])


def test_one_bad_country_does_not_abort(monkeypatch):
    rng = random.Random(73)
    profiles = synthetic_market_profiles(rng, 5)
    ds = make_dataset(profiles)
    real_resolve = pipeline_mod.resolve

    def failing_resolve(dataset, country, name):
        if country.name == "Mkt02":
            raise DataError(f"injected failure resolving {name}")
        return real_resolve(dataset, country, name)

    monkeypatch.setattr(pipeline_mod, "resolve", failing_resolve)
    result = run_pipeline(ds)
    assert [name for name, _ in result.errors] == ["Mkt02"]
    assert "injected failure" in result.errors[0][1]
    assert len(result.reports) == 4
    assert result.global_report.countries_failed == 1


def test_field_missing_everywhere_fails_cleanly():
    a = make_profile(name="A", production={"maize": 1e6}, prices={})
    b = make_profile(name="B", production={"wheat": 1e6}, prices={})
    ds = make_dataset([a, b])
    result = run_pipeline(ds, through="plan")
    assert len(result.errors) == 2
    assert all("price_coal" in msg for _, msg in result.errors)
    # the residue stage still works on the same dataset
    assess = run_pipeline(ds, through="assess")
    assert assess.errors == ()


def test_evaluation_is_deterministic(dataset):
    first = run_pipeline(dataset)
    second = run_pipeline(dataset)
    assert table_rows(REPORT_COLUMNS, first) == table_rows(REPORT_COLUMNS, second)
    assert table_records(REPORT_COLUMNS, first) == table_records(REPORT_COLUMNS, second)
    assert global_totals(first) == global_totals(second)


def test_non_finite_global_total_raises():
    # each country's consumption is finite, their sum is not
    ds = make_dataset([make_profile(name=n, consumption={"coal": 1e308}) for n in "AB"])
    with pytest.raises(DataError, match="non-finite global total total_fossil_consumption"):
        run_pipeline(ds, through="assess")


def test_zero_residue_country_gets_no_plan():
    p = make_profile(name="NoCrops", prices={"coal": 100.0, "oil": 500.0,
                                             "natural_gas": 400.0},
                     consumption={"coal": 1e4, "oil": 1e4, "natural_gas": 1e4})
    ds = make_dataset([p])
    result = run_pipeline(ds)
    (report,) = result.reports
    assert report.energy.pellet_energy == 0.0
    assert report.plan is None
    assert report.msp is not None  # plant economics do not need residues
    assert result.global_report.rank_first_counts == {f: 0 for f in FUELS}


def test_provenance_tags_cover_resolved_fields(dataset):
    countries = {c.name: c for c in dataset.countries}
    report = evaluate_country(dataset, countries["Afghanistan"])
    for c in CROPS:
        assert report.provenance[f"dmr_{c}"] == "world-average"
    assert report.provenance["pli_labor"] == "country"
    assert report.provenance["discount_rate"] == "continent"
    assert report.provenance["price_coal"] == "continent"
    assert set(report.resolved) == set(report.provenance)


def test_report_schema_is_stable(dataset):
    full = table_rows(REPORT_COLUMNS, run_pipeline(dataset))
    subset = table_rows(REPORT_COLUMNS, run_pipeline(dataset, countries=["Brazil"]))
    assert full[0] == subset[0] == list(REPORT_COLUMNS)
    assert len(full) == 179  # header + 178 countries
    assert len(subset) == 2


# ---------------------------------------------------------------------------
# year-on-year growth

def test_growth_simple_pair():
    result = yoy_growth([(2020, 100.0), (2021, 150.0)])
    assert result.average == pytest.approx(0.5)
    assert result.pairs[0].growth == pytest.approx(0.5)


def test_growth_constant_series():
    result = yoy_growth([(2012, 5.0), (2013, 5.0), (2014, 5.0)])
    assert result.average == 0.0


def test_growth_constant_rate_round_trip():
    # a series built from a constant 79.2%/y growth rate returns that average
    values = [(2012, 120_000.0)]
    for year in range(2013, 2023):
        values.append((year, values[-1][1] * 1.792))
    result = yoy_growth(values)
    assert isinstance(result, GrowthResult)
    assert len(result.pairs) == 10
    assert result.average == pytest.approx(0.792, rel=1e-12)


def test_growth_zero_base_years_skipped():
    result = yoy_growth([(2019, 0.0), (2020, 10.0), (2021, 20.0)])
    assert result.pairs[0].growth is None
    assert result.average == pytest.approx(1.0)


def test_growth_errors():
    with pytest.raises(DataError, match="at least two"):
        yoy_growth([(2020, 1.0)])
    with pytest.raises(DataError, match="consecutive"):
        yoy_growth([(2018, 1.0), (2020, 2.0)])
    with pytest.raises(DataError, match="duplicate"):
        yoy_growth([(2020, 1.0), (2020, 2.0)])
    with pytest.raises(DataError, match="zero"):
        yoy_growth([(2020, 0.0), (2021, 0.0)])