"""Metamorphic invariants of the whole pipeline: changes to the input whose
effect on every output is known exactly, so that no reference code is needed.

Covered on the bundled data: power-of-two scaling of the amount columns in
scenarios A, B and C (carbon tax 50), shuffled rows of ``countries.csv``,
renamed copies of every country and a one-to-one renaming of the continents;
and on the bundled data with overflowing cells, through each stage, a run on
any subset of the countries.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from agripellet.cli import main
from agripellet.dataio import FIELDS
from agripellet.pipeline import run_pipeline
from conftest import assert_same_files, copy_data, country_rows, make_table

# the countries.csv columns with no fallback: production, livestock, bioenergy
# and fuel consumption amounts, which every stage uses linearly or as a ratio
AMOUNT_KEYS = tuple(f.key for f in FIELDS if f.fallback is None)


def scale(value, factor):
    return value * factor if type(value) is float else value


def reprs(values) -> list:
    """Each value's repr, which tells apart every two floats that differ in a bit."""
    return list(map(repr, values))


@pytest.mark.parametrize("k", range(-4, 5))
@pytest.mark.parametrize("scenario, carbon_tax, scaled_columns", [
    ("A", 0.0, 19), ("B", 0.0, 18), ("C", 50.0, 19)])
def test_amounts_scaled_by_a_power_of_two(dataset, scenario, carbon_tax, scaled_columns, k):
    """Scaling by 2^k is exact in binary floating point, so each output column
    and each global total is either unchanged or exactly 2^k times its value,
    and the same countries fail with the same messages."""
    assert len(AMOUNT_KEYS) == 13
    factor = 2.0 ** k
    base = dataset._replace(config=dataset.config._replace(scenario=scenario,
                                                           carbon_tax=carbon_tax))
    table = {**base.countries, **{key: tuple(scale(v, factor) for v in base.countries[key])
                                  for key in AMOUNT_KEYS}}
    original = run_pipeline(base)
    result = run_pipeline(base._replace(countries=table))
    assert result.errors == original.errors
    assert list(result.columns) == list(original.columns)
    scaled = []
    for name, values in original.columns.items():
        got = reprs(result.columns[name])
        if got != reprs(values):
            assert got == reprs(scale(v, factor) for v in values), name
            scaled.append(name)
    assert len(scaled) == (scaled_columns if k else 0), scaled
    for name, value in original.global_report._asdict().items():
        got = getattr(result.global_report, name)
        assert repr(got) in (repr(value), repr(scale(value, factor))), name


def test_report_is_byte_identical_for_shuffled_rows(data_dir, tmp_path):
    # each fallback mean is exact, so the order of the countries' rows changes no bit
    shuffled = copy_data(tmp_path / "shuffled")
    text = (data_dir / "countries.csv").read_text(encoding="utf-8")
    header, *lines = text.splitlines(True)
    random.Random(0).shuffle(lines)
    assert header + "".join(lines) != text
    (shuffled / "countries.csv").write_text(header + "".join(lines), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["report", "--data", str(data_dir), "--out", str(out1)]) == 0
    assert main(["report", "--data", str(shuffled), "--out", str(out2)]) == 0
    assert len(assert_same_files(out1, out2)) == 6


@pytest.mark.parametrize("k", [2, 3, 7, 20])
def test_renamed_copies_get_the_original_rows(dataset, k):
    """k renamed copies of the bundled countries fall back to the same means,
    so each copy's rows are the original's, every value bit for bit."""
    rows = country_rows(dataset.countries)
    copies = make_table([r._replace(name=f"{r.name} #{i}") for i in range(k) for r in rows])
    original = run_pipeline(dataset).columns
    result = run_pipeline(dataset._replace(countries=copies)).columns
    names = result["country"]
    for i in range(k):
        index = [names.index(f"{name} #{i}") for name in original["country"]]
        for column, values in original.items():
            if column != "country":
                assert reprs(map(result[column].__getitem__, index)) == reprs(values), (i, column)


CONTINENTS = ("Africa", "Asia", "Europe", "North America", "Oceania", "South America")


@settings(max_examples=20, deadline=None)
@given(st.permutations(CONTINENTS), st.sampled_from(["", " (renamed)"]))
def test_relabelled_continents_change_only_the_continent_column(dataset, labels, suffix):
    """A continent's means depend on its members, not on its label: a
    one-to-one renaming (the labels permuted, or new ones) changes only the
    ``continent`` column, and no global total."""
    assert set(dataset.countries["continent"]) == set(CONTINENTS)
    renamed = dict(zip(CONTINENTS, (label + suffix for label in labels)))
    table = {**dataset.countries,
             "continent": tuple(map(renamed.__getitem__, dataset.countries["continent"]))}
    original = run_pipeline(dataset)
    result = run_pipeline(dataset._replace(countries=table))
    assert result.errors == original.errors
    assert repr(result.global_report) == repr(original.global_report)
    assert list(result.columns) == list(original.columns)
    for name, values in original.columns.items():
        if name == "continent":
            assert result.columns[name] == list(map(renamed.__getitem__, values))
        else:
            assert reprs(result.columns[name]) == reprs(values), name


# Brazil fails at assess, Chad at msp; Peru's price fails every South American
# country without its own oil price at plan, through the continent mean
OVERFLOWING = {"Brazil": "prod_rice", "Chad": "pli_construction", "Peru": "price_oil"}


@pytest.fixture(scope="module")
def overflowing(dataset):
    rows = [r._replace(values={**r.values, OVERFLOWING[r.name]: 1.7e308})
            if r.name in OVERFLOWING else r for r in country_rows(dataset.countries)]
    return dataset._replace(countries=make_table(rows))


@pytest.mark.parametrize("through", ["assess", "msp", "plan"])
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_subset_gets_the_full_runs_rows_and_errors(overflowing, through, data):
    """The means come from the whole table, so ``countries=`` any subset gives
    exactly the full run's rows for those countries, and their errors."""
    full = run_pipeline(overflowing, through)
    failed = [name for name, _ in full.errors]
    assert len(failed) == {"assess": 1, "msp": 2, "plan": 10}[through]
    subset = data.draw(st.sets(st.sampled_from(failed)
                               | st.sampled_from(overflowing.countries["country"]), max_size=12))
    result = run_pipeline(overflowing, through, countries=subset)
    assert result.errors == tuple(error for error in full.errors if error[0] in subset)
    rows = [row for row, name in enumerate(full.columns["country"]) if name in subset]
    assert list(result.columns) == list(full.columns)
    for name, values in full.columns.items():
        assert reprs(result.columns[name]) == reprs(map(values.__getitem__, rows)), name
