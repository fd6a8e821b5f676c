"""Metamorphic invariants of the whole pipeline: changes to the input whose
effect on every output is known exactly, so that no reference code is needed.

Covered on the bundled data, on three renamed copies of it in one table, on
a dense synthetic table and on copies with edge values in a few numeric cells
(as ``test_fuzz`` writes them): power-of-two scaling of the amount columns in
scenarios A, B and C (carbon tax 50).  Covered on the bundled data: shuffled
rows of ``countries.csv``, its empty cells written as ``" - "``, renamed
copies of every country and a one-to-one renaming of the continents; and on
the bundled data with overflowing cells, through each stage, a run on any
subset of the countries.  Covered on the bundled data and the dense table: a
``sum`` that compensates its rounding, as Python 3.12's does.
"""

import builtins
import csv
import io
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from agripellet.cli import main
from agripellet.dataio import FIELDS, DataError, load_dataset
from agripellet.pipeline import run_pipeline
from conftest import assert_same_files, copy_data, country_rows, make_table
from oracles import left_sum
from test_fuzz import EDGE_VALUES, cell_mutation, write_mutated_copy

# the countries.csv columns with no fallback: production, livestock, bioenergy
# and fuel consumption amounts, which every stage uses linearly or as a ratio
AMOUNT_KEYS = tuple(f.key for f in FIELDS if f.fallback is None)


def scale(value, factor):
    return value * factor if type(value) is float else value


def reprs(values) -> list:
    """Each value's repr, which tells apart every two floats that differ in a bit."""
    return list(map(repr, values))


# the number of output columns that scale with the amounts, per dataset and
# scenario: a column that is 0.0 in every row stays 0.0.  On the bundled data
# no plan allocates coal or leaves pellets unused in A and C, and B allocates
# only coal; the dense table's plans allocate all three fuels, and leave
# pellets unused in A and C
BUNDLED_SCALED = {"A": 19, "B": 18, "C": 19}
SCALED_COLUMNS = {"dataset": BUNDLED_SCALED, "renamed_copies": BUNDLED_SCALED,
                  "dense_dataset": {"A": 21, "B": 20, "C": 21}}


def scaled_columns(dataset, scenario: str, carbon_tax: float, k: int) -> list:
    """The output columns that scaling the amounts by 2^k changes, run in
    ``scenario`` at ``carbon_tax``.  Scaling by 2^k is exact in binary floating
    point, so each output column and each global total is either unchanged or
    exactly 2^k times its value, and the same countries fail with the same
    messages."""
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
    for name, value in original.global_report._asdict().items():
        got = getattr(result.global_report, name)
        assert repr(got) in (repr(value), repr(scale(value, factor))), name
    return scaled


SCENARIOS = [("A", 0.0), ("B", 0.0), ("C", 50.0)]


@pytest.mark.parametrize("k", range(-4, 5))
@pytest.mark.parametrize("scenario, carbon_tax", SCENARIOS)
@pytest.mark.parametrize("source", ["dataset", "renamed_copies", "dense_dataset"])
def test_amounts_scaled_by_a_power_of_two(request, source, scenario, carbon_tax, k):
    assert len(AMOUNT_KEYS) == 13
    scaled = scaled_columns(request.getfixturevalue(source), scenario, carbon_tax, k)
    assert len(scaled) == (SCALED_COLUMNS[source][scenario] if k else 0), scaled


# test_fuzz's edge values that can load and neither overflow nor go subnormal
# at 2^±4: 5e-324, 1e308 and 1.7e308 would, and the other five fail every load
SCALABLE_EDGES = tuple(v for v in EDGE_VALUES
                       if v not in ("5e-324", "1e308", "1.7e308", "1_0", "nan", "inf",
                                    "\u0661", "-1"))


@settings(max_examples=30, deadline=None)
@given(st.lists(cell_mutation(True, SCALABLE_EDGES), min_size=1, max_size=4),
       st.sampled_from(SCENARIOS), st.sampled_from([k for k in range(-4, 5) if k]))
def test_amounts_of_a_fuzzed_copy_scaled_by_a_power_of_two(mutations, scenario, k):
    """The invariant of ``test_amounts_scaled_by_a_power_of_two`` on copies of
    the bundled data with a few numeric cells set to edge values, as
    ``test_fuzz`` writes them; a copy that does not load is not an example."""
    with tempfile.TemporaryDirectory() as tmp:
        write_mutated_copy(Path(tmp) / "data", mutations)
        try:
            dataset = load_dataset(Path(tmp) / "data")
        except DataError:
            assume(False)
    scaled = scaled_columns(dataset, *scenario, k)
    energy = run_pipeline(dataset, "assess").columns["pellet_energy_tj"]
    assert ("pellet_energy_tj" in scaled) == any(energy), scaled


def shuffled_rows(text: str) -> str:
    header, *lines = text.splitlines(True)
    random.Random(0).shuffle(lines)
    return header + "".join(lines)


def dashed_gaps(text: str) -> str:
    """Each empty cell written as ``" - "``; csv, as a cell may be quoted."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert sum(cell == "" for row in rows for cell in row) == 1601
    out = io.StringIO(newline="")
    csv.writer(out).writerows([header] + [[cell or " - " for cell in row] for row in rows])
    return out.getvalue()


@pytest.mark.parametrize("rewrite", [shuffled_rows, dashed_gaps])
def test_report_is_byte_identical_for_an_equivalent_countries_csv(rewrite, data_dir, tmp_path):
    # each fallback mean is exact, so the order of the countries' rows changes
    # no bit; a gap written as " - " reads as an empty cell does
    text = (data_dir / "countries.csv").read_text(encoding="utf-8")
    rewritten = rewrite(text)
    assert rewritten != text
    copy = copy_data(tmp_path / "copy")
    (copy / "countries.csv").write_text(rewritten, encoding="utf-8", newline="")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["report", "--data", str(data_dir), "--out", str(out1)]) == 0
    assert main(["report", "--data", str(copy), "--out", str(out2)]) == 0
    assert len(assert_same_files(out1, out2)) == 6


_plain_sum = builtins.sum


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 adds floats, with Neumaier's compensation (the
    plain result once the compensation is not finite); other values as
    ``sum`` adds them on this interpreter."""
    values = list(values)
    if not (type(start) in (int, float) and values and all(type(v) is float for v in values)):
        return _plain_sum(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_outputs_do_not_depend_on_how_sum_adds_floats(data_dir, tmp_path, monkeypatch):
    """Every float sum of the package adds left to right from 0.0, so
    ``report``, ``sweep`` and ``yoy`` on the bundled data write the same bytes
    whether ``sum`` adds plainly (Python 3.10 and 3.11) or compensates (since
    3.12); so does ``yoy`` on 19 growth rates near 0.1, whose compensated sum
    differs from the plain one in its last bit."""
    assert compensated_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)  # the patch tells
    growth = tmp_path / "growth.csv"
    growth.write_text("year,value\n" + "".join(f"{2000 + k},{10 * 1.1 ** k!r}\n"
                                                for k in range(20)), encoding="utf-8")
    commands = (("report", "--data", data_dir), ("sweep", "--data", data_dir),
                ("yoy", data_dir / "production_series.csv"), ("yoy", growth))

    def run(out):
        for i, command in enumerate(commands):
            assert main([*map(str, command), "--out", str(out / str(i))]) == 0
        return {path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    plain = run(tmp_path / "plain")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = run(tmp_path / "compensated")
    monkeypatch.undo()
    assert len(plain) == 13 and plain.keys() == compensated.keys()
    assert [name for name in plain if plain[name] != compensated[name]] == []


@pytest.mark.parametrize("scenario", ["A", "B", "C"])
def test_dense_columns_do_not_depend_on_how_sum_adds_floats(dense_dataset, scenario,
                                                           monkeypatch):
    """The same on the dense table, whose plans split their pellet energy
    among fuels more often than the bundled countries' do."""
    config = dense_dataset.config._replace(scenario=scenario, carbon_tax=50.0)
    dataset = dense_dataset._replace(config=config)
    plain = run_pipeline(dataset)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = run_pipeline(dataset)
    monkeypatch.undo()
    assert [name for name, col in plain.columns.items()
            if reprs(col) != reprs(compensated.columns[name])] == []
    assert repr(plain.global_report) == repr(compensated.global_report)


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
