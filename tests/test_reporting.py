"""The streamed writer against the reference writer in ``oracles``."""

import json
import math
import random
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agripellet import reporting
from agripellet.dataio import DataError
from agripellet.pipeline import PipelineResult, run_pipeline
from agripellet.sensitivity import sweep
from agripellet.yoy import yoy_growth

STAGES = {"assess": reporting.ASSESS_COLUMNS, "msp": reporting.MSP_COLUMNS,
          "recop": reporting.RECOP_COLUMNS}


@pytest.fixture(scope="module")
def bundled(dataset):
    return run_pipeline(dataset)


def write_outputs(writer, out: Path, result) -> None:
    """Every per-country file: the report set and each stage's table in both formats."""
    writer.write_report_files(out / "report", result)
    for stem, columns in STAGES.items():
        for fmt in ("csv", "json"):
            writer.write_table(out / f"{stem}.{fmt}", columns, result)


def files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def assert_same_files(write) -> dict:
    """``write(writer, out_dir)`` gives the same file set, byte for byte, with
    either writer; returns the streamed writer's files."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new", Path(tmp) / "old"
        write(reporting, new)
        write(oracles, old)
        written, expected = files(new), files(old)
    assert list(written) == list(expected)
    for name in written:
        assert written[name] == expected[name], name
    return written


def assert_matches_oracle(result) -> dict:
    """Every per-country file of ``result`` is written as the oracle writes it."""
    return assert_same_files(lambda writer, out: write_outputs(writer, out, result))


def with_rows(result, rows, names, errors=()):
    """A result holding ``result``'s rows ``rows``, in that order, named ``names``."""
    columns = {name: [col[row] for row in rows] for name, col in result.columns.items()}
    columns["country"] = list(names)
    return PipelineResult(columns, result.global_report, tuple(errors))


def copies(result, count: int, errors=()):
    """``count`` renamed copies of the result's rows, planned and plan-less in turn."""
    ranks = result.columns["rank_1"]
    planned = next(row for row, rank in enumerate(ranks) if rank is not None)
    planless = next(row for row, rank in enumerate(ranks) if rank is None)
    return with_rows(result, [(planned, planless)[i % 2] for i in range(count)],
                     [f"C{i:05d}" for i in range(count)], errors)


def edited(result, changes):
    """``result`` with row i's values replaced by ``changes[i]`` (column -> value)."""
    columns = dict(result.columns)
    for row, change in enumerate(changes):
        for name, value in change.items():
            columns[name] = [*columns[name][:row], value, *columns[name][row + 1:]]
    return result._replace(columns=columns)


names = st.text(st.one_of(st.sampled_from([",", '"', "\\", "\r", "\n", " ", "\u2028", "é", "€",
                                           "😀"]),
                          st.characters(blacklist_categories=("Cs",))),
                min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(names, min_size=1, max_size=4), st.lists(names, max_size=2))
def test_any_country_name_is_written_as_the_oracle_writes_it(bundled, countries, failed):
    errors = tuple((name, f"no data for {name!r}") for name in failed)
    base = copies(bundled, len(countries), errors)
    assert_matches_oracle(base._replace(columns={**base.columns, "country": countries}))


@pytest.mark.parametrize("count", [0, 1, reporting._BLOCK, reporting._BLOCK + 1,
                                   2 * reporting._BLOCK + 1])
def test_block_edges_match_the_oracle(bundled, count):
    written = assert_matches_oracle(copies(bundled, count, errors=[("Z", "failed")]))
    assert written["report/countries.csv"].count(b"\r\n") == 1 + count
    assert written["report/global.json"].count(b'\n{"country":"C') == count


# Column names that a printf-style record template or a key quoted by hand
# would write wrongly.
ODD_NAMES = ("100%", "%s", "%%d", 'say "hi"', "back\\slash", "naïve €", "tab\tand\u2028line")


def test_odd_column_names_are_written_as_json_dumps_writes_them(tmp_path):
    rng = random.Random(3)
    count = reporting._BLOCK + 1
    pools = ((0.5, -0.0, 1e308, None), ("%s", 'a "b"', "c\\d", "é", None))  # one kind each
    data = {name: [rng.choice(pools[i % 2]) for _ in range(count)]
            for i, name in enumerate(ODD_NAMES)}
    reporting._write_tables(data, ODD_NAMES, {tmp_path / "new.csv": ODD_NAMES},
                            tmp_path / "new.json", {"%s": "%d"}, "rows%", {"tail": [1]})
    records = [dict(zip(ODD_NAMES, row)) for row in zip(*data.values())]
    oracles.write_json(tmp_path / "old.json", {"%s": "%d", "rows%": records, "tail": [1]})
    oracles.write_csv(tmp_path / "old.csv", [ODD_NAMES, *zip(*data.values())])
    for suffix in ("csv", "json"):
        assert ((tmp_path / f"new.{suffix}").read_bytes()
                == (tmp_path / f"old.{suffix}").read_bytes()), suffix
    dumped = [json.dumps(record, separators=(",", ":")) for record in records]
    lines = (tmp_path / "new.json").read_text(encoding="utf-8").splitlines()
    assert lines[3:3 + count] == [line + "," for line in dumped[:-1]] + dumped[-1:]


# Labels that csv quotes or json escapes, each one a distinct label per suffix.
LABELS = ("a,b", 'say "hi"', "two\nlines", "café", "back\\slash", "plain")


@pytest.mark.parametrize("count", [reporting._BLOCK, reporting._BLOCK + 1,
                                   2 * reporting._BLOCK + 7])
@pytest.mark.parametrize("distinct", [reporting._PROBE // 2, reporting._PROBE // 2 + 1],
                         ids=["half-distinct", "mostly-distinct"])
def test_repeated_labels_are_written_as_the_oracle_writes_them(bundled, distinct, count):
    """A block whose first values repeat renders each label once, a block of
    mostly distinct labels renders each: both as the oracle writes them, in
    every block of the file."""
    labels = [f"{LABELS[i % len(LABELS)]}{i}" for i in range(distinct)]
    column = [labels[row % distinct] for row in range(count)]
    head = column[:reporting._PROBE]
    assert (len(set(head)) * 2 > len(head)) == (distinct > reporting._PROBE // 2)
    base = copies(bundled, count)
    labelled = {name: column for name in ("continent", "src_dmr_maize", "src_tax_rate")}
    assert_matches_oracle(base._replace(columns={**base.columns, **labelled}))


def test_all_failed_run_writes_headers_and_an_empty_list(bundled):
    written = assert_matches_oracle(copies(bundled, 0, errors=[("A", "x"), ("B", "y")]))
    assert written["report/countries.csv"] == ",".join(reporting.REPORT_COLUMNS).encode() + b"\r\n"
    assert b'\n"countries":[],\n' in written["report/global.json"]
    assert b'"countries":[],' in written["msp.json"]


@pytest.mark.parametrize("column, value, name, cell", [
    ("cr_final_t", 1e308, "report/countries.csv", b",1e+308,"),  # a sum that overflows
])
def test_edited_values_match_the_oracle(bundled, column, value, name, cell):
    result = copies(bundled, 3)
    present = [row for row, old in enumerate(result.columns[column]) if old is not None]
    written = assert_matches_oracle(edited(result, [{column: value} if row in present else {}
                                                    for row in range(3)]))
    assert written[name].count(cell) == len(present)  # a plan-less row has no plan columns


@pytest.mark.parametrize("count", [3, reporting._BLOCK + 1, reporting._BLOCK + 2])
@pytest.mark.parametrize("column, value", [
    ("carbon_tax_usd_per_tco2e", 50),  # an int in each planned row, as yoy's years are
    ("pellet_energy_tj", 50),
    ("pellet_energy_tj", "12.5"),  # one string among floats, in the last row
    ("scenario", 1.5),  # one float among strings, in the last row
], ids=["int-tax", "int-energy", "str-among-floats", "float-among-strings"])
def test_a_value_of_another_kind_raises_and_leaves_no_file(bundled, tmp_path, column, value,
                                                            count):
    """The writer takes floats, strings or bools, each beside None: an int, or a
    string among floats or a float among strings, is a ``TypeError`` naming the
    column, from every writer whose columns hold it, and no file is left
    behind, even once a block of rows is written.  The rule holds across
    blocks: at ``_BLOCK + 1`` rows the odd value is alone in the last block."""
    result = copies(bundled, count)
    present = [row for row, old in enumerate(result.columns[column]) if old is not None]
    rows = present if type(value) is int else present[-1:]
    result = edited(result, [{column: value} if row in rows else {} for row in range(count)])
    match = f"^column {column} holds .*{type(value).__name__}"
    writers = [partial(reporting.write_table, tmp_path / f"{stem}.{fmt}", columns, result)
               for stem, columns in STAGES.items() if column in columns for fmt in ("csv", "json")]
    if column in reporting.REPORT_COLUMNS:
        writers.append(partial(reporting.write_report_files, tmp_path / "report", result))
    assert writers
    for write in writers:
        with pytest.raises(TypeError, match=match):
            write()
    assert files(tmp_path) == {}


def test_a_column_whose_first_block_is_empty_is_written(bundled):
    """A column of None in its first block and floats in its next, or labels,
    is written as the oracle writes it."""
    count = reporting._BLOCK + 1
    base = copies(bundled, count)
    gaps = [None] * reporting._BLOCK
    assert_matches_oracle(base._replace(columns={**base.columns,
                                                 "cr_final_t": [*gaps, 1.5],
                                                 "scenario": [*gaps, "A"]}))


@pytest.mark.parametrize("count, cycle", [
    pytest.param(count, cycle, id=f"{count}{suffix}")
    for cycle, suffix in (((0.0, -0.0, 1.5), ""), ((0.0, -0.0, None, 1.5), "-beside-None"))
    for count in (reporting._PROBE, reporting._BLOCK + 1)])
def test_a_repeating_block_holding_both_zeros_writes_each_zero(bundled, count, cycle):
    """A block of repeated floats that holds 0.0 and -0.0, equal but printed
    apart, is rendered value by value, beside None too: its CSV and JSON hold
    both texts, and an empty cell and ``null`` at each None, as the oracle
    writes them."""
    base = copies(bundled, count)
    column = [cycle[row % len(cycle)] for row in range(count)]
    written = assert_matches_oracle(base._replace(columns={**base.columns,
                                                          "cr_final_t": column}))
    header, *rows = written["report/countries.csv"].decode().splitlines()
    at = header.split(",").index("cr_final_t")
    assert [row.split(",")[at] for row in rows] == ["" if v is None else repr(v) for v in column]
    records = json.loads(written["report/global.json"])["countries"]
    signs = [None if v is None else math.copysign(1.0, v) for v in column]
    assert [None if r["cr_final_t"] is None else math.copysign(1.0, r["cr_final_t"])
            for r in records] == signs
    assert written["report/global.json"].count(b'"cr_final_t":-0.0,') == signs.count(-1.0)
    assert written["report/global.json"].count(b'"cr_final_t":null,') == column.count(None)


@pytest.mark.parametrize("bad", [
    # one NaN and one infinity, in columns of floats
    ({"pellet_energy_tj": math.nan}, {"discount_rate": math.inf}),
    # beside a plan-less country's empty cell
    ({"s_ec_usd_per_y": -math.inf}, {}),
], ids=["nan-and-inf", "beside-empty-cell"])
def test_non_finite_value_raises_and_leaves_no_file(bundled, tmp_path, bad):
    result = edited(copies(bundled, 2), bad)
    columns = {name for change in bad for name in change}
    with pytest.raises(ValueError, match="non-finite value in column"):
        reporting.write_report_files(tmp_path / "report", result)
    assert not any((tmp_path / "report").iterdir())
    for stem, stage_columns in STAGES.items():
        for fmt in ("csv", "json"):
            path = tmp_path / f"{stem}.{fmt}"
            if columns.isdisjoint(stage_columns):
                reporting.write_table(path, stage_columns, result)
                assert b"nan" not in path.read_bytes() and b"inf" not in path.read_bytes()
            else:
                with pytest.raises(ValueError, match="non-finite value in column"):
                    reporting.write_table(path, stage_columns, result)
                assert not path.exists()


# A column of one type with None among its values, as a plan-less country leaves
# in the plan columns: each kind of value drawn from a small pool, so that the
# rows repeat values, with the edge values in it.
POOLS = {
    # 0.0 and -0.0 in every pool: equal, but written differently
    "float": st.lists(st.one_of(st.sampled_from([5e-324, 1e308, -1.5]),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      max_size=4).map(lambda pool: [0.0, -0.0, *pool]),
    "bool": st.lists(st.booleans(), min_size=1, max_size=2),
    "str": st.lists(names, min_size=1, max_size=5),  # commas, quotes and line breaks
    # about as many labels as a block probes: its first values near half distinct
    "labels": st.lists(names, min_size=reporting._PROBE // 2, max_size=reporting._PROBE // 2 + 8,
                       unique=True),
}
# the report's columns that are not plan columns, so that any row may hold None
FREE_COLUMNS = [name for name in reporting.REPORT_COLUMNS
                if name not in reporting.PLAN_COLUMNS and name != "country"]


@st.composite
def sparse_columns(draw, count: int, names: list) -> dict:
    """A column per name, ``count`` rows each: one kind of value beside None."""
    rng = random.Random(draw(st.integers(0, 2**32)))  # rows drawn from the pools, each seeded
    columns = {}
    for name in names:
        pool = draw(POOLS[draw(st.sampled_from(sorted(POOLS)))])
        empty = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        columns[name] = [None if rng.random() < empty else rng.choice(pool)
                         for _ in range(count)]
    return columns


ROW_COUNTS = st.sampled_from([0, 1, reporting._BLOCK, reporting._BLOCK + 1])


@settings(max_examples=30, deadline=None)
@given(st.data(), ROW_COUNTS)
def test_columns_beside_none_are_written_as_the_oracle_writes_them(bundled, data, count):
    names = data.draw(st.lists(st.sampled_from(FREE_COLUMNS), min_size=1, max_size=4,
                               unique=True))
    base = copies(bundled, count)
    result = base._replace(columns={**base.columns, **data.draw(sparse_columns(count, names))})
    table = ("country", *names)

    def write(writer, out):
        writer.write_report_files(out / "report", result)
        for fmt in ("csv", "json"):
            writer.write_table(out / f"table.{fmt}", table, result)

    assert_same_files(write)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from([1, reporting._BLOCK, reporting._BLOCK + 1]),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_float_beside_none_raises_and_leaves_no_file(bundled, data, count, bad):
    name = data.draw(st.sampled_from(FREE_COLUMNS))
    column = [None if row % 3 else 1.5 for row in range(count)]
    column[data.draw(st.integers(0, count - 1))] = bad
    base = copies(bundled, count)
    result = base._replace(columns={**base.columns, name: column})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with pytest.raises(ValueError, match=f"non-finite value in column {name}$"):
            reporting.write_report_files(out / "report", result)
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match=f"non-finite value in column {name}$"):
                reporting.write_table(out / f"table.{fmt}", ("country", name), result)
        assert files(out) == {}


def write_sweep(writer, out: Path, grid) -> None:
    for fmt in ("csv", "json"):
        assert writer.write_sweep_files(out / fmt, grid, fmt) == sorted((out / fmt).iterdir())


def stratified(rng, lo, hi, count) -> tuple:
    """One unrounded value inside each equal-width bin, as the benchmark's
    ``sweep_fine_x1`` grid before it rounds: ``:g`` prints almost none exactly."""
    step = (hi - lo) / count
    return tuple(lo + step * (i + rng.uniform(0.05, 0.95)) for i in range(count))


@pytest.mark.parametrize("axes", [
    None,  # the config's default grid
    ((1.0, 1.0000001, 3), (10, 10.000001, 0.1 + 0.2)),  # ints beside floats
    (stratified(random.Random(1), 0.1, 1.9, 25), stratified(random.Random(2), 5.0, 200.0, 40)),
], ids=["default", "near-repeats", "fine-unrounded"])
def test_sweep_files_match_the_oracle(dataset, axes):
    if axes:
        dataset = dataset._replace(config=dataset.config._replace(
            fossil_multipliers=axes[0], pellet_prices=axes[1]))
    grid = sweep(dataset)
    written = assert_same_files(lambda writer, out: write_sweep(writer, out, grid))
    rows = len(grid.fossil_multipliers) * len(grid.pellet_prices)
    assert written["csv/sensitivity_long.csv"].count(b"\r\n") == 1 + rows
    assert written["json/sensitivity.json"].count(b'\n{"fossil_multiplier":') == rows


values = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=False))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(names, st.lists(values, min_size=2, max_size=4), max_size=4), names)
def test_yoy_files_match_the_oracle(series, failed):
    results, failures = {}, []
    for name, points in sorted(series.items()):
        try:
            results[name] = yoy_growth(enumerate(points, start=2000))
        except DataError as exc:  # every base year zero
            failures.append((name, str(exc)))
    failures.append((failed, "series must contain at least two years"))

    def write(writer, out):
        for fmt in ("csv", "json"):
            assert writer.write_yoy_file(out, results, failures, fmt) == out / f"yoy.{fmt}"

    written = assert_same_files(write)
    assert json.loads(written["yoy.json"])["errors"][-1]["series"] == failed
