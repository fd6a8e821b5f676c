"""Regression fuzz: edge values in the cells of the bundled CSVs.

Each example writes a copy of the bundled data with a few cells set to values
at the edges of what the loader and the model take: numeric cells to edge
numbers, name and label cells to empty, blank, repeated or unknown names.  It
then runs ``report``, ``msp`` and ``sweep`` in-process, and ``yoy`` on copies
of the series with a few name, year and value cells set the same way.  Every
run must end in an exit code, never a traceback, and write no NaN or
infinity.  The column reader must agree with the reference row scan in
``oracles``, value for value or message for message, on all these copies; a
table the loader accepts must pass the full check of a hand-built ``Dataset``.
"""

import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracles
from agripellet import dataio
from agripellet.cli import main

DATA_DIR = Path(__file__).parent / "data"
# (file, its first numeric column)
TABLES = (("countries.csv", 2), ("crops.csv", 1), ("fuels.csv", 1))
EDGE_VALUES = ("0", "-0", "5e-324", "1e308", "1.7e308", repr(1 - 2**-53), "-", "",
               " - ", " ", "\t1.5 ",  # gaps and a number, each padded with whitespace
               "1_0", "nan", "inf", "\u0661",  # an Arabic-Indic one, which float reads
               "-1", "2")  # -1 outside every bound, 2 outside each bound that ends at 1
DUPLICATE = object()  # the name of the next row
KEY_VALUES = ("", " ", "barley", "pellet", DUPLICATE)  # barley: neither a crop nor a fuel
SERIES_VALUES = ("", " ", "-", "x", "0", "-1", "1_0", "nan", "1e308", "2001", "+2001", "\u0662")
WIDTHS = {"countries.csv": len(dataio.COUNTRIES_COLUMNS), "crops.csv": len(dataio.CROPS_COLUMNS),
          "fuels.csv": len(dataio.FUELS_COLUMNS)}


def data_rows(name: str) -> int:
    """The number of rows after the header of a bundled table."""
    with (DATA_DIR / name).open(newline="", encoding="utf-8") as f:
        return len(list(csv.reader(f))) - 1


# each row of a table as likely as the next
ROW = {name: st.sampled_from(range(data_rows(name))) for name, _ in TABLES}


def cell_mutation(numeric: bool, texts):
    """One cell set to one of ``texts``: its column drawn evenly among the
    numeric (or the name and label) columns of all three tables, and its row
    evenly among its table's rows."""
    columns = [(table, column) for table in TABLES
               for column in range(WIDTHS[table[0]] - table[1] if numeric else table[1])]
    return st.sampled_from(columns).flatmap(lambda cell: st.builds(
        lambda row, text: (cell[0], row, cell[1], (numeric, text)),
        ROW[cell[0][0]], st.sampled_from(texts)))


MUTATION = st.one_of(cell_mutation(True, EDGE_VALUES), cell_mutation(False, KEY_VALUES))
# a countries.csv cell, each row and each column as likely as the next, set to a
# number that parses (inside its column's bound or not) or to a name or label
COUNTRIES_MUTATION = st.tuples(
    st.just(TABLES[0]), ROW[TABLES[0][0]], st.integers(0, len(dataio.COUNTRIES_COLUMNS) - 1),
    st.one_of(st.tuples(st.just(True), st.sampled_from(EDGE_VALUES[:EDGE_VALUES.index("1_0")])),
              st.tuples(st.just(False), st.sampled_from(KEY_VALUES))))


def write_mutated_copy(data: Path, mutations) -> None:
    """The bundled data in ``data``, each mutation setting one numeric cell, or
    one name or label cell; the row and column numbers wrap around the file's."""
    data.mkdir()
    (data / "config.json").write_bytes((DATA_DIR / "config.json").read_bytes())
    tables = {}
    for (name, first), row, column, (numeric, text) in mutations:
        if name not in tables:
            with (DATA_DIR / name).open(newline="", encoding="utf-8") as f:
                tables[name] = list(csv.reader(f))
        rows = tables[name]
        if text is DUPLICATE:
            text = rows[1 + (row + 1) % (len(rows) - 1)][0]
        if numeric:
            column = first + column % (len(rows[0]) - first)
        else:
            column %= first
        rows[1 + row % (len(rows) - 1)][column] = text
    for name, _ in TABLES:
        if name in tables:
            with (data / name).open("w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows(tables[name])
        else:
            (data / name).write_bytes((DATA_DIR / name).read_bytes())


def unnamed_text(path: Path) -> str:
    """An output's text without its names, since a series may be named "nan":
    no JSON string, no CSV cell under a ``country`` or ``continent`` header,
    and of each errors.txt line only the message after its name."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return re.sub(r'"(?:[^"\\]|\\.)*"', "", text)
    if path.suffix == ".txt":
        return "\n".join(line.split(": ", 1)[1] for line in text.splitlines())
    header, *rows = list(csv.reader(io.StringIO(text, newline=""))) or [[]]
    numbers = [i for i, column in enumerate(header) if column not in ("country", "continent")]
    return "\n".join(",".join(row[i] for i in numbers) for row in rows)


def assert_ends_in_an_exit_code(argv: list, out: Path) -> None:
    """Run ``main(argv)`` into ``out``: an exit code and no traceback, no NaN or
    infinity in any output, and exit 1 exactly when the summary line names the
    failures, which errors.txt holds a line each of."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    for path in out.glob("*"):
        text = unnamed_text(path).lower()
        assert "nan" not in text and "inf" not in text, (argv[0], path.name)
    if code == 2:  # a DataError: its message, and no errors.txt
        assert stderr.getvalue().startswith("error: ")
        return
    failed = re.match(r"(\d+) of \d+ (?:countries|series) failed", stderr.getvalue())
    lines = (out / "errors.txt").read_text(encoding="utf-8").splitlines()
    assert (code == 1) == bool(failed)
    assert len(lines) == (int(failed[1]) if failed else 0)
    assert len({line.split(": ", 1)[0] for line in lines}) == len(lines)


def loaded(load, data: Path):
    """The dataset ``load`` reads as text, or the problems of the DataError it raises."""
    try:
        return repr(load(data))
    except dataio.DataError as exc:
        return exc.problems


@settings(max_examples=25, deadline=None)  # a few seconds of tier-1
@given(st.lists(MUTATION, min_size=1, max_size=4))
def test_edge_cells_end_in_an_exit_code(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        write_mutated_copy(data, mutations)
        assert loaded(dataio.load_dataset, data) == loaded(oracles.load_dataset, data)

        for command in ("report", "msp", "sweep"):
            assert_ends_in_an_exit_code([command, "--data", str(data)], Path(tmp) / command)


@settings(max_examples=40, deadline=None)
@given(st.lists(COUNTRIES_MUTATION, min_size=1, max_size=4))
def test_a_loaded_dataset_passes_the_full_check(mutations):
    """The loader checks each countries.csv cell once, as it parses it: any
    table it accepts, the full check of a hand-built Dataset accepts as equal."""
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        write_mutated_copy(data, mutations)
        try:
            ds = dataio.load_dataset(data)
        except dataio.DataError:
            return
        assert dataio.Dataset(**ds._asdict()) == ds


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 2),
                          st.sampled_from(SERIES_VALUES)), min_size=1, max_size=4))
def test_series_cells_load_as_the_row_scan_loads_them(mutations):
    with (DATA_DIR / "production_series.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    for row, column, text in mutations:
        rows[1 + row % (len(rows) - 1)][column] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        with path.open("w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows(rows)
        assert loaded(dataio.load_series, path) == loaded(oracles.load_series, path)
        assert_ends_in_an_exit_code(["yoy", str(path)], Path(tmp) / "out")
