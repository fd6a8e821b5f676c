"""The command line as a user runs it: each test starts
``python -m agripellet.cli`` in a child process on the bundled data, an
edited copy of it, an edited config or a series file, and checks its exit
code and what it writes to stderr or errors.txt; one test imports the package
in a child process, as the ``agripellet`` script starts.

Run with ``PYTHONPATH=src`` it tests the source tree; run without it after
``pip install .`` it tests the installed package.
"""

import csv
import re
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR, copy_data, write_config


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV file with ``edit`` applied to its list of rows."""
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


def agripellet(*args) -> tuple:
    """``(exit code, stderr lines)`` of one run; a traceback, or a run past
    60 s, fails the test."""
    run = subprocess.run([sys.executable, "-m", "agripellet.cli", *map(str, args)],
                         capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert "Traceback" not in run.stderr, run.stderr
    return run.returncode, run.stderr.splitlines()


def test_bad_cells_are_each_named(tmp_path):
    """Bad cells trip the whole-column checks of countries.csv; each tripped
    column is scanned and names its bad cells."""
    data = copy_data(tmp_path / "data")

    def edit(rows):
        header = rows[0]
        for row, column, text in ((2, "prod_maize_t", "1_0"), (4, "cattle", "١"),
                                  (6, "pli_raw", "nan"), (8, "dmr_maize", "1.5")):
            rows[1 + row][header.index(column)] = text

    edit_csv(data / "countries.csv", edit)
    code, lines = agripellet("report", "--data", data, "--out", tmp_path / "out")
    assert code == 2
    assert set(lines) == {
        "error: countries.csv line 4: prod_maize_t: not a number: '1_0'",
        "error: countries.csv line 6: cattle: not a number: '١'",
        "error: countries.csv line 8: pli_raw: not a finite number: 'nan'",
        "error: countries.csv line 10: dmr_maize: must be in (0, 1], got 1.5",
    }
    assert len(lines) == 4


def test_bad_tables_name_every_problem_in_file_and_line_order(tmp_path):
    """Bad names, a bad cell and a pellet row without its ef, in crops.csv and
    fuels.csv of one copy: one run names every problem of both files by line,
    crops.csv first, each file's in line order, then the missing crops."""
    data = copy_data(tmp_path / "data")

    def edit_crops(rows):
        rows[2][0] = "barley"                   # line 3: not a crop
        rows[3][rows[0].index("srr")] = "1_0"   # line 4: not a number
        rows.append(rows[1])                    # line 6: maize again

    def edit_fuels(rows):
        assert rows[4][0] == "pellet"
        rows[4][2] = ""                         # line 5: the pellet row without its ef

    edit_csv(data / "crops.csv", edit_crops)
    edit_csv(data / "fuels.csv", edit_fuels)
    code, lines = agripellet("report", "--data", data, "--out", tmp_path / "out")
    assert code == 2
    assert set(lines) == {
        "error: crops.csv line 3: unknown crop 'barley'",
        "error: crops.csv line 4: srr: not a number: '1_0'",
        "error: crops.csv line 6: duplicate crop 'maize' (first at line 2)",
        "error: crops.csv: missing crops ['rice', 'sugarcane']",
        "error: fuels.csv line 5: pellet row requires ef_kgco2e_per_t",
    }
    assert [m[1] for m in map(re.compile(r"error: crops\.csv line (\d*):").match, lines)
            if m] == ["3", "4", "6"]
    assert [line.split(" ")[1] for line in lines] == [
        "crops.csv", "crops.csv", "crops.csv", "crops.csv:", "fuels.csv"]
    assert len(lines) == 5


def test_a_year_past_the_int_digit_limit_is_a_bad_cell(tmp_path):
    """A year past int()'s 4,300-digit limit is a bad cell too: one line
    naming it, exit 2."""
    series = tmp_path / "long-year.csv"
    series.write_text("year,value\n2000,1\n" + "1" * 5000 + ",2\n", encoding="utf-8")
    code, lines = agripellet("yoy", series, "--out", tmp_path / "out")
    assert code == 2
    assert lines == ["error: long-year.csv line 3: year: too many digits (5000)"]


def test_a_failed_series_is_named_in_errors_txt_with_exit_1(tmp_path):
    """yoy follows the other subcommands' failure rule: a series whose growth
    overflows is one errors.txt line, stderr the one summary line, exit 1."""
    series = tmp_path / "series.csv"
    series.write_text("country,year,value\nA,2000,1e-300\nA,2001,1e300\nB,2000,1\nB,2001,2\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    code, lines = agripellet("yoy", series, "--out", out)
    assert code == 1
    assert lines == [f"1 of 2 series failed (see {out / 'errors.txt'})"]
    assert (out / "errors.txt").read_text(encoding="utf-8") == "A: growth is not a finite number\n"


def test_a_billion_year_horizon_runs_as_twenty_years_do(tmp_path):
    """The break-even price is closed-form, so a 1e9-year horizon costs what
    20 years do: the run ends within 60 s, with exit 0."""
    config = write_config(tmp_path / "horizon_1e9.json", horizon_years=10**9)
    code, _ = agripellet("msp", "--data", DATA_DIR, "--country", "Albania", "--config", config,
                         "--out", tmp_path / "out")
    assert code == 0


def test_a_zero_slope_fails_every_country_with_exit_1(tmp_path):
    """A break-even slope that rounds to 0.0 (a 5e-324 t/y plant over one
    year, one tax rate raised to 0.6) fails every country with exit 1 and
    errors.txt, not a traceback."""
    assert (DATA_DIR / "countries.csv").read_text(encoding="utf-8").count(",0.14,0.3,") == 1
    data = copy_data(tmp_path / "data", [("countries.csv", ",0.14,0.3,", ",0.14,0.6,")])
    config = write_config(tmp_path / "zero_slope.json", plant_capacity=5e-324, horizon_years=1)
    out = tmp_path / "out"
    code, _ = agripellet("msp", "--data", data, "--config", config, "--out", out)
    assert code == 1
    assert "non-finite msp_usd_per_t" in (out / "errors.txt").read_text(encoding="utf-8")


def test_import_loads_no_dataclasses_or_inspect_and_exports_no_gone_name():
    """The records are NamedTuples: starting the CLI imports neither module,
    which together cost tens of milliseconds of start-up.  Every name in
    ``__all__`` imports, and the removed per-country records (output and
    input), dataset writer, checked solver inputs and livestock rates are not
    among them."""
    code = ("import agripellet.cli, sys\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "from agripellet import *\n"
            "print(sorted({'CountryReport', 'CountryProfile', 'save_dataset', 'BreakEvenInputs',"
            " 'LivestockRates'} & set(dir())))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"
