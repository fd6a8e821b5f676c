import csv
import gc
import json
import re
import runpy
import sys
from typing import get_type_hints

import pytest

from agripellet import reporting
from agripellet.cli import main, run
from agripellet.dataio import COUNTRIES_COLUMNS, load_dataset
from agripellet.pipeline import STAGE_PLAN, GlobalReport, run_pipeline
from conftest import (INFINITE_PRICE, assert_same_files, assert_stage_agrees_with_report,
                      copy_data, write_config)
from oracles import format_cell, table_records, table_values


def run_cli(*args):
    return main([str(a) for a in args])


def test_report_writes_fixed_file_set(data_dir, tmp_path):
    code = run_cli("report", "--data", data_dir, "--out", tmp_path)
    assert code == 0
    for name in ("countries.csv", "global.json", "errors.txt",
                 "energy_by_country.csv", "replacement_by_country.csv",
                 "savings_by_country.csv"):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / "errors.txt").read_text() == ""
    payload = json.loads((tmp_path / "global.json").read_text())
    assert payload["global"]["countries_evaluated"] == 178
    assert payload["errors"] == []
    assert len(payload["countries"]) == 178


def test_report_is_byte_identical_across_runs(data_dir, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("report", "--data", data_dir, "--out", out1) == 0
    assert run_cli("report", "--data", data_dir, "--out", out2) == 0
    assert len(assert_same_files(out1, out2)) == 6


def test_recop_json_is_byte_identical_across_runs(data_dir, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert run_cli("recop", "--data", data_dir, "--format", "json", "--out", out) == 0
    assert assert_same_files(out1, out2) == ["errors.txt", "recop.json"]


def test_report_csvs_render_typed_values(dataset, data_dir, tmp_path):
    """Each report CSV cell is the oracle's rendering of its column's value."""
    assert run_cli("report", "--data", data_dir, "--out", tmp_path) == 0
    result = run_pipeline(dataset, through=STAGE_PLAN)
    files = {"countries.csv": reporting.REPORT_COLUMNS, **reporting.PLOT_COLUMNS}
    for name, columns in files.items():
        with (tmp_path / name).open(newline="", encoding="utf-8") as f:
            header, *rows = list(csv.reader(f))
        assert header == list(columns), name
        expected = [[format_cell(v) for v in row]
                    for row in table_values(columns, result)]
        assert len(rows) == len(expected) == 178
        for row, want in zip(rows, expected):
            assert row == want, (name, row[0])


def typed(value):
    """``value`` with each leaf paired with its type, so ``==`` compares types too."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    return type(value), value


def test_global_json_loads_to_in_process_payload(dataset, data_dir, tmp_path):
    assert run_cli("report", "--data", data_dir, "--out", tmp_path) == 0
    result = run_pipeline(dataset, through=STAGE_PLAN)
    expected = {"global": result.global_report._asdict(),
                **table_records(reporting.REPORT_COLUMNS, result)}
    text = (tmp_path / "global.json").read_text(encoding="utf-8")
    assert typed(json.loads(text)) == typed(expected)
    # one country record per line
    lines = [json.loads(line.rstrip(",")) for line in text.splitlines()
             if line.startswith('{"country":')]
    assert lines == expected["countries"]


def test_shared_columns_agree_across_outputs(data_dir, tmp_path):
    for command in ("report", "assess", "msp", "recop"):
        assert run_cli(command, "--data", data_dir, "--out", tmp_path) == 0
    tables = {}  # file name -> country -> column -> cell; top_fuel read as rank_1
    for path in sorted(tmp_path.glob("*.csv")):
        with path.open(newline="", encoding="utf-8") as f:
            tables[path.name] = {
                row["country"]: {("rank_1" if k == "top_fuel" else k): v for k, v in row.items()}
                for row in csv.DictReader(f)
            }
    assert len(tables) == 7
    assert all(len(rows) == 178 for rows in tables.values())
    files_with = {}
    for name, rows in tables.items():
        for column in next(iter(rows.values())):
            files_with.setdefault(column, []).append(name)
    shared = {c: names for c, names in files_with.items() if len(names) > 1}
    assert {"rank_1", "pellet_energy_tj", "s_ec_usd_per_y", "src_tax_rate"} <= set(shared)
    for column, (first, *others) in shared.items():
        for other in others:
            for country, row in tables[other].items():
                assert row[column] == tables[first][country][column], (column, other, country)


def test_assess_csv_and_country_filter(data_dir, tmp_path):
    code = run_cli("assess", "--data", data_dir, "--out", tmp_path,
                   "--country", "Brazil", "--country", "Canada")
    assert code == 0
    with (tmp_path / "assess.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [r["country"] for r in rows] == ["Brazil", "Canada"]
    brazil = rows[0]
    assert float(brazil["cr_total_sugarcane_t"]) == pytest.approx(715.66e6)


def test_assess_json_format(data_dir, tmp_path):
    code = run_cli("assess", "--data", data_dir, "--out", tmp_path,
                   "--format", "json", "--country", "Albania")
    assert code == 0
    payload = json.loads((tmp_path / "assess.json").read_text())
    (record,) = payload["countries"]
    assert list(record) == list(reporting.ASSESS_COLUMNS)
    assert record["country"] == "Albania"
    assert payload["errors"] == []


@pytest.mark.parametrize("command, stem", [
    ("assess", "assess"), ("msp", "msp"), ("recop", "recop"), ("report", "countries"),
])
def test_json_records_match_csv_rows(data_dir, tmp_path, command, stem):
    assert run_cli(command, "--data", data_dir, "--out", tmp_path / "csv") == 0
    if command == "report":  # one run writes countries.csv and global.json
        json_path = tmp_path / "csv" / "global.json"
    else:
        assert run_cli(command, "--data", data_dir, "--out", tmp_path / "json",
                       "--format", "json") == 0
        json_path = tmp_path / "json" / f"{stem}.json"
    with (tmp_path / "csv" / f"{stem}.csv").open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    records = json.loads(json_path.read_text())["countries"]
    assert len(records) == len(rows) == 178
    for record, row in zip(records, rows):
        assert list(record) == header
        assert [format_cell(v) for v in record.values()] == row, record["country"]


@pytest.mark.parametrize("args", [
    ("report", "--format", "json"),
    ("yoy", "series.csv", "--country", "X"),
    ("yoy", "series.csv", "--data", "."),
    ("assess", "--scenario", "B"),
    ("msp", "--carbon-tax", "10"),
    ("sweep", "--scenario", "B", "--carbon-tax", "100"),
])
def test_flag_a_subcommand_ignores_exits_2(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(*args, "--out", tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_msp_subcommand(data_dir, tmp_path):
    code = run_cli("msp", "--data", data_dir, "--out", tmp_path, "--country", "Canada")
    assert code == 0
    with (tmp_path / "msp.csv").open(newline="", encoding="utf-8") as f:
        (row,) = list(csv.DictReader(f))
    assert float(row["capex_usd"]) == pytest.approx(6_540_000.0, abs=1.0)
    assert float(row["opex_usd_per_y"]) == pytest.approx(2_540_000.0, abs=1.0)
    assert row["src_discount_rate"] == "country"


def test_recop_subcommand_with_scenario_override(data_dir, tmp_path):
    code = run_cli("recop", "--data", data_dir, "--out", tmp_path,
                   "--scenario", "B", "--country", "Brazil")
    assert code == 0
    with (tmp_path / "recop.csv").open(newline="", encoding="utf-8") as f:
        (row,) = list(csv.DictReader(f))
    assert row["scenario"] == "B"
    assert row["rank_1"] == "coal"  # emissions ranking puts coal first
    assert run_cli("recop", "--data", data_dir, "--out", tmp_path, "--scenario", "C",
                   "--carbon-tax", "50", "--format", "json") == 0
    payload = json.loads((tmp_path / "recop.json").read_text(encoding="utf-8"))
    assert {record["scenario"] for record in payload["countries"]} == {"C", None}


def test_config_carbon_tax_is_written_as_the_flags(data_dir, tmp_path):
    """config.json's "carbon_tax": 50 and --carbon-tax 50 give the same recop.csv."""
    config = write_config(tmp_path / "config.json", carbon_tax=50)
    assert run_cli("recop", "--data", data_dir, "--country", "Brazil", "--config", config,
                   "--out", tmp_path / "config") == 0
    assert run_cli("recop", "--data", data_dir, "--country", "Brazil", "--carbon-tax", "50",
                   "--out", tmp_path / "flag") == 0
    written = (tmp_path / "config" / "recop.csv").read_bytes()
    assert written == (tmp_path / "flag" / "recop.csv").read_bytes()
    assert b",50.0," in written


def test_sweep_outputs(data_dir, tmp_path):
    code = run_cli("sweep", "--data", data_dir, "--out", tmp_path)
    assert code == 0
    with (tmp_path / "sensitivity.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 7
    assert len(rows[0]) == 1 + 11
    with (tmp_path / "sensitivity_long.csv").open(newline="", encoding="utf-8") as f:
        long_rows = list(csv.reader(f))
    assert len(long_rows) == 1 + 77
    assert_no_non_finite_text(tmp_path)


def test_sweep_json(data_dir, tmp_path):
    code = run_cli("sweep", "--data", data_dir, "--out", tmp_path, "--format", "json")
    assert code == 0
    payload = json.loads((tmp_path / "sensitivity.json").read_text())
    assert len(payload["cells"]) == 77
    assert "baseline" in payload


def read_sweep_cells(path):
    with path.open(newline="", encoding="utf-8") as f:
        return {(r["fossil_multiplier"], r["pellet_price_usd_t"]):
                (float(r["s_ec_usd_per_y"]), float(r["s_em_kgco2e_per_y"]))
                for r in csv.DictReader(f)}


def test_sweep_country_subset(data_dir, tmp_path):
    assert run_cli("sweep", "--data", data_dir, "--out", tmp_path / "all") == 0
    assert run_cli("sweep", "--data", data_dir, "--out", tmp_path / "two",
                   "--country", "Brazil", "--country", "Canada") == 0
    full = read_sweep_cells(tmp_path / "all" / "sensitivity_long.csv")
    two = read_sweep_cells(tmp_path / "two" / "sensitivity_long.csv")
    assert set(two) == set(full)
    for cell, (ec, em) in two.items():
        assert 0 < em < full[cell][1]
        assert ec != full[cell][0]


def test_sweep_with_failed_country_exits_1(tmp_path, capsys):
    write_unresolvable_dataset(tmp_path)
    out = tmp_path / "out"
    assert run_cli("sweep", "--data", tmp_path, "--out", out) == 1
    lines = (out / "errors.txt").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("X: ")
    assert "1 of 1 countries failed" in capsys.readouterr().err
    cells = read_sweep_cells(out / "sensitivity_long.csv")
    assert len(cells) == 77
    assert all(v == (0.0, 0.0) for v in cells.values())


@pytest.mark.parametrize("command", ["assess", "msp", "recop", "sweep", "report", "yoy"])
def test_clean_run_empties_stale_errors_txt(data_dir, tmp_path, command):
    """A failing run, then a clean run into the same --out: errors.txt names the
    failure, then is empty."""
    if command == "yoy":
        series = tmp_path / "series.csv"
        series.write_text("country,year,value\nX,2000,0\nX,2001,0\n", encoding="utf-8")
        failing, clean, name = (series,), (data_dir / "production_series.csv",), "X"
    else:  # an overflowing production fails Afghanistan from the first stage on
        data = copy_data(tmp_path / "data", [("countries.csv", "\nAfghanistan,Asia,180000.0,",
                                              "\nAfghanistan,Asia,1e308,")])
        failing, clean, name = ("--data", data), ("--data", data_dir), "Afghanistan"
    out = tmp_path / "out"
    assert run_cli(command, *failing, "--out", out) == 1
    assert (out / "errors.txt").read_text(encoding="utf-8").startswith(f"{name}: ")
    assert run_cli(command, *clean, "--out", out) == 0
    assert (out / "errors.txt").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("key, value", [
    ("fossil_multipliers", [-1.0, 1.0]),
    ("fossil_multipliers", [0.0]),
    ("fossil_multipliers", []),
    ("pellet_prices", []),
    ("fossil_multipliers", [1.0, 1.0]),
    ("pellet_prices", [10.0, 20.0, 10.0]),
])
def test_bad_sweep_axis_exits_2(data_dir, tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    code = run_cli("sweep", "--data", data_dir, "--config", config, "--out", tmp_path / "out")
    assert code == 2
    assert key in capsys.readouterr().err


def test_non_finite_carbon_tax_flag_exits_2(data_dir, tmp_path, capsys):
    """A --carbon-tax override is checked as config.json's carbon_tax is."""
    out = tmp_path / "out"
    assert run_cli("recop", "--data", data_dir, "--carbon-tax", "nan", "--out", out) == 2
    assert capsys.readouterr().err == "error: carbon_tax: not a finite number: nan\n"
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("A,2001,1,9", "series.csv line 3: expected 3 columns, got 4"),
    ("A,2001", "series.csv line 3: expected 3 columns, got 2"),
    (",2001,1", "series.csv line 3: empty series name"),
    ("A,2001,-4", "series.csv line 3: value: must be >= 0, got -4.0"),
    ("A,2000.5,1", "series.csv line 3: year: not an integer: '2000.5'"),
    ("A,2001,", "series.csv line 3: value: missing value"),
    ("A,2001,nan", "series.csv line 3: value: not a finite number: 'nan'"),
    ("A,2001,inf", "series.csv line 3: value: not a finite number: 'inf'"),
    ("A,2001,1e400", "series.csv line 3: value: not a finite number: '1e400'"),
    ("A,2_001,1", "series.csv line 3: year: not an integer: '2_001'"),
    ("A,+2001,1", "series.csv line 3: year: not an integer: '+2001'"),
    ("A,\u0662\u0660\u0660\u0661,1",
     "series.csv line 3: year: not an integer: '\u0662\u0660\u0660\u0661'"),
    ("A,2001,1_000", "series.csv line 3: value: not a number: '1_000'"),
    # a row is named by the line it starts on, after a cell holding a line break too
    ('"A\nB",2000,1\nA,2001,-4', "series.csv line 5: value: must be >= 0, got -4.0"),
    # past int()'s default limit of 4,300 digits
    (f"A,{'1' * 5000},1", "series.csv line 3: year: too many digits (5000)"),
], ids=["extra-column", "short-row", "empty-name", "negative", "fractional-year",
        "missing", "nan", "inf", "1e400", "underscore-year", "signed-year", "arabic-indic-year",
        "underscore-value", "after-multi-line-cell", "5000-digit-year"])
def test_yoy_bad_input_exits_2(tmp_path, capsys, line, message):
    series = tmp_path / "series.csv"
    series.write_text(f"country,year,value\nA,2000,1\n{line}\nA,2002,2\n", encoding="utf-8")
    assert run_cli("yoy", series, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_yoy_reports_every_bad_line(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("year,value\n2000,1\n2001,-1\nx,2\n", encoding="utf-8")
    assert run_cli("yoy", series, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: series.csv line 3: value: must be >= 0, got -1.0",
        "error: series.csv line 4: year: not an integer: 'x'",
    ]


def test_yoy_reports_every_row_of_the_wrong_width(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text("country,year,value\nA,2000\nA,2001\n", encoding="utf-8")
    assert run_cli("yoy", series, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: series.csv line 2: expected 3 columns, got 2",
        "error: series.csv line 3: expected 3 columns, got 2",
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_yoy_overflowing_series_fails_on_its_own(tmp_path, capsys, fmt):
    series = tmp_path / "series.csv"
    series.write_text("country,year,value\nA,2000,1e-300\nA,2001,1e300\nB,2000,1\nB,2001,2\n",
                      encoding="utf-8")
    assert run_cli("yoy", series, "--out", tmp_path, "--format", fmt) == 1
    assert capsys.readouterr().err == (
        f"1 of 2 series failed (see {tmp_path / 'errors.txt'})\n")
    assert (tmp_path / "errors.txt").read_text(encoding="utf-8") == (
        "A: growth is not a finite number\n")
    text = (tmp_path / f"yoy.{fmt}").read_text(encoding="utf-8")
    assert not re.search("nan|inf", text, re.IGNORECASE)
    if fmt == "json":
        payload = json.loads(text)
        assert list(payload["series"]) == ["B"]
        assert payload["errors"] == [{"series": "A", "message": "growth is not a finite number"}]
    else:
        assert text.splitlines() == ["country,year_from,year_to,growth",
                                     "B,2000,2001,1.0", "B,average,,1.0"]


def test_yoy_subcommand(data_dir, tmp_path):
    code = run_cli("yoy", data_dir / "production_series.csv", "--out", tmp_path)
    assert code == 0
    with (tmp_path / "yoy.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    averages = {r[0]: float(r[3]) for r in rows[1:] if r[1] == "average"}
    assert averages["Vietnam"] == pytest.approx(0.792, rel=1e-9)
    assert averages["Canada"] == pytest.approx(0.031, rel=1e-9)
    assert_no_non_finite_text(tmp_path)


def test_yoy_json(data_dir, tmp_path):
    code = run_cli("yoy", data_dir / "production_series.csv", "--out", tmp_path,
                   "--format", "json")
    assert code == 0
    payload = json.loads((tmp_path / "yoy.json").read_text())
    assert payload["series"]["Vietnam"]["average"] == pytest.approx(0.792, rel=1e-9)


def test_data_dir_from_environment(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("AGRIPELLET_DATA", str(data_dir))
    code = run_cli("assess", "--out", tmp_path, "--country", "Albania")
    assert code == 0
    assert (tmp_path / "assess.csv").exists()


def test_missing_data_dir_exits_2(tmp_path):
    assert run_cli("report", "--data", tmp_path / "nowhere", "--out", tmp_path) == 2


def write_unresolvable_dataset(data_dir):
    """One country, X, with production only: nothing to resolve its costs or prices from."""
    (data_dir / "countries.csv").write_text(
        "country,continent,prod_maize_t,prod_rice_t,prod_sugarcane_t,prod_wheat_t,"
        "dmr_maize,dmr_rice,dmr_sugarcane,dmr_wheat,cattle,horses,sheep,swine,"
        "bagasse_bioenergy_t,other_bioenergy_t,pli_labor,pli_raw,pli_construction,"
        "pli_electricity,discount_rate,tax_rate,price_coal_usd_t,price_oil_usd_t,"
        "price_gas_usd_t,cons_coal_tj,cons_oil_tj,cons_gas_tj\n"
        "X,K,1000000,,,,,,,,,,,,0,0,,,,,,,,,,,,\n",
        encoding="utf-8",
    )


def test_unresolvable_dataset_exits_1(tmp_path):
    write_unresolvable_dataset(tmp_path)
    out = tmp_path / "out"
    code = run_cli("report", "--data", tmp_path, "--out", out)
    assert code == 1
    errors = (out / "errors.txt").read_text()
    assert "X: " in errors
    # assess still succeeds on the same data
    assert run_cli("assess", "--data", tmp_path, "--out", out) == 0


def failed_countries(out):
    return {line.split(": ", 1)[0] for line in (out / "errors.txt").read_text().splitlines()}


def planned_countries(data_dir, tmp_path):
    """The countries a plain ``recop`` run on ``data_dir`` gives a plan."""
    assert run_cli("recop", "--data", data_dir, "--out", tmp_path / "plain") == 0
    with (tmp_path / "plain" / "recop.csv").open(newline="", encoding="utf-8") as f:
        return {row["country"] for row in csv.DictReader(f) if row["rank_1"]}


def assert_no_non_finite_text(out):
    """No file in ``out`` holds a NaN or an infinity, as CSV (``nan``, ``inf``)
    or JSON (``NaN``, ``Infinity``) writes it."""
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8").lower()
        assert "nan" not in text and "inf" not in text, path.name


@pytest.mark.parametrize("country, column, failed, problem", [
    ("Afghanistan", "prod_wheat_t", 1, "weighted_lhv_mj_per_kg"),
    # 27 other European countries have a plan and no coal price of their own, so
    # they price coal at the continent mean
    ("Albania", "price_coal_usd_t", 28, "s_ec_usd_per_y"),
], ids=["Afghanistan-prod_wheat_t", "Albania-price_coal_usd_t"])
def test_overflowing_input_fails_country(data_dir, tmp_path, country, column, failed, problem):
    """A finite 1e308 that overflows downstream fails exactly the countries that
    use it, each with one line, and never writes NaN; every other country's
    countries.csv row is the clean run's, but those that read the continent mean."""
    data = tmp_path / "data"
    data.mkdir()
    with (data_dir / "countries.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    continent = next(row["continent"] for row in rows if row["country"] == country)
    expected, readers = {country}, set()
    if column == "price_coal_usd_t":
        planned = planned_countries(data_dir, tmp_path)
        readers = {row["country"] for row in rows
                   if row["continent"] == continent and row[column] in ("", "-")}
        expected |= readers & planned
    assert len(expected) == failed
    for row in rows:
        if row["country"] == country:
            row[column] = "1e308"
    with (data / "countries.csv").open("w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    for args in (("report",), ("recop", "--format", "json")):
        assert run_cli(*args, "--data", data, "--out", out) == 1
        assert (out / "errors.txt").read_text(encoding="utf-8").splitlines() == [
            f"{name}: non-finite {problem} for {name!r}" for name in sorted(expected)]
    assert_no_non_finite_text(out)
    json.loads((out / "global.json").read_text())
    assert run_cli("report", "--data", data_dir, "--out", tmp_path / "clean") == 0
    tables = []
    for run in (tmp_path / "clean", out):
        with (run / "countries.csv").open(newline="", encoding="utf-8") as f:
            tables.append([row for row in csv.reader(f) if row[0] not in readers])
    clean, overflowing = tables
    assert overflowing == [row for row in clean if row[0] not in expected]


def test_overflowing_ranking_score_fails_country(data_dir, tmp_path):
    """A carbon tax of 1e305 overflows only the ranking scores, which are not
    columns: every country with a plan fails, and nothing else does."""
    planned = planned_countries(data_dir, tmp_path)
    assert len(planned) == 120
    out = tmp_path / "out"
    assert run_cli("recop", "--scenario", "C", "--carbon-tax", "1e305",
                   "--data", data_dir, "--out", out) == 1
    assert failed_countries(out) == planned
    assert all(": non-finite score_" in line
               for line in (out / "errors.txt").read_text().splitlines())
    assert_no_non_finite_text(out)


def test_tfc_usd_is_the_solver_base(data_dir, tmp_path):
    """tfc_usd is the README's capital cascade on epc_usd, capex_usd is it plus
    5% and 15% of it, each bit for bit, and the README's NPV identity holds
    on tfc_usd."""
    assert run_cli("msp", "--data", data_dir, "--out", tmp_path) == 0
    with (tmp_path / "msp.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 178
    for row in rows:
        v = {k: float(row[k]) for k in ("epc_usd", "capex_usd", "tfc_usd", "npv_at_msp_usd",
                                         "annuity_factor", "cash_flow_usd_per_y",
                                         "discount_rate")}
        direct = 3.25 * v["epc_usd"]
        indirect = 0.22 * direct
        tfc = v["tfc_usd"]
        assert tfc == direct + indirect + 0.10 * (direct + indirect), row["country"]
        assert v["capex_usd"] == tfc + 0.05 * tfc + 0.15 * tfc, row["country"]
        identity = (v["annuity_factor"] * v["cash_flow_usd_per_y"]
                    + 0.1 * v["tfc_usd"] * (1 + v["discount_rate"]) ** -20 - v["capex_usd"])
        assert abs(identity - v["npv_at_msp_usd"]) <= 0.01, row["country"]
        assert abs(v["npv_at_msp_usd"]) <= 0.01, row["country"]


def test_billion_year_horizon_runs(data_dir, tmp_path):
    config = write_config(tmp_path / "config.json", horizon_years=10**9)
    code = run_cli("msp", "--data", data_dir, "--config", config, "--out", tmp_path,
                   "--country", "Albania")
    assert code == 0
    with (tmp_path / "msp.csv").open(newline="", encoding="utf-8") as f:
        (row,) = list(csv.DictReader(f))
    r = float(row["discount_rate"])
    assert float(row["annuity_factor"]) == pytest.approx(1.0 / r, rel=1e-12)
    assert abs(float(row["npv_at_msp_usd"])) <= 0.01


def test_horizon_beyond_float_exits_2(data_dir, tmp_path, capsys):
    # 10**305 is a float but not an exact one: at discount_rate 0 its annuity
    # factor overflowed the MSP to NaN
    for horizon in (10**400, 10**305):
        config = write_config(tmp_path / "config.json", horizon_years=horizon)
        code = run_cli("msp", "--data", data_dir, "--config", config, "--out", tmp_path / "out")
        assert code == 2
        assert "horizon_years: must be in [1, 9007199254740992], got 1000" \
            in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fractional_horizon_exits_2(data_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizon_years": 20.5}), encoding="utf-8")
    code = run_cli("msp", "--data", data_dir, "--config", config, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == "error: horizon_years: must be an integer, got 20.5\n"


@pytest.mark.parametrize("text, message", [
    # beyond int()'s 4,300-digit limit
    (b'{"carbon_tax": 1' + b"0" * 5000 + b"}", "config.json: invalid JSON ("),
    (b"[" * 100_000, "config.json: invalid JSON ("),  # deeper than the decoder recurses
    # read as every input is: a bad byte is named by its line, and the parser's
    # position counts the file's own characters, each \r included
    (json.dumps({"carbon_tax": 10.0}).encode("utf-16"),
     "config.json line 1: not UTF-8 text (invalid start byte)\n"),
    (b'{\n  "scenario": "A",\n  "carbon_tax": "\xe1"}',
     "config.json line 3: not UTF-8 text (invalid continuation byte)\n"),
    (b'{\r\n  "scenario": "A",\r\n  "carbon_tax" 1}',
     "config.json: invalid JSON (Expecting ':' delimiter: line 3 column 16 (char 38))\n"),
], ids=["5001-digit-int", "deep-nesting", "utf-16", "latin-1", "crlf"])
def test_unparsable_config_exits_2(data_dir, tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    code = run_cli("msp", "--data", data_dir, "--config", config, "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (None, "missing file: {config}"),
    ("[1, 2]", "config.json: top-level object required"),
], ids=["missing", "list"])
def test_config_that_is_missing_or_not_an_object_exits_2(data_dir, tmp_path, capsys, text,
                                                         message):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    code = run_cli("msp", "--data", data_dir, "--config", config, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
    assert not (tmp_path / "out").exists()


def test_config_naming_a_plant_output_exits_2(data_dir, tmp_path, capsys):
    """Every country builds the reference plant, so a config.json that still
    gives the plant's output names an unknown key, and nothing is written."""
    config = write_config(tmp_path / "config.json", plant_capacity=40_080.0)
    code = run_cli("msp", "--data", data_dir, "--config", config, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: config.json: unknown config keys ['plant_capacity']\n")
    assert not (tmp_path / "out").exists()


def test_empty_countries_file_exits_2(tmp_path, capsys):
    data = copy_data(tmp_path / "data")
    (data / "countries.csv").write_bytes(b"")
    assert run_cli("assess", "--data", data, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: countries.csv: empty file, header row required\n"


@pytest.mark.parametrize("command", ["report", "yoy"])
def test_out_naming_a_file_exits_2(data_dir, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    inputs = (data_dir / "production_series.csv",) if command == "yoy" else ("--data", data_dir)
    assert run_cli(command, *inputs, "--out", taken) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "keep\n"


class Boom(Exception):
    pass


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", [0, 2, Boom])
def test_main_leaves_the_cyclic_collector_as_it_found_it(data_dir, tmp_path, monkeypatch,
                                                         enabled, outcome):
    """The collector is off while a command runs, and is set back after exit 0,
    exit 2 and a raised exception alike; ``main`` freezes no object."""
    seen = []
    frozen = gc.get_freeze_count()

    def write(out_dir, result):
        seen.append(gc.isenabled())
        if outcome is Boom:
            raise Boom
        if outcome == 2:
            raise OSError("refused")

    monkeypatch.setattr(reporting, "write_report_files", write)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome is Boom:
            with pytest.raises(Boom):
                run_cli("report", "--data", data_dir, "--out", tmp_path)
        else:
            assert run_cli("report", "--data", data_dir, "--out", tmp_path) == outcome
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("code", [0, 1, 2])
def test_run_freezes_after_the_outputs_and_exits_with_mains_code(data_dir, tmp_path,
                                                                monkeypatch, code):
    """``run`` freezes the tracked objects only once ``main`` has written its
    outputs and errors.txt, then exits with ``main``'s code."""
    data = {0: data_dir, 1: tmp_path, 2: tmp_path / "nowhere"}[code]
    if code == 1:
        write_unresolvable_dataset(tmp_path)
    out = tmp_path / "out"

    def written():
        return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}

    frozen = []  # the files written when each freeze began
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(written()))
    monkeypatch.setattr(sys, "argv", ["agripellet", "sweep", "--data", str(data),
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == code
    assert frozen == [written()]
    assert ("errors.txt" in frozen[0]) is (code != 2)


@pytest.mark.parametrize("code", [0, 2])
def test_module_run_as_a_script_exits_with_mains_code(data_dir, tmp_path, monkeypatch, code):
    """``python -m agripellet.cli`` runs the module's ``__main__`` block, which
    exits through ``run`` with ``main``'s code."""
    data = data_dir if code == 0 else tmp_path / "nowhere"
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr(sys, "argv", ["agripellet", "assess", "--data", str(data),
                                      "--out", str(tmp_path / "out")])
    # the module is imported already, so runpy warns that it runs a second copy
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("agripellet.cli", run_name="__main__")
    assert exc.value.code == code


# a bad cell of another input than the one that names a directory, and its problems
BAD_MAIZE = ("countries.csv", "\nAlbania,Europe,410000.0,", "\nAlbania,Europe,-5,",
             ["countries.csv line 3: prod_maize_t: must be >= 0, got -5.0"])
BAD_RTP = ("crops.csv", "\nmaize,1.0,", "\nmaize,-1,",
           ["crops.csv line 2: rtp: must be > 0, got -1.0", "crops.csv: missing crops ['maize']"])


@pytest.mark.parametrize("target", ["countries.csv", "crops.csv", "fuels.csv", "--config", "yoy"])
def test_a_directory_in_place_of_an_input_exits_2(tmp_path, capsys, target):
    """An input that names a directory is one line of ``error: <OSError message>``,
    exit 2 and no traceback; the problems of the other files are still listed,
    in the order countries.csv, crops.csv, fuels.csv, config."""
    *edit, problems = BAD_RTP if target == "countries.csv" else BAD_MAIZE
    data = copy_data(tmp_path / "data", [edit])
    directory = data / target if target.endswith(".csv") else tmp_path / "input-dir"
    if directory.exists():
        directory.unlink()
    directory.mkdir()
    with pytest.raises(OSError) as refused:  # "[Errno 21] Is a directory: ..." on Linux
        directory.read_bytes()
    out = tmp_path / "out"
    if target == "yoy":
        assert run_cli("yoy", directory, "--out", out) == 2
        expected = [f"error: {refused.value}"]
    else:
        extra = ("--config", directory) if target == "--config" else ()
        assert run_cli("msp", "--data", data, *extra, "--out", out) == 2
        problems = ([refused.value, *problems] if target == "countries.csv"
                    else [*problems, refused.value])
        expected = [f"error: {problem}" for problem in problems]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == expected
    assert not out.exists()


@pytest.mark.parametrize("name", ["crops.csv", "fuels.csv", "config.json"])
def test_a_link_to_a_missing_optional_file_exits_2(tmp_path, capsys, name):
    """An optional input that is a link to a missing file is read, not taken as
    absent: one ``error: missing file: …`` line and exit 2.  With the link
    gone, the run falls back to the defaults."""
    data = copy_data(tmp_path / "data")
    link = data / name
    link.unlink()
    link.symlink_to(tmp_path / "gone" / name)
    out = tmp_path / "out"
    assert run_cli("assess", "--data", data, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: missing file: {link}"]
    assert not out.exists()
    link.unlink()
    assert run_cli("assess", "--data", data, "--out", out) == 0


TINY_CROP_LHV = [("crops.csv", f",{v}\n", ",5e-324\n") for v in ("17.3", "14.6", "17.2")]
# Brazil cut to 1 t of maize, with no livestock or bioenergy: 0.3687 t of residue
BRAZIL_1_T_OF_MAIZE = ("countries.csv", "\nBrazil,South America,88460000.0,11660000.0,"
                       "715660000.0,7870000.0,,,,,224600000.0,5780000.0,20540000.0,42540000.0,"
                       "71300000.0,42481480.18116068,",
                       "\nBrazil,South America,1.0,0.0,0.0,0.0,,,,,0.0,0.0,0.0,0.0,0.0,0.0,")


@pytest.mark.parametrize("command, edits, column", [
    # every crop's heating value is 5e-324 MJ/kg: a ton holds 0.0 TJ at float precision
    ("msp", TINY_CROP_LHV, "msp_usd_per_tj"),
    ("recop", TINY_CROP_LHV, "msp_usd_per_tj"),
    # and Brazil's weighted heating value, 0.3687 * 5e-324 / 0.3687, rounds to 0.0
    ("msp", [*TINY_CROP_LHV, BRAZIL_1_T_OF_MAIZE], "msp_usd_per_tj"),
    ("recop", [*TINY_CROP_LHV, BRAZIL_1_T_OF_MAIZE], "msp_usd_per_tj"),
    ("recop", [("fuels.csv", "coal,23.9,", "coal,5e-324,")], "s_ec_usd_per_y"),
], ids=["msp-crops", "recop-crops", "msp-crops-zero", "recop-crops-zero", "recop-coal"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tiny_heating_value_fails_countries_not_the_run(data_dir, tmp_path, capsys, command,
                                                        edits, column, fmt):
    data = copy_data(tmp_path / "data", edits)
    out = tmp_path / "out"
    assert run_cli(command, "--data", data, "--out", out, "--format", fmt) == 1
    assert "Traceback" not in capsys.readouterr().err
    lines = (out / "errors.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 120  # every country with residue; the other 58 are written
    for line in lines:
        name = line.split(":")[0]
        assert line == f"{name}: non-finite {column} for {name!r}"
    assert f"Brazil: non-finite {column} for 'Brazil'" in lines
    assert_no_non_finite_text(out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_infinite_price_fails_its_country_not_the_run(data_dir, tmp_path, capsys, fmt):
    data = copy_data(tmp_path / "data", [INFINITE_PRICE])
    out = tmp_path / "out"
    code = run_cli("msp", "--data", data, "--out", out, "--format", fmt)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "errors.txt").read_text(encoding="utf-8").splitlines() == [
        "Argentina: non-finite msp_usd_per_t for 'Argentina'"]
    assert_no_non_finite_text(out)


@pytest.mark.parametrize("edits, failed", [
    ([], 0),
    # Afghanistan overflows at assess, Albania's construction index at msp
    ([("countries.csv", "\nAfghanistan,Asia,180000.0,", "\nAfghanistan,Asia,1.7e308,"),
      ("countries.csv", ",1.0521617837106931,1.1124008553550546,",
       ",1.0521617837106931,1.7e308,")], 2),
], ids=["bundled", "failing"])
def test_stage_subcommands_agree_with_report(tmp_path, edits, failed):
    """Each column that assess, msp or recop shares with report's
    countries.csv holds the same cells, for every country both keep; a
    country that a stage fails, each later stage fails too."""
    data = copy_data(tmp_path / "data", edits)
    names = []
    for command in ("assess", "msp", "recop", "report"):
        out = tmp_path / command
        assert run_cli(command, "--data", data, "--out", out) == (1 if failed else 0)
        names.append({line.split(": ")[0]
                      for line in (out / "errors.txt").read_text(encoding="utf-8").splitlines()})
    assert names[0] <= names[1] <= names[2] == names[3]
    assert len(names[0]) == failed // 2 and len(names[2]) == failed
    shared = [assert_stage_agrees_with_report(tmp_path / command / f"{command}.csv",
                                              tmp_path / "report" / "countries.csv")
              for command in ("assess", "msp", "recop")]
    assert shared == [22, 24, 23]


def test_errors_txt_holds_one_line_per_failure(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    fields = len(COUNTRIES_COLUMNS) - 2
    rows = [("Good", "1e6"), ('"Bad\nLand"', "1e308"), ("Zed\u2028Land", "1e308")]
    (data / "countries.csv").write_text(
        ",".join(COUNTRIES_COLUMNS) + "\n"
        + "".join(f"{name},K,{prod}," + ",".join(["0.5"] * (fields - 1)) + "\n"
                  for name, prod in rows), encoding="utf-8")
    assert run_cli("assess", "--data", data, "--out", tmp_path / "out") == 1
    assert (tmp_path / "out" / "errors.txt").read_text(encoding="utf-8") == (
        "'Bad\\nLand': non-finite weighted_lhv_mj_per_kg for 'Bad\\nLand'\n"
        "'Zed\\u2028Land': non-finite weighted_lhv_mj_per_kg for 'Zed\\u2028Land'\n")


def test_yoy_names_a_multi_line_series_on_one_line(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_text('country,year,value\n"A\nB",2000,0\n"A\nB",2001,0\nC,2000,0\nC,2001,0\n',
                      encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("yoy", series, "--out", out) == 1
    assert capsys.readouterr().err == f"2 of 2 series failed (see {out / 'errors.txt'})\n"
    assert (out / "errors.txt").read_text(encoding="utf-8") == (
        "'A\\nB': every base year is zero; growth is undefined\n"
        "C: every base year is zero; growth is undefined\n")


FLOAT_TOTALS = [name for name, kind in get_type_hints(GlobalReport).items() if kind is float]


@pytest.mark.parametrize("case", ["header-only", "every-country-fails"])
def test_totals_over_no_rows_are_floats(data_dir, tmp_path, case):
    """``sum`` of no values is the int 0; every total is a float all the same,
    and no output cell reads a bare 0."""
    data = copy_data(tmp_path / "data")
    with (data / "countries.csv").open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    if case == "header-only":
        rows = []
    else:  # no country has a coal price to resolve a plan's from
        for row in rows:
            row[header.index("price_coal_usd_t")] = ""
    with (data / "countries.csv").open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([header, *rows])
    code = 0 if case == "header-only" else 1

    totals = run_pipeline(load_dataset(data)).global_report
    assert totals.countries_evaluated == 0
    assert len(FLOAT_TOTALS) == 6
    assert all(type(getattr(totals, name)) is float for name in FLOAT_TOTALS)
    out = tmp_path / "out"
    assert run_cli("report", "--data", data, "--out", out / "report") == code
    written = json.loads((out / "report" / "global.json").read_text())["global"]
    assert all(type(written[name]) is float for name in FLOAT_TOTALS)
    for fmt in ("csv", "json"):
        assert run_cli("sweep", "--data", data, "--out", out / fmt, "--format", fmt) == code
    for path in [*(out / "report").glob("*.csv"), *(out / "csv").glob("*.csv")]:
        with path.open(newline="", encoding="utf-8") as f:
            assert "0" not in {cell for row in csv.reader(f) for cell in row}, path.name

    def no_int(text):
        raise AssertionError(f"sensitivity.json holds the int {text}")

    json.loads((out / "json" / "sensitivity.json").read_text(), parse_int=no_int)
