"""The streamed per-country writer against the reference writer in ``oracles``."""

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agripellet import reporting
from agripellet.pipeline import PipelineResult, run_pipeline

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


def assert_matches_oracle(result) -> dict:
    """The two writers give the same file set, byte for byte; the streamed files."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new", Path(tmp) / "old"
        write_outputs(reporting, new, result)
        write_outputs(oracles, old, result)
        written, expected = files(new), files(old)
    assert list(written) == list(expected)
    for name in written:
        assert written[name] == expected[name], name
    return written


def renamed(report, name: str):
    return dataclasses.replace(report, country=name, values={**report.values, "country": name})


def copies(result, count: int, errors=()):
    """``count`` renamed copies of the result's reports, planned and plan-less in turn."""
    planned = next(r for r in result.reports if "rank_1" in r.values)
    planless = next(r for r in result.reports if "rank_1" not in r.values)
    reports = tuple(renamed((planned, planless)[i % 2], f"C{i:05d}") for i in range(count))
    return PipelineResult(reports, result.global_report, tuple(errors))


names = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "\u2028", "é", "€", "😀"]),
                          st.characters(blacklist_categories=("Cs",))),
                min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(st.lists(names, min_size=1, max_size=4), st.lists(names, max_size=2))
def test_any_country_name_is_written_as_the_oracle_writes_it(bundled, countries, failed):
    base = copies(bundled, len(countries))
    reports = tuple(renamed(r, name) for r, name in zip(base.reports, countries))
    errors = tuple((name, f"no data for {name!r}") for name in failed)
    assert_matches_oracle(PipelineResult(reports, bundled.global_report, errors))


@pytest.mark.parametrize("count", [0, 1, reporting._BLOCK, reporting._BLOCK + 1])
def test_block_edges_match_the_oracle(bundled, count):
    written = assert_matches_oracle(copies(bundled, count, errors=[("Z", "failed")]))
    assert written["report/countries.csv"].count(b"\r\n") == 1 + count
    assert written["report/global.json"].count(b'\n{"country":"C') == count


def test_all_failed_run_writes_headers_and_an_empty_list(bundled):
    written = assert_matches_oracle(copies(bundled, 0, errors=[("A", "x"), ("B", "y")]))
    assert written["report/countries.csv"] == ",".join(reporting.REPORT_COLUMNS).encode() + b"\r\n"
    assert b'\n"countries":[],\n' in written["report/global.json"]
    assert b'"countries":[],' in written["msp.json"]


@pytest.mark.parametrize("column, value, name, cell", [
    ("cr_final_t", 1e308, "report/countries.csv", b",1e+308,"),  # a sum that overflows
    ("carbon_tax_usd_per_tco2e", 50, "recop.csv", b",50,"),  # a config's "carbon_tax": 50
])
def test_edited_values_match_the_oracle(bundled, column, value, name, cell):
    result = copies(bundled, 3)
    reports = tuple(dataclasses.replace(r, values={**r.values, column: value})
                    for r in result.reports)
    written = assert_matches_oracle(dataclasses.replace(result, reports=reports))
    assert written[name].count(cell) == 3


@pytest.mark.parametrize("bad", [
    # one NaN and one infinity, in columns of floats
    ({"pellet_energy_tj": math.nan}, {"discount_rate": math.inf}),
    # beside a plan-less country's empty cell
    ({"s_ec_usd_per_y": -math.inf}, {}),
], ids=["nan-and-inf", "beside-empty-cell"])
def test_non_finite_value_raises_and_leaves_no_file(bundled, tmp_path, bad):
    result = copies(bundled, 2)
    reports = tuple(dataclasses.replace(r, values={**r.values, **change})
                    for r, change in zip(result.reports, bad))
    result = dataclasses.replace(result, reports=reports)
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
