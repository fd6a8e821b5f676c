"""Tests of the benchmark itself: generators, output checks, tracer, smoke runs.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from agripellet import cli

BUNDLE = run.BUNDLE
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "report_sparse_x20": {"copies": 2},
    "report_dense_5k": {"countries": 40},
    "sweep_fine_x1": {"multipliers": 3, "prices": 4},
}


def tiny(name):
    return replace(workloads.WORKLOADS[name], **TINY[name])


def generate(name, seed, out):
    w = tiny(name)
    if name == "report_sparse_x20":
        return workloads.make_sparse(BUNDLE, out, seed, w.copies)
    if name == "report_dense_5k":
        return workloads.make_dense(BUNDLE, out, seed, w.countries)
    return workloads.make_sweep(BUNDLE, out, out / "grid.json", seed, w.multipliers, w.prices)


def file_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    generate(name, 7, tmp_path / "a")
    generate(name, 7, tmp_path / "b")
    generate(name, 8, tmp_path / "c")
    assert file_bytes(tmp_path / "a") == file_bytes(tmp_path / "b")
    assert file_bytes(tmp_path / "a") != file_bytes(tmp_path / "c")


def test_sparse_copies_keep_empty_cells_and_intensive_columns(tmp_path):
    factors = generate("report_sparse_x20", 3, tmp_path)
    header, bundle_rows = workloads.read_bundle(BUNDLE)
    _, rows = workloads.read_bundle(tmp_path)
    assert len(rows) == len(factors) * len(bundle_rows)
    assert all(0.5 <= s <= 1.5 for s in factors)
    for j, s in enumerate(factors):
        for original, copy in zip(bundle_rows, rows[j * len(bundle_rows):]):
            assert copy[0] == f"{original[0]} #{j + 1}"
            for col, a, b in zip(header[1:], original[1:], copy[1:]):
                if col in workloads.EXTENSIVE_COLUMNS and a.strip():
                    assert float(b) == pytest.approx(float(a) * s, rel=1e-15)
                else:
                    assert a == b


def cli_outputs(tmp_path, args):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    return out


def edit_global(out, key, factor):
    path = out / "global.json"
    payload = json.loads(path.read_text())
    payload["global"][key] *= factor
    path.write_text(json.dumps(payload))


def edit_csv(path, row_index, column, value):
    with path.open(newline="") as f:
        rows = list(csv.DictReader(f))
    rows[row_index][column] = value
    with path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_sparse_check_rejects_corrupted_outputs(tmp_path):
    bundle_out = cli_outputs(tmp_path / "ref", ["report", "--data", str(BUNDLE)])
    reference = checks.bundle_reference(bundle_out)
    assert checks.check_bundle_reference(reference) == []
    factors = generate("report_sparse_x20", 1, tmp_path / "data")
    out = cli_outputs(tmp_path, ["report", "--data", str(tmp_path / "data")])
    assert checks.check_sparse(out, factors, reference) == []
    edit_global(out, "s_ec_usd_per_y", 1 + 1e-6)
    assert checks.check_sparse(out, factors, reference)

    out = cli_outputs(tmp_path / "again", ["report", "--data", str(tmp_path / "data")])
    edit_csv(out / "countries.csv", 5, "msp_usd_per_t", "1.0")
    assert checks.check_sparse(out, factors, reference)

    far = {"totals": dict(reference["totals"], cr_final_t=1.3e9), "msp": reference["msp"]}
    assert checks.check_bundle_reference(far)


def test_dense_check_rejects_corrupted_outputs(tmp_path):
    consumption = generate("report_dense_5k", 1, tmp_path / "data")
    out = cli_outputs(tmp_path, ["report", "--data", str(tmp_path / "data")])
    assert checks.check_dense(out, consumption) == []
    edit_global(out, "cr_final_t", 1 + 1e-6)
    assert checks.check_dense(out, consumption)

    for column, value in (("alloc_coal_tj", "1e12"), ("npv_at_msp_usd", "0.5"),
                          ("replaced_oil_frac", "1.5")):
        out = cli_outputs(tmp_path / column, ["report", "--data", str(tmp_path / "data")])
        edit_csv(out / "countries.csv", 3, column, value)
        assert checks.check_dense(out, consumption), column


def test_sweep_check_rejects_corrupted_outputs(tmp_path):
    data = tmp_path / "data"
    config = generate("sweep_fine_x1", 1, data)
    args = ["sweep", "--data", str(data), "--config", str(data / "grid.json")]
    out = cli_outputs(tmp_path, args)
    assert checks.check_sweep(out, config) == []
    # rows are multiplier-major: row 1 is (m0, p1), which must lie below (m0, p0)
    edit_csv(out / "sensitivity_long.csv", 1, "s_ec_usd_per_y", "1e15")
    assert any("does not fall" in p for p in checks.check_sweep(out, config))

    out = cli_outputs(tmp_path / "em", args)
    edit_csv(out / "sensitivity_long.csv", 2, "s_em_kgco2e_per_y", "1.0")
    assert checks.check_sweep(out, config) == ["s_em differs between grid cells"]


def test_no_wrapper_left_installed_after_traced_run(tmp_path):
    def current():
        return [getattr(__import__(m, fromlist=[a]), a) for m, a, _ in tracer.PATCHES]

    before = current()
    spans = tmp_path / "spans.json"
    code = tracer.run_traced(str(spans), ["report", "--data", str(BUNDLE),
                                          "--out", str(tmp_path / "out")])
    assert code == 0
    assert current() == before
    trace = json.loads(spans.read_text())
    calls, self_s, counts = tracer.summarize(trace)
    assert calls["cli.main"] == 1
    assert calls["pipeline.evaluate_country"] == 178
    assert tracer.layer_metric("dataio.resolve.fallback_calls", calls, self_s, counts, 178) > 0
    # a failing run restores the wrappers too
    with pytest.raises(SystemExit):
        tracer.run_traced(str(spans), ["no-such-subcommand"])
    assert current() == before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name, trace, tmp_path, capsys):
    result = run.run_workload(tiny(name), seed=5, seconds=0, trace=bool(trace),
                              spec=SPEC, work=tmp_path)
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in group}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name == "report_dense_5k":
        assert values["dataio.resolve.fallback_calls"] == 0
    elif name == "report_sparse_x20":
        assert values["dataio.resolve.fallback_calls"] > 0
    else:
        assert values["pipeline.evaluate_country.calls_per_country"] == 2.0
        assert values["sensitivity.cell_savings.calls"] == 12
