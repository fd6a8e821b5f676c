"""agripellet benchmark: seeded workloads run through the real CLI.

One closed-loop client: each timed run is a fresh ``python -m agripellet.cli``
subprocess, started only after the previous one exited and its outputs were
checked.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced runs; ``--trace 1`` alternates untraced runs with runs under
``tracer.py`` and reports the per-layer metrics.  Run from the repository
root::

    python3 perfbench/run.py --workload report_sparse_x20 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are given at a reference CPU speed.  On a shared host the speed a CPU
delivers drifts by up to 2x within seconds, so every child runs pinned to
one CPU beside ``calibrate.py``, which measures the speed that CPU delivered
over the same interval.  A time is its measured wall time multiplied by
measured speed / REFERENCE_SPEED; the raw wall times are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLE = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 3              # timed runs per benchmark run, whatever --seconds says
SETUP_PROBES_PER_RUN = 3  # import probes after each timed run, for setup_s
CHILD_TIMEOUT_S = 150
CPU = max(os.sched_getaffinity(0))  # children and the calibrator share this CPU
CALIBRATOR_NICENESS = 10  # the calibrator takes about a tenth of the CPU
REFERENCE_SPEED = 14000.0  # calibrate.py chunks per CPU second on an idle 2 GHz Xeon vCPU


@dataclass
class Prepared:
    """A workload's generated inputs, how to run it, and how to check it."""

    cli_args: list    # agripellet arguments, without --out
    check: object     # out_dir -> list of problems
    countries: int    # countries in the input
    operations: int   # countries (report) or grid cells (sweep) per run
    cells: int        # grid cells x countries; a report is a one-cell grid


@dataclass
class Sample:
    wall_s: float      # at reference CPU speed
    raw_wall_s: float
    rss_mb: float
    problems: list


def child_env() -> dict:
    """Children import the checkout's package and keep compiled bytecode in WORK,
    so only the first child compiles, as after an install."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Calibrated:
    """Runs calibrate.py on CPU for the duration of a ``with`` block.

    After the block, ``factor`` is the speed the CPU delivered relative to
    REFERENCE_SPEED; multiplying a time measured inside the block by it gives
    the time at reference speed.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), str(CPU), str(CALIBRATOR_NICENESS)],
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("calibrate.py did not start")
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate()
        chunks, cpu_s = out.split()
        if int(chunks) == 0:
            raise RuntimeError("calibrate.py completed no chunk")
        self.factor = int(chunks) / float(cpu_s) / REFERENCE_SPEED


def _pin_to_cpu():
    os.sched_setaffinity(0, {CPU})


def spawn(argv: list, log_path: Path) -> tuple:
    """Run one child on CPU to completion: (wall seconds, max RSS MB, exit code)."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, preexec_fn=_pin_to_cpu)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "agripellet.cli", *args]


def prepare(workload: workloads.Workload, seed: int, work: Path) -> Prepared:
    data = work / "data"
    if workload.copies:
        factors = workloads.make_sparse(BUNDLE, data, seed, workload.copies)
        ref_out = work / "bundle_report"
        _, _, code = spawn(cli_argv(["report", "--data", str(BUNDLE), "--out", str(ref_out)]),
                           work / "bundle_report.log")
        if code != 0:
            raise RuntimeError(f"report on the bundled data exited with {code}")
        reference = checks.bundle_reference(ref_out)
        problems = checks.check_bundle_reference(reference)
        if problems:
            raise RuntimeError(problems[0])
        countries = len(factors) * len(reference["msp"])
        return Prepared(["report", "--data", str(data)],
                        lambda out: checks.check_sparse(out, factors, reference),
                        countries, countries, countries)
    if workload.countries:
        consumption = workloads.make_dense(BUNDLE, data, seed, workload.countries)
        return Prepared(["report", "--data", str(data)],
                        lambda out: checks.check_dense(out, consumption),
                        workload.countries, workload.countries, workload.countries)
    config_path = work / "grid.json"
    config = workloads.make_sweep(BUNDLE, data, config_path, seed,
                                  workload.multipliers, workload.prices)
    countries = len(workloads.read_bundle(BUNDLE)[1])
    grid = workload.multipliers * workload.prices
    return Prepared(["sweep", "--data", str(data), "--config", str(config_path)],
                    lambda out: checks.check_sweep(out, config),
                    countries, grid, grid * countries)


class Loop:
    """Closed loop of checked runs; every run's outputs must match the first's."""

    def __init__(self, prep: Prepared, work: Path):
        self.prep = prep
        self.work = work
        self.out = work / "out"
        self.digest = None
        self.runs = 0

    def run(self, argv: list) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        self.runs += 1
        with Calibrated() as cal:
            wall, rss, code = spawn(argv + ["--out", str(self.out)],
                                    self.work / f"run{self.runs}.log")
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            problems += self.prep.check(self.out)
            digest = checks.output_digest(self.out)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        else:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("outputs differ from the first run with the same seed")
        return Sample(wall * cal.factor, wall, rss, problems)


def keep_going(started: float, seconds: float, done: int, minimum: int) -> bool:
    """Start another round if it should finish inside ``seconds``."""
    elapsed = time.perf_counter() - started
    return done < minimum or elapsed + elapsed / done <= seconds


def setup_probes(work: Path, count: int) -> list:
    """Seconds, at reference speed, to start Python and import agripellet.cli."""
    walls = []
    with Calibrated() as cal:
        for _ in range(count):
            wall, _, code = spawn([sys.executable, "-c", "import agripellet.cli"],
                                  work / "setup_probe.log")
            if code != 0:
                raise RuntimeError(f"import agripellet.cli exited with {code}")
            walls.append(wall)
    return [w * cal.factor for w in walls]


def measure_end_to_end(prep: Prepared, loop: Loop, seconds: float) -> tuple:
    setup_probes(loop.work, 1)  # fills the bytecode cache, as an install would
    samples, probes = [], []
    started = time.perf_counter()
    while keep_going(started, seconds, len(samples), MIN_RUNS):
        samples.append(loop.run(cli_argv(prep.cli_args)))
        probes += setup_probes(loop.work, SETUP_PROBES_PER_RUN)
    walls = [s.wall_s for s in samples]
    wall = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    raw = statistics.median(s.raw_wall_s for s in samples)
    metrics = {
        "wall_s": wall,
        "countries_per_s": prep.countries / wall,
        "cells_per_s": prep.cells / wall,
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(probes),
    }
    notes = {"wall_s": f"median of n={len(walls)}, q1 {q1:.4f}, q3 {q3:.4f}; "
                       f"raw wall median {raw:.4f} s",
             "setup_s": f"median of n={len(probes)} import probes"}
    return samples, metrics, notes


def measure_per_layer(prep: Prepared, loop: Loop, seconds: float, group: list) -> tuple:
    names = [m["name"] for m in group if m["name"] != "trace.overhead_s"]
    timed = {m["name"] for m in group if m["unit"] == "s"}
    spans_path = loop.work / "trace_spans.json"
    traced_argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--",
                   *prep.cli_args]
    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while keep_going(started, seconds, len(traced), 1):
        plain.append(loop.run(cli_argv(prep.cli_args)))
        spans_path.unlink(missing_ok=True)
        traced.append(loop.run(traced_argv))
        if not spans_path.is_file():
            traced[-1].problems.append("the traced run wrote no trace file")
            continue
        calls, self_s, counts = tracer.summarize(
            json.loads(spans_path.read_text(encoding="utf-8")))
        layers.append({n: tracer.layer_metric(n, calls, self_s, counts, prep.countries)
                       for n in names})
    if not layers:
        raise RuntimeError("no traced run wrote a trace file")
    metrics = {n: statistics.median(run[n] for run in layers) for n in layers[0]}
    # self times, like wall_s, at reference speed: the traced runs' median factor
    factor = statistics.median(s.wall_s / s.raw_wall_s for s in traced)
    metrics.update({n: metrics[n] * factor for n in metrics if n in timed})
    metrics["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                   - statistics.median(s.wall_s for s in plain))
    notes = {"trace.overhead_s": f"{len(traced)} traced and {len(plain)} untraced runs; "
                                 f"spans of the last traced run in {spans_path}"}
    return plain + traced, metrics, notes


def run_workload(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
                 spec: dict, work: Path) -> dict:
    """One benchmark run of one workload in ``work``; returns the result object."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prep = prepare(workload, seed, work)
    loop = Loop(prep, work)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        samples, values, notes = measure_per_layer(prep, loop, seconds, group)
    else:
        samples, values, notes = measure_end_to_end(prep, loop, seconds)
    shutil.rmtree(loop.out, ignore_errors=True)
    shutil.rmtree(work / "data", ignore_errors=True)

    attempted = prep.operations * len(samples)
    failed = prep.operations * sum(1 for s in samples if s.problems)
    print(f"{workload.name} seed={seed}: {len(samples)} runs, one closed-loop client")
    for m in group:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<14} {note}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} "
          f"{'ratio':<14} {failed} of {attempted} operations")
    for s in samples:
        for problem in s.problems:
            print(f"  problem: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in group},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "agripellet" / "cli.py", BUNDLE / "countries.csv",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: not an agripellet checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(workloads.WORKLOADS[n], args.seed, args.seconds,
                                   bool(args.trace), spec, WORK / n) for n in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
