"""Traced run: time each agripellet module from outside, through its public functions.

Wrappers replace each traced function on the module whose code looks the
name up at call time (``agripellet.pipeline.resolve``, not only
``agripellet.dataio.resolve``), record one span per call and restore every
attribute afterwards.  Spans and counts stay in memory and are written to one
JSON file when the run ends.

Run as a child process, with the package importable::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- report --data DIR --out DIR
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module whose code looks the name up, attribute, span name)
PATCHES = (
    ("agripellet.cli", "load_dataset", "dataio.load_dataset"),
    ("agripellet.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("agripellet.sensitivity", "run_pipeline", "pipeline.run_pipeline"),
    ("agripellet.pipeline", "evaluate_country", "pipeline.evaluate_country"),
    ("agripellet.sensitivity", "evaluate_country", "pipeline.evaluate_country"),
    ("agripellet.pipeline", "resolve", "dataio.resolve"),
    ("agripellet.sensitivity", "resolve", "dataio.resolve"),
    ("agripellet.residues", "assess_country", "residues.assess_country"),
    ("agripellet.energy", "energy_for", "energy.energy_for"),
    ("agripellet.costs", "estimate_costs", "costs.estimate_costs"),
    ("agripellet.pricing", "solve_msp", "pricing.solve_msp"),
    ("agripellet.pricing", "solve_msp_bisection", "pricing.solve_msp_bisection"),
    ("agripellet.replacement", "build_economics", "replacement.build_economics"),
    ("agripellet.replacement", "build_plan", "replacement.build_plan"),
    ("agripellet.sensitivity", "sweep", "sensitivity.sweep"),
    ("agripellet.sensitivity", "prepare_countries", "sensitivity.prepare_countries"),
    ("agripellet.sensitivity", "cell_savings", "sensitivity.cell_savings"),
    ("agripellet.reporting", "write_report_files", "reporting.write_report_files"),
    ("agripellet.reporting", "write_sensitivity_files", "reporting.write_sensitivity_files"),
    ("agripellet.reporting", "report_rows", "reporting.report_rows"),
    ("agripellet.reporting", "global_payload", "reporting.global_payload"),
    ("agripellet.reporting", "write_json", "reporting.write_json"),
    ("agripellet.reporting", "write_csv", "reporting.write_csv"),
)


def _count_tier(counts, name, args, result):
    counts[f"{name}.tier.{result[1]}"] += 1


def _count_bytes(counts, name, args, result):
    counts[f"{name}.bytes"] += os.path.getsize(args[0])


# Counts taken from a call's arguments or result, by span name.
AFTER_CALL = {
    "dataio.resolve": _count_tier,
    "reporting.write_json": _count_bytes,
    "reporting.write_csv": _count_bytes,
}


class Recorder:
    """Spans as ``[name, start, end, parent index]`` (-1 for a root) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = AFTER_CALL.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, name, args, result)
            return result

        return traced


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install a wrapper for every entry of PATCHES; restore all on exit.

    A function missing from the package is skipped, so its metrics read 0.
    """
    saved = []
    try:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_traced(spans_path: str, cli_args: list) -> int:
    """Run ``agripellet.cli.main`` under the wrappers and write the trace file."""
    from agripellet import cli

    recorder = Recorder()
    try:
        with installed(recorder):
            code = recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"spans": recorder.spans, "counts": recorder.counts}))
    return code


def summarize(trace: dict) -> tuple:
    """(calls, self seconds, counts) per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous and single-threaded, so children never
    overlap each other.
    """
    calls = Counter()
    self_s = defaultdict(float)
    spans = trace["spans"]
    for name, start, end, parent in spans:
        calls[name] += 1
        self_s[name] += end - start
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
    return calls, self_s, Counter(trace["counts"])


def layer_metric(metric: str, calls, self_s, counts, countries: int) -> float:
    """Value of one per-layer metric named ``<module>.<function>.<kind>``."""
    span, kind = metric.rsplit(".", 1)
    if kind in ("s", "self_s"):
        return self_s[span]
    if kind == "calls":
        return calls[span]
    if kind == "calls_per_country":
        return calls[span] / countries
    if kind == "bytes":
        return counts[f"{span}.bytes"]
    if kind == "fallback_calls":
        prefix = f"{span}.tier."
        return sum(n for key, n in counts.items()
                   if key.startswith(prefix) and key != prefix + "country")
    raise KeyError(f"no rule for per-layer metric {metric!r}")


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <agripellet arguments>")
    sys.exit(run_traced(sys.argv[1], sys.argv[3:]))
