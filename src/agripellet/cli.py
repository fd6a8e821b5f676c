"""Command-line entry point.

Subcommands
-----------
assess   residue availability and pellet energy per country
msp      plant costs and the break-even pellet selling price per country
recop    fuel replacement plans (ranking, allocation, savings) per country
sweep    fossil-price x pellet-price sensitivity grid of global savings
report   full pipeline: countries.csv, global.json, errors.txt, plot CSVs
yoy      year-on-year growth statistics for an annual production series

The data directory defaults to $AGRIPELLET_DATA, then the current directory.
Exit code is 0 only when every country (for yoy, every series) evaluated
cleanly.  Every subcommand writes errors.txt once past loading, a line per
failure; it is empty on a clean run.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial
from pathlib import Path

from . import reporting, sensitivity
from .dataio import SCENARIOS, DataError, load_dataset, load_series
from .pipeline import STAGE_ASSESS, STAGE_MSP, STAGE_PLAN, run_pipeline
from .yoy import yoy_growth

DATA_DIR_ENV = "AGRIPELLET_DATA"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agripellet",
        description="Country-level techno-economic model for agricultural residue pellets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--data", default=None,
                        help=f"input data directory (default: ${DATA_DIR_ENV} or '.')")
    inputs.add_argument("--config", default=None, help="path to a config JSON file")
    inputs.add_argument("--country", action="append", default=None, metavar="NAME",
                        help="restrict to the named country (repeatable)")
    scenario = argparse.ArgumentParser(add_help=False)  # only where a plan is ranked
    scenario.add_argument("--scenario", choices=SCENARIOS, default=None,
                          help="replacement ranking objective (overrides config)")
    scenario.add_argument("--carbon-tax", type=float, default=None, metavar="USD_PER_TCO2E",
                          help="carbon tax for scenario C (overrides config)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default="out", help="output directory (default: ./out)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output format (default: csv)")
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("series", help="CSV with columns country,year,value (country optional)")

    # each handler returns its (name, message) failures and its count of clean evaluations
    for name, text, parents, handler, noun in (
        ("assess", "residue availability and pellet energy", [inputs, out, fmt],
         partial(_run_stage, STAGE_ASSESS, reporting.ASSESS_COLUMNS), "countries"),
        ("msp", "plant costs and break-even pellet price", [inputs, out, fmt],
         partial(_run_stage, STAGE_MSP, reporting.MSP_COLUMNS), "countries"),
        ("recop", "fuel replacement plans and savings", [inputs, scenario, out, fmt],
         partial(_run_stage, STAGE_PLAN, reporting.RECOP_COLUMNS), "countries"),
        ("sweep", "sensitivity grid of global savings", [inputs, out, fmt], _run_sweep,
         "countries"),
        ("report", "full pipeline report (CSVs and global.json)", [inputs, scenario, out],
         _run_report, "countries"),
        ("yoy", "year-on-year growth statistics", [out, fmt, series], _run_yoy, "series"),
    ):
        sub.add_parser(name, parents=parents, help=text).set_defaults(handler=handler, noun=noun)
    return parser


def _load(args):
    data_dir = args.data or os.environ.get(DATA_DIR_ENV) or "."
    dataset = load_dataset(data_dir, config=args.config)
    # --scenario and --carbon-tax exist only on the subcommands that rank plans
    overrides = {key: value for key in ("scenario", "carbon_tax")
                 if (value := getattr(args, key, None)) is not None}
    if overrides:
        dataset = dataset._replace(config=dataset.config._replace(**overrides))
    return dataset


def _outcome(result) -> tuple:
    return result.errors, result.global_report.countries_evaluated


def _run_stage(stage: str, columns: tuple, args) -> tuple:
    """One per-country stage, written to ``<subcommand>.<format>``."""
    result = run_pipeline(_load(args), through=stage, countries=args.country)
    path = args.out / f"{args.command}.{args.format}"
    reporting.write_table(path, columns, result)
    print(f"wrote {path} ({result.global_report.countries_evaluated} countries)")
    return _outcome(result)


def _run_sweep(args) -> tuple:
    grid = sensitivity.sweep(_load(args), countries=args.country)
    paths = reporting.write_sweep_files(args.out, grid, args.format)
    print("wrote " + " and ".join(map(str, paths)))
    return _outcome(grid.baseline)


def _run_report(args) -> tuple:
    result = run_pipeline(_load(args), through=STAGE_PLAN, countries=args.country)
    reporting.write_report_files(args.out, result)
    print(f"wrote report for {result.global_report.countries_evaluated} countries to {args.out}")
    return _outcome(result)


def _run_yoy(args) -> tuple:
    series = load_series(args.series)
    results, failures = {}, []
    for name in sorted(series):
        try:
            results[name] = yoy_growth(series[name])
        except DataError as exc:
            failures.append((name, str(exc)))
    print(f"wrote {reporting.write_yoy_file(args.out, results, failures, args.format)}")
    return failures, len(results)


def _finish(errors: list, evaluated: int, out_dir: Path, noun: str) -> int:
    """Write ``errors.txt`` (empty on a clean run) and give the exit code."""
    reporting.write_errors_txt(out_dir / "errors.txt", errors)
    if errors:
        print(f"{len(errors)} of {len(errors) + evaluated} {noun} failed "
              f"(see {out_dir / 'errors.txt'})", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a command builds long-lived lists and tuples and leaves almost no cyclic
    # garbage, so the cyclic collector would only re-scan them
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _finish(*args.handler(args), args.out, args.noun)
    except DataError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path the system refuses, e.g. an --out that names a file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    """The process entry, of ``python -m agripellet.cli`` and the
    ``agripellet`` script: ``main``, then exit with its code.  Every object
    still tracked is frozen first, so the interpreter's collections at
    shutdown do not scan them again; atexit handlers still run.  ``main``
    called in-process freezes nothing."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
