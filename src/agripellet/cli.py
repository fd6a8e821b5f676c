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
Exit code is 0 only when every country evaluated cleanly.  Every subcommand
but yoy writes errors.txt once past loading; it is empty on a clean run.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import reporting, sensitivity
from .dataio import SCENARIOS, DataError, load_dataset, load_series
from .pipeline import STAGE_ASSESS, STAGE_MSP, STAGE_PLAN, run_pipeline, yoy_growth

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
    out.add_argument("--out", default="out", help="output directory (default: ./out)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output format (default: csv)")

    for name, text, parents in (
        ("assess", "residue availability and pellet energy", [inputs, out, fmt]),
        ("msp", "plant costs and break-even pellet price", [inputs, out, fmt]),
        ("recop", "fuel replacement plans and savings", [inputs, scenario, out, fmt]),
        ("sweep", "sensitivity grid of global savings", [inputs, out, fmt]),
        ("report", "full pipeline report (CSVs and global.json)", [inputs, scenario, out]),
    ):
        sub.add_parser(name, parents=parents, help=text)

    yoy = sub.add_parser("yoy", parents=[out, fmt], help="year-on-year growth statistics")
    yoy.add_argument("series", help="CSV with columns country,year,value (country optional)")
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


def _finish(result, out_dir: Path) -> int:
    """Write ``errors.txt`` (empty on a clean run) and give the exit code."""
    reporting.write_errors_txt(out_dir / "errors.txt", result)
    if result.errors:
        print(f"{len(result.errors)} of "
              f"{len(result.errors) + result.global_report.countries_evaluated} countries failed "
              f"(see {out_dir / 'errors.txt'})", file=sys.stderr)
        return 1
    return 0


def _run_stage(args, stage: str, columns: tuple, stem: str) -> int:
    dataset = _load(args)
    result = run_pipeline(dataset, through=stage, countries=args.country)
    out_dir = Path(args.out)
    reporting.write_table(out_dir / f"{stem}.{args.format}", columns, result)
    print(f"wrote {out_dir / (stem + '.' + args.format)} "
          f"({result.global_report.countries_evaluated} countries)")
    return _finish(result, out_dir)


def cmd_assess(args) -> int:
    return _run_stage(args, STAGE_ASSESS, reporting.ASSESS_COLUMNS, "assess")


def cmd_msp(args) -> int:
    return _run_stage(args, STAGE_MSP, reporting.MSP_COLUMNS, "msp")


def cmd_recop(args) -> int:
    return _run_stage(args, STAGE_PLAN, reporting.RECOP_COLUMNS, "recop")


def cmd_sweep(args) -> int:
    dataset = _load(args)
    grid = sensitivity.sweep(dataset, countries=args.country)
    out_dir = Path(args.out)
    paths = reporting.write_sweep_files(out_dir, grid, args.format)
    print("wrote " + " and ".join(map(str, paths)))
    return _finish(grid.baseline, out_dir)


def cmd_report(args) -> int:
    dataset = _load(args)
    result = run_pipeline(dataset, through=STAGE_PLAN, countries=args.country)
    out_dir = Path(args.out)
    reporting.write_report_files(out_dir, result)
    print(f"wrote report for {result.global_report.countries_evaluated} countries to {out_dir}")
    return _finish(result, out_dir)


def cmd_yoy(args) -> int:
    series = load_series(args.series)
    results = {}
    failures = []
    for name in sorted(series):
        try:
            results[name] = yoy_growth(series[name])
        except DataError as exc:
            failures.append((name, str(exc)))
    path = reporting.write_yoy_file(args.out, results, failures, args.format)
    print(f"wrote {path}")
    for name, message in failures:
        print(f"{reporting.one_line(name)}: {message}", file=sys.stderr)
    return 1 if failures else 0


COMMANDS = {
    "assess": cmd_assess,
    "msp": cmd_msp,
    "recop": cmd_recop,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "yoy": cmd_yoy,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a command builds long-lived lists and tuples and leaves almost no cyclic
    # garbage, so the cyclic collector would only re-scan them
    enabled = gc.isenabled()
    gc.disable()
    try:
        return COMMANDS[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())
