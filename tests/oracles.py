"""Reference implementations that tests compare the package with.

``evaluate_country`` and ``run_pipeline`` evaluate one country at a time,
each through every stage into one record, against which the column-by-column
``agripellet.pipeline.run_pipeline`` is compared value by value: each stage's
column function runs on the country's one row, so what they check is the
pipeline's own work, how and in which order a country resolves its fields and
meets its first failure, its non-finite check and the global totals.  A field
resolves by ``scan_resolve``, its own scan of the field's column on each call,
which shares no code with ``agripellet.dataio.resolve_column``.  The
plan stage is the exception: it runs through ``plan``, the replacement plan
computed one country at a time, which ``agripellet.replacement.plan_columns``
computes as whole columns.
``reports`` cuts a pipeline result's columns into the same per-country
records, for the tests that read one country at a time.  The
break-even solver as plain loops, linear in the horizon but plainly right
and sharing no code with the package, checks the closed forms in
``agripellet.pricing``, on plants given as ``BreakEvenInputs``, which
checks each input against the bound that the loader, the ``Dataset`` table
check and ``ModelConfig`` hold it to; one plant's ``salvage_value`` and
``depreciation`` are its formulas, which ``agripellet.pricing.msp_columns``
computes as whole columns; ``format_cell`` spells out, one value
at a time, the CSV cell each typed value is written as;
and the reference writer builds each output file the plain way, typed rows
through ``csv.writer`` and whole dicts through ``json``, against which
``agripellet.reporting``'s streamed writer is compared byte for byte: the
per-country files, the sweep's and ``yoy``'s.  ``save_dataset`` writes a
dataset back to its input files for the loader's round-trip tests.  The
reference loader reads each table row by row, every cell of a row parsed and
checked before the next, and turns the countries' rows into the columns of
``Dataset.countries`` at the end; ``agripellet.dataio``'s column reader must
give the same values, and the same problems in the same order.
"""

import csv
import json
import math
import os
import statistics
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

from agripellet import costs, energy, pricing, replacement, residues
from agripellet.dataio import (ANIMALS, BELOW_ONE, COUNTRIES_COLUMNS, COUNTRIES_KEYS, CROP_FIELDS,
                               CROPS, CROPS_COLUMNS, DEFAULT_PELLET_EF, FIELDS,
                               FUEL_FIELDS, FUELS, FUELS_COLUMNS, HORIZON, NONNEGATIVE,
                               POSITIVE, CropCoefficients, DataError,
                               Dataset, Field, FuelProperties, ModelConfig, _read_rows,
                               default_crops, default_fuel_properties, load_config,
                               parse_cell)
from agripellet.pipeline import _STAGE_ORDER, STAGE_PLAN, GlobalReport
from agripellet.replacement import PLAN_COLUMNS
from agripellet.reporting import _SAME_AS, PLOT_COLUMNS, REPORT_COLUMNS
from agripellet.sensitivity import axis_label
from conftest import PLI_COMPONENTS

BISECTION_BRACKET = (0.0, 1e6)  # $/t


def left_sum(values) -> float:
    """The values added one at a time from 0.0, left to right, as the package
    adds every float sum; ``sum`` compensates its rounding since Python 3.12,
    so it can differ in the last digits."""
    total = 0.0
    for value in values:
        total += value
    return total


class CountryReport(NamedTuple):
    country: str
    values: dict  # output column name -> typed value, for each column its stage computes


def reports(result) -> tuple:
    """One ``CountryReport`` per evaluated country of a ``PipelineResult``,
    built from its columns; a country without a plan has no plan columns."""
    columns = result.columns
    plan = columns.get("rank_1")
    unplanned = {name: col for name, col in columns.items() if name not in PLAN_COLUMNS}
    return tuple(
        CountryReport(country, {name: col[row] for name, col in
                                (columns if plan and plan[row] is not None
                                 else unplanned).items()})
        for row, country in enumerate(columns["country"]))


class OracleResult(NamedTuple):
    reports: tuple       # CountryReport, sorted by country name
    global_report: GlobalReport
    errors: tuple        # (country, message), sorted by country name


def scan_resolve(dataset: Dataset, row: int, name: str) -> tuple:
    """``(value, fallback tier)`` of one field of the country at ``row``, from
    a scan of the field's column on each call: the country's own value, else a
    dry matter's crop default, else the mean of its continent's values, else
    the world's.  A field that no country carries raises a ``DataError``."""
    countries = dataset.countries
    column, continents = countries[name], countries["continent"]
    own = column[row]
    if own is not None:
        return own, "country"
    if name.startswith("dmr_"):
        return dataset.crops[name[4:]].dmr_default, "world-average"
    continent_vals = [value for value, continent in zip(column, continents)
                      if continent == continents[row] and value is not None]
    if continent_vals:  # statistics.mean sums exactly and rounds once
        return statistics.mean(continent_vals), "continent"
    world_vals = [value for value in column if value is not None]
    if world_vals:
        return statistics.mean(world_vals), "world"
    raise DataError(
        f"no country in the dataset has data for {name!r} (needed by {countries['country'][row]!r})"
    )


def evaluate_country(dataset: Dataset, row: int, through: str = STAGE_PLAN) -> CountryReport:
    """Evaluate the country at ``row`` of ``dataset.countries`` up to the requested stage.

    ``assess`` stops after residues and energy, ``msp`` adds plant costs and
    the break-even price, ``plan`` adds the fuel replacement plan.  Later
    stages resolve more input fields and so can fail on sparser datasets.
    Each resolved input is recorded as its value ``X`` and fallback tier
    ``src_X``; a country without residue gets no plan columns.  A NaN or
    infinite number among the values or the plan's ranking scores raises a
    ``DataError``.  The plant's inputs are built as a checked
    ``BreakEvenInputs``: a checked ``Dataset`` holds every resolved field in
    its bound, so that check never fails where the pipeline, which checks no
    bound, would go on.
    """
    if through not in _STAGE_ORDER:
        raise ValueError(f"unknown stage {through!r}")
    depth = _STAGE_ORDER.index(through)
    cfg = dataset.config
    countries = dataset.countries
    name = countries["country"][row]
    resolved = {}

    def field(key):
        resolved[key], resolved[f"src_{key}"] = scan_resolve(dataset, row, key)
        return resolved[key]

    def one_row(columns):
        return {name: col[0] for name, col in columns.items()}

    def amount(key):
        return countries[key][row] or 0.0

    assessed, by_crop = residues.assess_columns(
        dataset.crops,
        {**{f"prod_{c}": [amount(f"prod_{c}")] for c in CROPS},
         **{key: [amount(key)] for key in (*ANIMALS, "bagasse_bioenergy", "other_bioenergy")},
         **{f"dmr_{c}": [field(f"dmr_{c}")] for c in CROPS}})
    potential = energy.energy_columns(by_crop, assessed["cr_final_t"], dataset.crops,
                                      cfg.pellet_efficiency)
    values = {"country": name, "continent": countries["continent"][row],
              **one_row(assessed), **one_row(potential)}
    lhv = values["weighted_lhv_mj_per_kg"]
    scores = ()
    if depth >= 1:
        pli = {f"pli_{p}": [field(f"pli_{p}")] for p in PLI_COMPONENTS}
        cost = one_row(costs.cost_columns(pli, cfg.tfc_capex_ratio))
        inputs = BreakEvenInputs(
            capex=cost["capex_usd"],
            opex=cost["opex_usd_per_y"],
            q=cfg.plant_capacity,
            n=cfg.horizon_years,
            r=field("discount_rate"),
            tr=field("tax_rate"),
            salvage_rate=cfg.salvage_rate,
            tfc=cost["capex_usd"] * cfg.tfc_capex_ratio,
        )
        msp = one_row(pricing.msp_columns(
            {"capex_usd": [inputs.capex], "opex_usd_per_y": [inputs.opex],
             "discount_rate": [inputs.r], "tax_rate": [inputs.tr], "tfc_usd": [inputs.tfc],
             "weighted_lhv_mj_per_kg": [lhv]},
            inputs.q, inputs.n, inputs.salvage_rate))
        values.update({"epc_usd": cost["epc_usd"], "tfc_usd": inputs.tfc,
                       "capex_usd": cost["capex_usd"], "opex_usd_per_y": cost["opex_usd_per_y"],
                       **msp})
    if depth >= 2:
        prices = {f"price_{f}": [field(f"price_{f}")] for f in FUELS}
        if lhv is not None:  # no residue, no pellet heating value: no plan
            plan, ranked = plan_columns(  # the reference, one row at a time
                {**prices, "msp_usd_per_t": [msp["msp_usd_per_t"]],
                 "weighted_lhv_mj_per_kg": [lhv],
                 "pellet_energy_tj": [values["pellet_energy_tj"]]},
                {f: [amount(f"cons_{f}")] for f in FUELS},
                dataset.fuel_properties, dataset.pellet_ef, cfg.scenario, cfg.carbon_tax)
            plan = one_row(plan)
            values.update(plan)
            # the scores order rank_1..3 without being columns, and can overflow alone
            scores = [(f"score_{plan[f'rank_{i}']}", score)
                      for i, (score,) in enumerate(ranked, start=1)]
    values.update(resolved)
    bad = _non_finite(chain(values.items(), scores))
    if bad:
        raise DataError(f"non-finite {bad} for {name!r}")
    return CountryReport(name, values)


def _non_finite(items) -> str | None:
    """The name of the first NaN or infinite float among ``(name, value)`` pairs, or None.

    Finite inputs can still overflow (a production of 1e308 t), so every
    number a report carries is checked before it can reach an output file;
    the message names the number but not its value, so that ``errors.txt``
    never holds ``nan`` or ``inf`` either.
    """
    for name, value in items:
        if type(value) is float and not math.isfinite(value):
            return name
    return None


def run_pipeline(dataset: Dataset, through: str = STAGE_PLAN,
                 countries=None) -> OracleResult:
    """Evaluate every country (or the named subset), collecting failures.

    Evaluation order and output order are by country name.
    """
    names = dataset.countries["country"]
    selected = sorted(range(len(names)), key=names.__getitem__)
    if countries is not None:
        wanted = set(countries)
        unknown = wanted - set(names)
        if unknown:
            raise DataError(f"unknown countries requested: {sorted(unknown)}")
        selected = [row for row in selected if names[row] in wanted]

    reports = []
    errors = []
    evaluated = []
    for row in selected:
        try:
            reports.append(evaluate_country(dataset, row, through))
            evaluated.append(row)
        except (DataError, ValueError) as exc:
            errors.append((names[row], str(exc)))

    total_cons = left_sum(
        dataset.countries[f"cons_{f}"][row] or 0.0
        for row in evaluated
        for f in FUELS
    )
    planned = [r.values for r in reports if "rank_1" in r.values]
    total_alloc = left_sum(v[f"alloc_{f}_tj"] for v in planned for f in FUELS)
    rank_first = {f: 0 for f in FUELS}
    for v in planned:
        rank_first[v["rank_1"]] += 1

    global_report = GlobalReport(
        countries_evaluated=len(reports),
        countries_failed=len(errors),
        cr_final_t=left_sum(r.values["cr_final_t"] for r in reports),
        pellet_energy_tj=left_sum(r.values["pellet_energy_tj"] for r in reports),
        s_ec_usd_per_y=left_sum(v["s_ec_usd_per_y"] for v in planned),
        s_em_kgco2e_per_y=left_sum(v["s_em_kgco2e_per_y"] for v in planned),
        fossil_consumption_tj=total_cons,
        replaced_fraction_overall=total_alloc / total_cons if total_cons > 0 else 0.0,
        rank_first_counts=rank_first,
    )
    bad = _non_finite(global_report._asdict().items())
    if bad:
        raise DataError(f"non-finite global total {bad}")
    return OracleResult(reports=tuple(reports), global_report=global_report,
                        errors=tuple(errors))


# ---------------------------------------------------------------------------
# The plan stage one country at a time: ``agripellet.replacement.plan_columns``
# computes these as whole columns, and must give the same values.  A country's
# per-fuel numbers are sequences in FUELS order: consumption (TJ), fuel LCOE
# ($/TJ) and emission intensity (kgCO2e/TJ).

def plan_scores(lcoe, intensity, pellet_lcoe: float, pellet_intensity: float,
                scenario: str, carbon_tax: float) -> list:
    """Each fuel's per-TJ replacement score: scenario A scores cost savings, B
    emissions savings, C cost savings with the carbon tax priced into both
    sides (intensity converted kg -> t)."""
    if scenario == "A":
        return [c - pellet_lcoe for c in lcoe]
    if scenario == "B":
        return [i - pellet_intensity for i in intensity]
    if scenario == "C":
        pellet = pellet_lcoe + carbon_tax * pellet_intensity / 1000.0
        return [c + carbon_tax * i / 1000.0 - pellet for c, i in zip(lcoe, intensity)]
    raise ValueError(f"unknown scenario {scenario!r}")


def allocate(pellet_energy: float, consumption, order: list) -> tuple:
    """Greedy allocation down the ranking: (TJ per fuel, unused TJ)."""
    allocation = [0.0] * len(FUELS)
    remaining = pellet_energy
    for i in order:
        take = consumption[i] if consumption[i] < remaining else remaining  # min(remaining, c)
        allocation[i] = take
        remaining -= take
    return allocation, max(0.0, pellet_energy - left_sum(allocation))


def savings(allocation: list, lcoe, intensity, pellet_lcoe: float,
            pellet_intensity: float) -> tuple:
    """(economic savings $/y, emissions savings kgCO2e/y) of an allocation."""
    return (left_sum(a * (c - pellet_lcoe) for a, c in zip(allocation, lcoe)),
            left_sum(a * (i - pellet_intensity) for a, i in zip(allocation, intensity)))


def plan(pellet_energy: float, consumption, lcoe, intensity, pellet_lcoe: float,
         pellet_intensity: float, scenario: str, carbon_tax: float) -> list:
    """One country's plan as the values of ``PLAN_COLUMNS`` from ``rank_1`` on,
    followed by its scores best first."""
    scores = plan_scores(lcoe, intensity, pellet_lcoe, pellet_intensity, scenario, carbon_tax)
    order = replacement._order(scores)
    allocation, unused = allocate(pellet_energy, consumption, order)
    total_cons = left_sum(consumption)
    return ([FUELS[i] for i in order] + allocation
            + [a / c if c > 0 else 0.0 for a, c in zip(allocation, consumption)]
            + [left_sum(allocation) / total_cons if total_cons > 0 else 0.0, unused,
               *savings(allocation, lcoe, intensity, pellet_lcoe, pellet_intensity)]
            + [scores[i] for i in order])


def plan_columns(columns: dict, consumption: dict, fuel_properties: dict, pellet_ef: float,
                 scenario: str, carbon_tax: float) -> tuple:
    """``agripellet.replacement.plan_columns``, one ``plan`` per row."""
    lhv = columns["weighted_lhv_mj_per_kg"]
    fuel_lcoe = replacement.fuel_lcoe
    lcoe = zip(*(map(fuel_lcoe, columns[f"price_{f}"], repeat(fuel_properties[f].lhv))
                 for f in FUELS))
    intensity = [replacement.emission_intensity(fuel_properties[f].ef, fuel_properties[f].lhv)
                 for f in FUELS]
    rows = list(map(plan, columns["pellet_energy_tj"], zip(*(consumption[f] for f in FUELS)),
                    lcoe, repeat(intensity), map(fuel_lcoe, columns["msp_usd_per_t"], lhv),
                    map(replacement.emission_intensity, repeat(pellet_ef), lhv),
                    repeat(scenario), repeat(carbon_tax)))
    values = list(map(list, zip(*rows))) or [[] for _ in range(len(PLAN_COLUMNS) + 1)]
    columns = {"scenario": [scenario] * len(rows),
               "carbon_tax_usd_per_tco2e": [carbon_tax] * len(rows),
               **dict(zip(PLAN_COLUMNS[2:], values))}
    return columns, values[len(PLAN_COLUMNS) - 2:]


FIELD_BOUNDS = {f.key: f.bound for f in FIELDS}

# Each input's bound, checked in this order: the bounds the loader, the
# Dataset table check and ModelConfig check the same quantities against.
_INPUT_BOUNDS = (("q", POSITIVE), ("n", HORIZON), ("r", FIELD_BOUNDS["discount_rate"]),
                 ("tr", FIELD_BOUNDS["tax_rate"]), ("salvage_rate", BELOW_ONE),
                 ("capex", NONNEGATIVE), ("opex", NONNEGATIVE), ("tfc", NONNEGATIVE))


class _BreakEvenInputs(NamedTuple):
    capex: float          # $
    opex: float           # $/y
    q: float              # pellet output, t/y
    n: int                # horizon, years
    r: float              # discount rate, fraction/y
    tr: float             # tax rate, fraction
    salvage_rate: float   # fraction of tfc recovered at end of horizon
    tfc: float            # depreciable fixed capital, $


def outside(label: str, value, bound) -> list:
    """The problem of a value outside ``bound``, worded as the package words
    it, by a range test of the reference's own."""
    if bound.lo <= value <= bound.hi:
        return []
    return [f"{label}: must be {bound.text}, got {value!r}"]


class BreakEvenInputs(_BreakEvenInputs):
    """One plant's break-even inputs, each checked against its bound, also in
    a changed copy."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        problems = [problem for name, bound in _INPUT_BOUNDS
                    for problem in outside(name, getattr(self, name), bound)]
        if problems:
            raise DataError(problems)
        return self

    def _replace(self, **changes):
        return BreakEvenInputs(**{**self._asdict(), **changes})


def salvage_value(inputs: BreakEvenInputs) -> float:
    """Fixed capital recovered at the end of the horizon, $."""
    return inputs.salvage_rate * inputs.tfc


def depreciation(inputs: BreakEvenInputs) -> float:
    """Straight-line annual depreciation of fixed capital less salvage, $/y."""
    return (inputs.tfc - salvage_value(inputs)) / inputs.n


def npv(price: float, inputs: BreakEvenInputs) -> float:
    """Net present value over the horizon, summed year by year.

    Each year earns the price times the output, less OPEX and a tax on the
    profit after straight-line depreciation of the fixed capital less salvage
    (a refund in a loss year); the salvage comes back at the end.
    """
    salvage = salvage_value(inputs)
    revenue = price * inputs.q
    tax = inputs.tr * (revenue - inputs.opex - depreciation(inputs))
    cf = revenue - inputs.opex - tax
    total = 0.0
    factor = 1.0
    for _ in range(inputs.n):
        factor /= 1.0 + inputs.r
        total += cf * factor
    return total + salvage * factor - inputs.capex


def solve_msp_bisection(inputs: BreakEvenInputs, npv_tol: float = 1e-5,
                        max_iter: int = 200) -> float:
    """Root of the year-by-year NPV(price) by bisection on the fixed price bracket.

    Iterates until the residual NPV at the midpoint is within ``npv_tol``
    dollars, so the returned price satisfies the break-even condition to the
    same tolerance as the closed form.
    """
    lo, hi = BISECTION_BRACKET
    f_lo = npv(lo, inputs)
    f_hi = npv(hi, inputs)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise DataError(
            f"no sign change on price bracket [{lo}, {hi}]: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = npv(mid, inputs)
        if abs(f_mid) <= npv_tol:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return mid


def format_cell(value) -> str:
    """One CSV cell: empty for None, ``true``/``false``, ``repr`` for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, rows) -> None:
    """Rows of typed cells: ``csv`` writes None as an empty cell and a float by ``repr``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


_encode = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def write_json(path, payload: dict) -> None:
    """Each top-level key on its own line and a non-empty list value one record
    per line."""
    members = []
    for key, value in payload.items():
        if isinstance(value, list) and value:
            members.append(f"{_encode(key)}:[\n" + ",\n".join(map(_encode, value)) + "\n]")
        else:
            members.append(f"{_encode(key)}:{_encode(value)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(members) + "\n}\n", encoding="utf-8")


def table_values(columns, result) -> list:
    """One list of typed values per evaluated country; a column its stage or a
    plan-less country leaves out reads None."""
    names = [_SAME_AS.get(name, name) for name in columns]
    return [[r.values.get(name) for name in names] for r in reports(result)]


def table_rows(columns, result) -> list:
    """The CSV form: header plus one row per country, bools spelled as in JSON."""
    return [list(columns), *([format_cell(v) if isinstance(v, bool) else v for v in row]
                             for row in table_values(columns, result))]


def table_records(columns, result) -> dict:
    """The JSON form: one ``{column: value}`` record per country, plus failures."""
    return {"countries": [dict(zip(columns, row)) for row in table_values(columns, result)],
            "errors": [{"country": name, "message": msg} for name, msg in result.errors]}


def write_table(path, columns, result) -> None:
    """One per-country output, as CSV or, for a ``.json`` path, as JSON."""
    path = Path(path)
    if path.suffix == ".json":
        write_json(path, table_records(columns, result))
    else:
        write_csv(path, table_rows(columns, result))


def write_report_files(out_dir, result) -> None:
    """``countries.csv``, ``global.json`` and the plot CSVs, each built on its own."""
    out_dir = Path(out_dir)
    write_csv(out_dir / "countries.csv", table_rows(REPORT_COLUMNS, result))
    write_json(out_dir / "global.json", {"global": result.global_report._asdict(),
                                         **table_records(REPORT_COLUMNS, result)})
    for name, columns in PLOT_COLUMNS.items():
        write_csv(out_dir / name, table_rows(columns, result))


def sensitivity_payload(grid) -> dict:
    return {
        "fossil_multipliers": list(grid.fossil_multipliers),
        "pellet_prices_usd_per_t": list(grid.pellet_prices),
        "baseline": {"s_ec_usd_per_y": grid.baseline.global_report.s_ec_usd_per_y,
                     "s_em_kgco2e_per_y": grid.baseline.global_report.s_em_kgco2e_per_y},
        "cells": [
            {"fossil_multiplier": m, "pellet_price_usd_t": p,
             "s_ec_usd_per_y": grid.s_ec[(m, p)], "s_em_kgco2e_per_y": grid.s_em[(m, p)]}
            for m in grid.fossil_multipliers for p in grid.pellet_prices
        ],
    }


def grid_rows_wide(grid) -> list:
    """Rows = multipliers, columns = pellet prices, values = global s_ec."""
    header = ["fossil_multiplier"] + [f"pellet_{axis_label(p)}_usd_t" for p in grid.pellet_prices]
    rows = [header]
    for m in grid.fossil_multipliers:
        rows.append([axis_label(m)] + [grid.s_ec[(m, p)] for p in grid.pellet_prices])
    return rows


def grid_rows_long(grid) -> list:
    header = ["fossil_multiplier", "pellet_price_usd_t", "s_ec_usd_per_y", "s_em_kgco2e_per_y"]
    rows = [header]
    for m in grid.fossil_multipliers:
        for p in grid.pellet_prices:
            rows.append([axis_label(m), axis_label(p), grid.s_ec[(m, p)], grid.s_em[(m, p)]])
    return rows


def write_sweep_files(out_dir, grid, fmt) -> list:
    out_dir = Path(out_dir)
    if fmt == "json":
        write_json(out_dir / "sensitivity.json", sensitivity_payload(grid))
        return [out_dir / "sensitivity.json"]
    write_csv(out_dir / "sensitivity.csv", grid_rows_wide(grid))
    write_csv(out_dir / "sensitivity_long.csv", grid_rows_long(grid))
    return [out_dir / "sensitivity.csv", out_dir / "sensitivity_long.csv"]


def growth_payload(result) -> dict:
    return {
        "pairs": [{"year_from": p.year_from, "year_to": p.year_to, "growth": p.growth}
                  for p in result.pairs],
        "average": result.average,
    }


def write_yoy_file(out_dir, results, failures, fmt):
    out_dir = Path(out_dir)
    if fmt == "json":
        payload = {
            "series": {name: growth_payload(res) for name, res in results.items()},
            "errors": [{"series": n, "message": m} for n, m in failures],
        }
        write_json(out_dir / "yoy.json", payload)
        return out_dir / "yoy.json"
    rows = [["country", "year_from", "year_to", "growth"]]
    for name, res in results.items():
        for p in res.pairs:
            rows.append([name, p.year_from, p.year_to, p.growth])
        rows.append([name, "average", None, res.average])
    write_csv(out_dir / "yoy.csv", rows)
    return out_dir / "yoy.csv"


def save_dataset(dataset, out_dir) -> None:
    out_dir = Path(out_dir)
    write_csv(out_dir / "crops.csv", [CROPS_COLUMNS] + [
        [c, *(getattr(dataset.crops[c], f.key) for f in CROP_FIELDS)] for c in CROPS
    ])
    write_csv(out_dir / "fuels.csv", [FUELS_COLUMNS] + [
        [name, *(getattr(dataset.fuel_properties[name], f.key) for f in FUEL_FIELDS)]
        for name in FUELS
    ] + [["pellet", None, dataset.pellet_ef]])
    write_csv(out_dir / "countries.csv", [COUNTRIES_COLUMNS] + list(
        zip(*(dataset.countries[key] for key in COUNTRIES_KEYS))))
    (out_dir / "config.json").write_text(json.dumps(dataset.config._asdict(), indent=2) + "\n",
                                         encoding="utf-8")


# ---------------------------------------------------------------------------
# The reference loader: each table read row by row, every cell of a row parsed
# and checked before the next row, and every problem listed in line order.

SERIES_VALUE = Field("value", "value", NONNEGATIVE)  # the yoy series' value column


def parse_row(table: tuple, cells: list, where: str, problems: list) -> dict | None:
    """``{key: value}`` for one row's numeric cells, or None when a cell is bad.

    Each cell is parsed and checked against its field's bound; a bad cell adds
    one problem naming ``where`` and the field's column.
    """
    found = len(problems)
    values = {}
    for (column, key, bound, *_), raw in zip(table, cells):
        try:
            value = parse_cell(raw)
        except DataError as exc:
            problems.append(f"{where}: {column}: {exc}")
            continue
        if value is not None:
            problems += outside(f"{where}: {column}", value, bound)
        values[key] = value
    return values if len(problems) == found else None


def read_table(path: Path, columns: tuple, names, table: tuple, problems: list):
    """Yield ``(where, name, text cells, values)`` for each good row of a table
    keyed by its first column; every bad row adds its problems to ``problems``.

    ``names`` holds the accepted names (None: any non-empty name), and a name
    may not repeat.  The cells between the name and the ``table`` numeric
    cells are text labels that may not be empty.  Each row is checked as it
    is yielded, so a caller's own problems stay in line order.
    """
    _, rows = _read_rows(path, columns)
    kind = columns[0]
    first = len(columns) - len(table)  # the first numeric cell
    seen = {}
    for lineno, row in rows:
        where = f"{path.name} line {lineno}"
        name = row[0].strip()
        if names is None and not name:
            problems.append(f"{where}: empty {kind} name")
            continue
        if names is not None and name not in names:
            problems.append(f"{where}: unknown {kind} {name!r}")
            continue
        if name in seen:
            problems.append(f"{where}: duplicate {kind} {name!r} (first at line {seen[name]})")
            continue
        seen[name] = lineno
        texts = [cell.strip() for cell in row[1:first]]
        problems.extend(f"{where}: {label} label is required"
                        for label, text in zip(columns[1:first], texts) if not text)
        values = parse_row(table, row[first:], where, problems)
        if values is not None:
            yield where, name, texts, values


def load_crops(path: str | Path) -> dict:
    path = Path(path)
    crops = {}
    problems = []
    for where, name, _, values in read_table(path, CROPS_COLUMNS, CROPS, CROP_FIELDS,
                                             problems):
        if None in values.values():
            problems.append(f"{where}: all four coefficients are required")
        else:
            crops[name] = CropCoefficients(**values)
    missing = set(CROPS) - set(crops)
    if missing:
        problems.append(f"{path.name}: missing crops {sorted(missing)}")
    if problems:
        raise DataError(problems)
    return crops


def load_fuels(path: str | Path) -> tuple:
    """Returns (fuel properties by fuel, pellet emission factor).

    The optional ``pellet`` row carries only the pellet emission factor,
    checked against the same bound as a fuel's.
    """
    path = Path(path)
    props = {}
    pellet_ef = DEFAULT_PELLET_EF
    problems = []
    for where, name, _, values in read_table(path, FUELS_COLUMNS, FUELS + ("pellet",),
                                             FUEL_FIELDS, problems):
        if name == "pellet":
            if values["ef"] is None:
                problems.append(f"{where}: pellet row requires ef_kgco2e_per_t")
            else:
                pellet_ef = values["ef"]
        elif None in values.values():
            problems.append(f"{where}: lhv and ef are required")
        else:
            props[name] = FuelProperties(**values)
    missing = set(FUELS) - set(props)
    if missing:
        problems.append(f"{path.name}: missing fuels {sorted(missing)}")
    if problems:
        raise DataError(problems)
    return props, pellet_ef


def load_countries(path: str | Path) -> dict:
    path = Path(path)
    problems = []
    rows = [(name, continent, *values.values()) for _, name, (continent,), values
            in read_table(path, COUNTRIES_COLUMNS, None, FIELDS, problems)]
    if problems:
        raise DataError(problems)
    return {key: tuple(row[i] for row in rows) for i, key in enumerate(COUNTRIES_KEYS)}


def load_series(path: str | Path) -> dict:
    """Annual series by name, each a list of ``(year, value)`` in file order.

    The header is ``country,year,value``, or ``year,value`` for one series
    named ``all``.  A year is written in ASCII digits alone, and a value is
    required and >= 0.
    """
    path = Path(path)
    header, rows = _read_rows(path, ("country", "year", "value"), ("year", "value"))
    series = {}
    problems = []
    for lineno, row in rows:
        where = f"{path.name} line {lineno}"
        found = len(problems)
        name = row[0].strip() if header[0] == "country" else "all"
        if not name:
            problems.append(f"{where}: empty series name")
        raw_year = row[-2].strip()
        if not (raw_year.isascii() and raw_year.isdigit()):  # int() takes 2_000, +2001, ٢٠٠١
            problems.append(f"{where}: year: not an integer: {raw_year!r}")
        else:
            try:
                year = int(raw_year)
            except ValueError:  # past int()'s limit on digits (4,300 by default)
                problems.append(f"{where}: year: too many digits ({len(raw_year)})")
        values = parse_row((SERIES_VALUE,), row[-1:], where, problems)
        if values is not None and values["value"] is None:
            problems.append(f"{where}: value: missing value")
        if len(problems) == found:
            series.setdefault(name, []).append((year, values["value"]))
    if problems:
        raise DataError(problems)
    return series


def load_dataset(data_dir: str | Path, config: str | Path | None = None) -> Dataset:
    """``agripellet.dataio.load_dataset`` through the reference loader: every
    file is read, and one ``DataError`` lists the problems of countries.csv,
    crops.csv, fuels.csv and the config, in that order."""
    data_dir = Path(data_dir)
    problems = []
    loaded = {}
    crops_path, fuels_path = data_dir / "crops.csv", data_dir / "fuels.csv"
    if config is None and os.path.lexists(data_dir / "config.json"):
        config = data_dir / "config.json"
    for key, load, path in (("countries", load_countries, data_dir / "countries.csv"),
                            ("crops", load_crops, crops_path),
                            ("fuels", load_fuels, fuels_path),
                            ("config", load_config, config)):
        if key == "crops" and not os.path.lexists(crops_path):
            loaded[key] = default_crops()
        elif key == "fuels" and not os.path.lexists(fuels_path):
            loaded[key] = default_fuel_properties(), DEFAULT_PELLET_EF
        elif key == "config" and config is None:
            loaded[key] = ModelConfig()
        else:
            try:
                loaded[key] = load(path)
            except DataError as exc:
                problems.extend(exc.problems)
            except OSError as exc:
                problems.append(str(exc))
    if problems:
        raise DataError(problems)
    fuel_properties, pellet_ef = loaded["fuels"]
    return Dataset(
        crops=loaded["crops"],
        countries=loaded["countries"],
        fuel_properties=fuel_properties,
        pellet_ef=pellet_ef,
        config=loaded["config"],
    )
