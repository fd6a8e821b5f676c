"""End-to-end evaluation of every country, column by column, and global aggregation.

A run has three steps.  First every input the requested stage reads is
resolved, a column of ``Dataset.countries`` each (``resolve`` fills the empty
cells, once per field and continent).  Then each stage runs once over the
countries left, and each stage module's column function turns lists keyed by
column into more of them.  Last, every number is checked to be finite.  The
result is those columns, one row per evaluated country.  No input is checked
against its bound: the ``Dataset`` was, and a fallback mean lies within its
values' range.  Failures are isolated: a country leaves the run at one of two
points, after resolution when a field does not resolve, or after the check
when its values hold a NaN or an infinite number; it lands in the error list
without aborting the rest, with the message its first failure gives.  Output
ordering is by country name, so repeated runs over the same inputs are
byte-identical downstream.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from . import costs, energy, pricing, replacement, residues
from .dataio import FUELS, RESOLVABLE_FIELDS, DataError, Dataset, fits, resolve

STAGE_ASSESS = "assess"
STAGE_MSP = "msp"
STAGE_PLAN = "plan"
_STAGE_ORDER = (STAGE_ASSESS, STAGE_MSP, STAGE_PLAN)


class GlobalReport(NamedTuple):
    """The ``global`` object of ``global.json``, its fields named as its keys."""

    countries_evaluated: int
    countries_failed: int
    cr_final_t: float
    pellet_energy_tj: float
    s_ec_usd_per_y: float
    s_em_kgco2e_per_y: float
    fossil_consumption_tj: float  # over evaluated countries
    replaced_fraction_overall: float
    rank_first_counts: dict       # fuel -> number of countries ranking it first


class PipelineResult(NamedTuple):
    columns: dict        # output column -> list, a row per evaluated country by name
    global_report: GlobalReport
    errors: tuple        # (country, message), sorted by country name


_PRICE_INPUTS = tuple(f"price_{f}" for f in FUELS)
# the stages read RESOLVABLE_FIELDS in order: 4 dry matters for assess, then 6
# cost and finance inputs for msp, then 3 fuel prices for plan
_STAGE_INPUTS = (4, 10, 13)


def _resolve(dataset: Dataset, index: list, names: tuple) -> tuple:
    """``(resolved, failures)``: each field of ``names`` at the rows ``index``
    as its value ``X`` and fallback tier ``src_X`` (a country's own value has
    tier ``country``), and the message of each row (of ``index``) that does
    not resolve.  Only empty cells go through ``resolve``, once per (field,
    continent), as an empty cell's fallback depends on its field and continent
    alone: the answer fills the continent's other empty cells.  A call that
    fails is not reused, so each failing country gets its own message; a
    country stops at its first failure."""
    countries, resolved, failures = dataset.countries, {}, {}
    continents = list(map(countries["continent"].__getitem__, index))
    for name in names:
        values = list(map(countries[name].__getitem__, index))
        tiers = ["country"] * len(values)
        if None in values:
            answers = {}  # continent -> (value, tier)
            for row, value in enumerate(values):
                if value is None and row not in failures:
                    answer = answers.get(continents[row])
                    if answer is None:
                        try:
                            answer = resolve(dataset, index[row], name)
                        except (DataError, ValueError) as exc:
                            failures[row] = str(exc)
                            continue
                        answers[continents[row]] = answer
                    values[row], tiers[row] = answer
        resolved[name], resolved[f"src_{name}"] = values, tiers
    return resolved, failures


def _drop(failures: dict, index: list, *tables) -> tuple:
    """``index`` and each of ``tables`` (lists by column) without the rows of ``failures``."""
    if not failures:
        return (index, *tables)
    keep = [row for row in range(len(index)) if row not in failures]
    return ([index[row] for row in keep],
            *({name: [col[row] for row in keep] for name, col in t.items()} for t in tables))


# Columns that never hold a float, so the non-finite check skips them (as src_X).
_NO_FLOATS = ("use_saturated", "scenario", "rank_1", "rank_2", "rank_3")


def _non_finite_rows(values: list) -> list:
    """The rows of a column holding a NaN or an infinite float; the column is
    scanned only when it fails the whole-column test ``fits``."""
    if fits(values):
        return []
    return [row for row, value in enumerate(values)
            if type(value) is float and not math.isfinite(value)]


def _total(*columns) -> float:
    """The columns' numbers summed row by row, a row's in the columns' order.
    The sum starts at 0.0, so a total over no rows is a float too; None (a
    plan-less row) and zeros add nothing to it and are left out."""
    return sum(filter(None, chain.from_iterable(zip(*columns))), 0.0)


def run_pipeline(dataset: Dataset, through: str = STAGE_PLAN,
                 countries=None) -> PipelineResult:
    """Evaluate every country (or the named subset), collecting failures.

    ``assess`` stops after residues and energy, ``msp`` adds plant costs and
    the break-even price, ``plan`` adds the fuel replacement plan.  Every input
    the requested stage reads is resolved first (later stages read more, and so
    can fail on sparser datasets); then each stage runs once over the countries
    left, column by column.  Each resolved input is recorded as its value ``X``
    and fallback tier ``src_X``; a country without residue gets no plan
    columns.  A country leaves at its first input that does not resolve, or
    else at its first NaN or infinite number, in column order and then among
    its plan's ranking scores.  Evaluation order and output order are by
    country name.
    """
    if through not in _STAGE_ORDER:
        raise ValueError(f"unknown stage {through!r}")
    depth = _STAGE_ORDER.index(through)
    cfg = dataset.config
    names = dataset.countries["country"]
    index = sorted(range(len(names)), key=names.__getitem__)
    if countries is not None:
        wanted = set(countries)
        unknown = wanted.difference(names)
        if unknown:
            raise DataError(f"unknown countries requested: {sorted(unknown)}")
        index = [row for row in index if names[row] in wanted]

    resolved, failures = _resolve(dataset, index, RESOLVABLE_FIELDS[:_STAGE_INPUTS[depth]])
    errors = {names[index[row]]: message for row, message in failures.items()}
    index, resolved = _drop(failures, index, resolved)

    def amounts(key):  # a field where a missing value is a real zero (no fallback tier)
        return [dataset.countries[key][row] or 0.0 for row in index]

    columns, by_crop = residues.assess_columns(
        dataset.crops, {**{key: amounts(key) for key in residues.INPUT_KEYS}, **resolved})
    columns.update(energy.energy_columns(by_crop, columns["cr_final_t"], dataset.crops,
                                         cfg.pellet_efficiency))
    if depth >= 1:
        cost = costs.cost_columns(resolved)
        columns["epc_usd"] = cost["epc_usd"]
        columns["tfc_usd"] = [capex * cfg.tfc_capex_ratio for capex in cost["capex_usd"]]
        columns.update(cost)  # capex_usd and opex_usd_per_y after tfc_usd, in record order
        columns.update(pricing.msp_columns({**columns, **resolved}, cfg.plant_capacity,
                                           cfg.horizon_years, cfg.salvage_rate))
    ranked_scores, cons = [], {f: amounts(f"cons_{f}") for f in FUELS}
    if depth >= 2:
        planned = [row for row, lhv in enumerate(columns["weighted_lhv_mj_per_kg"])
                   if lhv is not None]  # no residue, no pellet heating value: no plan

        def pick(col):
            return [col[row] for row in planned]

        def spread(col):  # the plan-less rows read None
            if len(col) == len(index):
                return col
            full = [None] * len(index)
            for row, value in zip(planned, col):
                full[row] = value
            return full

        plan, ranked_scores = replacement.plan_columns(
            {key: pick(table[key]) for table, keys in (
                (resolved, _PRICE_INPUTS),
                (columns, ("msp_usd_per_t", "weighted_lhv_mj_per_kg", "pellet_energy_tj")))
             for key in keys},
            {f: pick(col) for f, col in cons.items()},
            dataset.fuel_properties, dataset.pellet_ef, cfg.scenario, cfg.carbon_tax)
        columns.update((name, spread(col)) for name, col in plan.items())
        ranked_scores = list(map(spread, ranked_scores))

    # each country's first NaN or infinite number in its record's order, then
    # among its ranking scores (best first); the message names the number but
    # not its value, so that no output, errors.txt included, holds nan or inf
    first, record = {}, {**columns, **resolved}
    for name, col in record.items():
        if name not in _NO_FLOATS and not name.startswith("src_"):
            for row in _non_finite_rows(col):
                first.setdefault(row, name)
    for rank, scores in enumerate(ranked_scores, start=1):
        for row in _non_finite_rows(scores):
            first.setdefault(row, f"score_{columns[f'rank_{rank}'][row]}")
    errors.update((names[index[row]], f"non-finite {name} for {names[index[row]]!r}")
                  for row, name in first.items())
    index, record, cons = _drop(first, index, record, cons)

    result = {"country": [names[row] for row in index],
              "continent": [dataset.countries["continent"][row] for row in index], **record}
    plan = {name: result.get(name, []) for name in replacement.PLAN_COLUMNS}  # [] at assess, msp
    total_cons = _total(*cons.values())
    total_alloc = _total(*(plan[f"alloc_{f}_tj"] for f in FUELS))

    global_report = GlobalReport(
        countries_evaluated=len(index),
        countries_failed=len(errors),
        cr_final_t=_total(result["cr_final_t"]),
        pellet_energy_tj=_total(result["pellet_energy_tj"]),
        s_ec_usd_per_y=_total(plan["s_ec_usd_per_y"]),
        s_em_kgco2e_per_y=_total(plan["s_em_kgco2e_per_y"]),
        fossil_consumption_tj=total_cons,
        replaced_fraction_overall=total_alloc / total_cons if total_cons > 0 else 0.0,
        rank_first_counts={f: plan["rank_1"].count(f) for f in FUELS},
    )
    for name, value in global_report._asdict().items():
        if type(value) is float and not math.isfinite(value):
            raise DataError(f"non-finite global total {name}")
    return PipelineResult(columns=result, global_report=global_report,
                          errors=tuple(sorted(errors.items())))


# ---------------------------------------------------------------------------
# Year-on-year production growth (reporting statistic)

class GrowthPair(NamedTuple):
    year_from: int
    year_to: int
    growth: float | None  # None when the base year is zero


class GrowthResult(NamedTuple):
    pairs: tuple
    average: float  # mean growth over pairs with a nonzero base year


def yoy_growth(series) -> GrowthResult:
    """Year-on-year growth fractions for a consecutive annual series.

    ``series`` is an iterable of (year, value).  Pairs with a zero base year
    carry no growth figure and are excluded from the average.  A growth or an
    average beyond the float range raises a ``DataError``.
    """
    points = sorted((int(y), float(v)) for y, v in series)
    if len(points) < 2:
        raise DataError("series must contain at least two years")
    years = [y for y, _ in points]
    if len(set(years)) != len(years):
        raise DataError("duplicate years in series")
    if any(b - a != 1 for a, b in zip(years, years[1:])):
        raise DataError("series years must be consecutive")
    pairs = []
    rates = []
    for (y0, v0), (y1, v1) in zip(points, points[1:]):
        if v0 > 0:
            rate = (v1 - v0) / v0
            rates.append(rate)
        else:
            rate = None
        pairs.append(GrowthPair(y0, y1, rate))
    if not rates:
        raise DataError("every base year is zero; growth is undefined")
    average = sum(rates) / len(rates)
    if not math.isfinite(average):  # an infinite rate (each is >= -1) or an overflowing sum
        raise DataError("growth is not a finite number")  # no value named: no output holds inf
    return GrowthResult(pairs=tuple(pairs), average=average)
