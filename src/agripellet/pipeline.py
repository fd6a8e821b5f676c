"""End-to-end evaluation of every country, column by column, and global aggregation.

A run has three steps.  First it resolves the inputs of the requested stage
and of the stages before it (the fields whose ``Field.stage`` names them), a
column of ``Dataset.countries`` each, whose empty cells
``imputation.resolve_column`` fills at once.  Then each stage of ``_STAGES``
runs once over the countries left, its stage module's column functions
turning lists keyed by column into more of them.  Last, every number the
stages computed is checked to be finite.  No resolved input is checked,
against its bound or for being finite: the ``Dataset`` holds its cells
finite and in bound, a fallback mean lies within its values' range, and a
dry-matter default is a checked crop coefficient.  A country that fails,
after resolution when a field does not resolve or after the check when its
values hold a NaN or an infinite number, lands in the error list with its
first failure's message, and the rest run on.  Output ordering is by
country name, so repeated runs over the same inputs are byte-identical
downstream.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from . import costs, energy, pricing, replacement, residues
from .dataio import (FIELDS, FUELS, STAGE_ASSESS, STAGE_MSP, STAGE_PLAN, DataError, Dataset,
                     add_all, non_finite_rows)
from .imputation import resolve_column, resolved_columns


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


def _resolve(dataset: Dataset, index: list, columns: tuple) -> tuple:
    """``(resolved, failures)``: each field of ``columns``, pairs of a value
    column ``X`` and its fallback-tier column ``src_X``, at the rows ``index``
    (a country's own value has tier ``country``), and the message of each row
    (of ``index``) that does not resolve: a country's first failure, in the
    order of ``columns``."""
    resolved, failures = {}, {}
    for name, tier in zip(columns[::2], columns[1::2]):
        resolved[name], resolved[tier], failed = resolve_column(dataset, name, index)
        failures = failed | failures  # a country's earlier failure stands
    return resolved, failures


def _drop(failures: dict, index: list, *tables) -> tuple:
    """``index`` and each of ``tables`` (lists by column) without the rows of ``failures``."""
    if not failures:
        return (index, *tables)
    keep = [row for row in range(len(index)) if row not in failures]
    return ([index[row] for row in keep],
            *({name: [col[row] for row in keep] for name, col in t.items()} for t in tables))


def _total(*columns) -> float:
    """The columns' numbers summed row by row, a row's in the columns' order.
    The sum starts at 0.0, so a total over no rows is a float too; None (a
    plan-less row) and zeros add nothing to it and are left out."""
    return add_all(filter(None, chain.from_iterable(zip(*columns))))


def _assess(dataset: Dataset, inputs: dict) -> tuple:
    """The residue columns, then the pellet energy columns."""
    assessed, by_crop = residues.assess_columns(dataset.crops, inputs)
    assessed.update(energy.energy_columns(by_crop, assessed["cr_final_t"], dataset.crops,
                                          dataset.config.pellet_efficiency))
    return assessed, []


def _msp(dataset: Dataset, inputs: dict) -> tuple:
    """The cost columns, then the break-even ones."""
    cfg = dataset.config
    msp = costs.cost_columns(inputs)
    msp.update(pricing.msp_columns({**inputs, **msp}, cfg.horizon_years, cfg.salvage_rate))
    return msp, []


def _plan(dataset: Dataset, inputs: dict) -> tuple:
    """The plan columns and the ranking scores (best first) of the rows whose
    pellet heating value is not None, each ranked against its msp stage's
    ``msp_usd_per_tj``; a row without residue reads None in each."""
    lhv = inputs["weighted_lhv_mj_per_kg"]
    planned = [row for row, value in enumerate(lhv) if value is not None]

    def pick(col):
        return [col[row] for row in planned]

    def spread(col):  # the plan-less rows read None
        if len(col) == len(lhv):
            return col
        values = iter(col)
        return [None if value is None else next(values) for value in lhv]

    cfg = dataset.config
    plan, ranked_scores = replacement.plan_columns(
        {key: pick(inputs[key]) for key in (*_PRICE_INPUTS, "msp_usd_per_tj",
                                             "weighted_lhv_mj_per_kg", "pellet_energy_tj")},
        {f: pick(inputs[f"cons_{f}"]) for f in FUELS},
        dataset.fuel_properties, dataset.pellet_ef, cfg.scenario, cfg.carbon_tax)
    return {name: spread(col) for name, col in plan.items()}, list(map(spread, ranked_scores))


# Each stage, in run order, takes the dataset and its inputs (a list per key,
# a row per country: the amounts, the earlier stages' columns and the resolved
# fields) and returns its columns and the columns of its ranking scores.
_STAGES = {STAGE_ASSESS: _assess, STAGE_MSP: _msp, STAGE_PLAN: _plan}
_STAGE_ORDER = tuple(_STAGES)


def run_pipeline(dataset: Dataset, through: str = STAGE_PLAN,
                 countries=None) -> PipelineResult:
    """Evaluate every country (or the named subset, a collection of names),
    collecting failures.

    ``assess`` stops after residues and energy, ``msp`` adds plant costs and
    the break-even price, ``plan`` adds the fuel replacement plan.  Every input
    the requested stage and the stages before it read (each ``Field`` names
    its stage) is resolved first, so later stages can fail on sparser
    datasets; then each stage runs once over the countries left, column by
    column.  Each resolved input is recorded as its value ``X`` and fallback
    tier ``src_X``; a country without residue gets no plan columns.  A
    country leaves at its first input that does not resolve, or else at its
    first NaN or infinite number, in column order and then among its plan's
    ranking scores.  Evaluation order and output order are by country name.
    """
    if through not in _STAGES:
        raise ValueError(f"unknown stage {through!r}")
    stages = _STAGE_ORDER[:_STAGE_ORDER.index(through) + 1]
    names = dataset.countries["country"]
    index = sorted(range(len(names)), key=names.__getitem__)
    if isinstance(countries, str):  # not a name's letters
        raise TypeError(f"countries: expected a collection of country names, got {countries!r}")
    if countries is not None:
        wanted = set(countries)
        unknown = wanted.difference(names)
        if unknown:
            raise DataError(f"unknown countries requested: {sorted(unknown)}")
        index = [row for row in index if names[row] in wanted]

    resolved, failures = _resolve(dataset, index, resolved_columns(*stages))
    errors = {names[index[row]]: message for row, message in failures.items()}
    index, resolved = _drop(failures, index, resolved)
    # the fields without a stage, where a missing value is a real zero (no fallback tier)
    amounts = {f.key: [value or 0.0 for value in map(dataset.countries[f.key].__getitem__, index)]
               for f in FIELDS if f.stage is None}

    columns, ranked_scores = {}, []
    for stage in stages:
        new, scores = _STAGES[stage](dataset, {**amounts, **columns, **resolved})
        columns.update(new)
        ranked_scores += scores

    # each country's first NaN or infinite number in its computed columns'
    # order, then among its ranking scores (best first); the message names the
    # number but not its value, so that no output, errors.txt included, holds
    # nan or inf.  The resolved inputs are finite (see the module docstring).
    first = {}
    for name, col in columns.items():
        for row in non_finite_rows(col):
            first.setdefault(row, name)
    for rank, scores in enumerate(ranked_scores, start=1):
        for row in non_finite_rows(scores):
            first.setdefault(row, f"score_{columns[f'rank_{rank}'][row]}")
    errors.update((names[index[row]], f"non-finite {name} for {names[index[row]]!r}")
                  for row, name in first.items())
    index, record, amounts = _drop(first, index, {**columns, **resolved}, amounts)

    result = {"country": [names[row] for row in index],
              "continent": [dataset.countries["continent"][row] for row in index], **record}
    plan = {name: result.get(name, []) for name in replacement.PLAN_COLUMNS}  # [] at assess, msp
    total_cons = _total(*(amounts[f"cons_{f}"] for f in FUELS))
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
