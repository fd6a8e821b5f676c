"""Deterministic CSV/JSON serialization of pipeline results.

Each per-country output is one tuple of column names, its only schema: a
``CountryReport``'s values are keyed by those names, the CSV writes the typed
values as its cells, the JSON one record per country with the same keys in the
same order, and a report computes the values once for all its files.  Adding
countries never changes the schema, and two runs over identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .dataio import CROPS, FUELS, PLI_COMPONENTS, RESOLVABLE_FIELDS, write_csv
from .pipeline import PipelineResult
from .sensitivity import SensitivityGrid


def _resolved(names) -> tuple:
    """Each resolved input's value column followed by its fallback-tier column."""
    return tuple(c for name in names for c in (name, f"src_{name}"))


ASSESS_COLUMNS = (
    ("country", "continent")
    + tuple(f"cr_total_{c}_t" for c in CROPS)
    + tuple(f"cr_removable_dry_{c}_t" for c in CROPS)
    + ("feed_bedding_use_t", "bagasse_bioenergy_use_t", "other_bioenergy_attributed_t",
       "cr_final_t", "use_saturated",
       "weighted_lhv_mj_per_kg", "pellet_mass_t", "pellet_energy_tj")
    + _resolved(f"dmr_{c}" for c in CROPS)
)

MSP_COLUMNS = (
    ("country", "continent", "epc_usd", "tfc_usd", "capex_usd", "opex_usd_per_y",
     "msp_usd_per_t", "msp_usd_per_tj", "npv_at_msp_usd",
     "revenue_usd_per_y", "tax_usd_per_y", "cash_flow_usd_per_y", "annuity_factor")
    + _resolved([f"pli_{p}" for p in PLI_COMPONENTS] + ["discount_rate", "tax_rate"])
)

_PLAN_COLUMNS = (
    tuple(f"alloc_{f}_tj" for f in FUELS)
    + tuple(f"replaced_{f}_frac" for f in FUELS)
    + ("replaced_overall_frac", "unused_pellet_tj", "s_ec_usd_per_y", "s_em_kgco2e_per_y")
)

RECOP_COLUMNS = (
    ("country", "continent", "scenario", "carbon_tax_usd_per_tco2e", "pellet_energy_tj",
     "rank_1", "rank_2", "rank_3")
    + _PLAN_COLUMNS
    + _resolved(f"price_{f}" for f in FUELS)
)

REPORT_COLUMNS = (
    ("country", "continent")
    + tuple(f"cr_total_{c}_t" for c in CROPS)
    + ("cr_removable_dry_t", "feed_bedding_use_t", "bagasse_bioenergy_use_t",
       "other_bioenergy_attributed_t", "cr_final_t", "use_saturated",
       "weighted_lhv_mj_per_kg", "pellet_mass_t", "pellet_energy_tj",
       "capex_usd", "opex_usd_per_y", "tfc_usd",
       "msp_usd_per_t", "msp_usd_per_tj", "npv_at_msp_usd",
       "revenue_usd_per_y", "tax_usd_per_y", "cash_flow_usd_per_y", "annuity_factor",
       "scenario", "rank_1", "rank_2", "rank_3")
    + _PLAN_COLUMNS
    + _resolved(RESOLVABLE_FIELDS)
)

# Plot-ready CSVs written beside countries.csv, by file name, each a subset of
# its columns (``top_fuel`` is ``rank_1``).
PLOT_COLUMNS = {
    "energy_by_country.csv": ("country", "pellet_energy_tj"),
    "replacement_by_country.csv": ("country", "top_fuel", "replaced_overall_frac"),
    "savings_by_country.csv": ("country", "s_ec_usd_per_y", "s_em_kgco2e_per_y"),
}
_SAME_AS = {"top_fuel": "rank_1"}
_FLAGS = frozenset({"use_saturated"})  # bool columns


def _values(columns: tuple, result: PipelineResult) -> list:
    """One list of typed values per evaluated country; a column its stage or a
    plan-less country leaves out reads None."""
    names = [_SAME_AS.get(name, name) for name in columns]
    return [[r.values.get(name) for name in names] for r in result.reports]


def _rows(columns: tuple, values: list) -> list:
    """Header plus the values; ``csv.writer`` writes None empty and a float by ``repr``."""
    for i, name in enumerate(columns):
        if name in _FLAGS:  # spelled as in JSON, on copies of the rows JSON also reads
            values = [[*row[:i], "true" if row[i] else "false", *row[i + 1:]] for row in values]
    return [list(columns), *values]


def _records(columns: tuple, values: list, result: PipelineResult) -> dict:
    return {"countries": [dict(zip(columns, row)) for row in values],
            "errors": [{"country": name, "message": msg} for name, msg in result.errors]}


def table_rows(columns: tuple, result: PipelineResult) -> list:
    """The CSV form: header plus one row per evaluated country."""
    return _rows(columns, _values(columns, result))


def table_records(columns: tuple, result: PipelineResult) -> dict:
    """The JSON form: one ``{column: value}`` record per evaluated country, plus failures."""
    return _records(columns, _values(columns, result), result)


# ---------------------------------------------------------------------------
# File writers

_encode = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def write_json(path: str | Path, payload: dict) -> None:
    """Each top-level key on its own line and a list value one record per line, all
    C-encoded (``json`` falls back to its pure-Python encoder whenever ``indent`` is set)."""
    members = []
    for key, value in payload.items():
        if isinstance(value, list) and value:
            members.append(f"{_encode(key)}:[\n" + ",\n".join(map(_encode, value)) + "\n]")
        else:
            members.append(f"{_encode(key)}:{_encode(value)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(members) + "\n}\n", encoding="utf-8")


def write_errors_txt(path: str | Path, result: PipelineResult) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{name}: {message}" for name, message in result.errors]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_report_files(out_dir: str | Path, result: PipelineResult) -> None:
    """The full fixed output set: wide CSV, its JSON records with the totals, and plot
    files, all read from one list of typed values per country."""
    out_dir = Path(out_dir)
    values = _values(REPORT_COLUMNS, result)
    write_csv(out_dir / "countries.csv", _rows(REPORT_COLUMNS, values))
    write_json(out_dir / "global.json", {"global": asdict(result.global_report),
                                         **_records(REPORT_COLUMNS, values, result)})
    for name, columns in PLOT_COLUMNS.items():
        index = [REPORT_COLUMNS.index(_SAME_AS.get(c, c)) for c in columns]
        write_csv(out_dir / name, _rows(columns, [[row[i] for i in index] for row in values]))


def sensitivity_payload(grid: SensitivityGrid) -> dict:
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


def growth_payload(result) -> dict:
    return {
        "pairs": [{"year_from": p.year_from, "year_to": p.year_to, "growth": p.growth}
                  for p in result.pairs],
        "average": result.average,
    }
