"""Deterministic CSV/JSON serialization of pipeline results.

Each per-country output is one tuple of column names, its only schema: a
``CountryReport``'s values are keyed by those names, the CSV has one row of
them per country, the JSON one record per country with the same keys in the
same order.  Every per-country file is streamed in blocks of countries, each
block rendered once, column by column, for all the files it goes to.  Adding
countries never changes the schema, and two runs over identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import ExitStack
from dataclasses import asdict
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .dataio import CROPS, FUELS, PLI_COMPONENTS, RESOLVABLE_FIELDS
from .dataio import write_csv  # the sweep's and yoy's CSVs are written through it
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


# ---------------------------------------------------------------------------
# File writers

_encode = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode
_BLOCK = 512  # countries rendered and written at a time: bounds the text held in memory
_needs_quotes = re.compile('[,"\r\n]').search  # the cells ``csv``'s default dialect quotes


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):  # named without its value: no output holds nan/inf
        raise ValueError(f"non-finite value in column {name}")
    return value


def _render(name: str, values: list) -> tuple:
    """One column's cells as ``(csv texts, json texts)``, each text made once.

    A float is its ``repr`` in both (one shared list for a column of floats), None
    an empty cell or ``null``, a bool ``true``/``false``, an int its digits, and a
    string quoted as ``csv`` and ``json`` quote it.  A NaN or infinite float raises
    ``ValueError``.
    """
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # not all floats
        pass
    else:
        if not math.isfinite(sum(values)):  # a NaN or an inf, or finite values overflowing
            for value in values:
                _finite(name, value)
        return texts, texts
    try:
        json_texts = list(map(encode_basestring_ascii, values))
    except TypeError:  # not all strings either
        pass
    else:
        if any(map(_needs_quotes, values)):
            return list(map(_csv_cell, values)), json_texts
        return values, json_texts
    csv_texts, json_texts = [], []
    for value in values:
        if value is None:
            csv_text, json_text = "", "null"
        elif value is True or value is False:
            csv_text = json_text = "true" if value else "false"
        elif isinstance(value, str):
            csv_text, json_text = _csv_cell(value), encode_basestring_ascii(value)
        elif type(value) is int:
            csv_text = json_text = int.__repr__(value)
        else:
            csv_text = json_text = float.__repr__(_finite(name, value))
        csv_texts.append(csv_text)
        json_texts.append(json_text)
    return csv_texts, json_texts


def _json_member(key: str, value) -> str:
    """A top-level member; a non-empty list one C-encoded record per line."""
    if isinstance(value, list) and value:
        return f"{_encode(key)}:[\n" + ",\n".join(map(_encode, value)) + "\n]"
    return f"{_encode(key)}:{_encode(value)}"


def _write_tables(result: PipelineResult, columns: tuple, csv_files: dict,
                  json_file: Path | None = None, head: dict | None = None) -> None:
    """Write every file of one per-country output in one pass over ``result.reports``.

    Each block of countries is rendered once, column by column, and appended to
    every file: ``csv_files`` maps a CSV path to its columns (names in ``columns``,
    ``top_fuel`` read as ``rank_1``); ``json_file`` gets ``head``'s members, one
    record of ``columns`` per country, and the failures.  On an error no file is
    left behind.
    """
    paths = [*csv_files, *([json_file] if json_file else [])]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with ExitStack() as stack:
            csvs = []
            for path, names in csv_files.items():
                f = stack.enter_context(path.open("w", newline="", encoding="utf-8"))
                f.write(",".join(map(_csv_cell, names)) + "\r\n")
                csvs.append((f, [columns.index(_SAME_AS.get(n, n)) for n in names]))
            if json_file:
                jf = stack.enter_context(json_file.open("w", encoding="utf-8"))
                jf.write("{\n" + "".join(_json_member(k, v) + ",\n"
                                         for k, v in (head or {}).items()) + '"countries":[')
                record = "{" + ",".join(_encode(c).replace("%", "%%") + ":%s"
                                        for c in columns) + "}"
            reports = result.reports
            for start in range(0, len(reports), _BLOCK):
                block = [r.values for r in reports[start:start + _BLOCK]]
                cells = [_render(name, list(map(dict.get, block, repeat(name))))
                         for name in columns]
                for f, index in csvs:
                    f.write("\r\n".join(map(",".join, zip(*[cells[i][0] for i in index])))
                            + "\r\n")
                if json_file:
                    records = map(record.__mod__, zip(*[json for _, json in cells]))
                    jf.write((",\n" if start else "\n") + ",\n".join(records))
            if json_file:
                errors = [{"country": name, "message": msg} for name, msg in result.errors]
                jf.write(("\n]" if reports else "]") + ",\n"
                         + _json_member("errors", errors) + "\n}\n")
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """Each top-level key on its own line and a list value one record per line, all
    C-encoded (``json`` falls back to its pure-Python encoder whenever ``indent`` is set)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = ",\n".join(_json_member(key, value) for key, value in payload.items())
    path.write_text("{\n" + text + "\n}\n", encoding="utf-8")


def write_table(path: str | Path, columns: tuple, result: PipelineResult) -> None:
    """One per-country output, as CSV or, for a ``.json`` path, as
    ``{"countries": [...], "errors": [...]}``."""
    path = Path(path)
    if path.suffix == ".json":
        _write_tables(result, columns, {}, path)
    else:
        _write_tables(result, columns, {path: columns})


def write_errors_txt(path: str | Path, result: PipelineResult) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{name}: {message}" for name, message in result.errors]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_report_files(out_dir: str | Path, result: PipelineResult) -> None:
    """The full fixed output set, written in one streamed pass: the wide CSV, its
    JSON records with the totals, and the plot CSVs (subsets of its columns)."""
    out_dir = Path(out_dir)
    _write_tables(result, REPORT_COLUMNS,
                  {out_dir / "countries.csv": REPORT_COLUMNS,
                   **{out_dir / name: columns for name, columns in PLOT_COLUMNS.items()}},
                  out_dir / "global.json", {"global": asdict(result.global_report)})


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
