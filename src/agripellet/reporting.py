"""Deterministic CSV/JSON serialization of every output file.

Every file is written by one writer, ``_write_tables``, from columns (a
mapping from column name to its list of values, one per row) and one tuple of
column names, its only schema: a CSV has one row of those columns per row, a
JSON file its head members, the rows as one list of records with the same keys
in the same order, and its tail members.  The rows are streamed in blocks,
each block sliced from the columns and rendered once, column by column, for
all the files it goes to: a CSV row is its cells joined by commas, a JSON
record its texts joined each after its fixed key prefix (``{"country":``,
``,"continent":``, ...).  A block renders each distinct value of a column once
when its first values repeat (a continent mean, a fallback tier, a continent
or fuel label) and looks the rest up.  The per-country outputs
(``PipelineResult.columns``), the sweep grid and the ``yoy`` statistics all go
through it, so two runs over identical inputs produce byte-identical files,
and none holds NaN or infinity.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import ExitStack
from functools import partial
from itertools import filterfalse, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not
from pathlib import Path
from types import NoneType

from .dataio import CROPS, FIELDS
from .pipeline import _STAGE_ORDER, STAGE_ASSESS, STAGE_MSP, STAGE_PLAN, PipelineResult
from .replacement import PLAN_COLUMNS
from .sensitivity import SensitivityGrid, axis_label


def _resolved(*stages) -> tuple:
    """The value column, then the fallback-tier column, of each input that
    ``stages`` resolve, in ``FIELDS`` order."""
    return tuple(c for f in FIELDS if f.stage in stages for c in (f.key, f"src_{f.key}"))


# Column runs that a stage's output and report's countries.csv both hold.
_CR_TOTAL = tuple(f"cr_total_{c}_t" for c in CROPS)
_FINAL = ("feed_bedding_use_t", "bagasse_bioenergy_use_t", "other_bioenergy_attributed_t",
          "cr_final_t", "use_saturated", "weighted_lhv_mj_per_kg", "pellet_mass_t",
          "pellet_energy_tj")
_BREAK_EVEN = ("msp_usd_per_t", "msp_usd_per_tj", "npv_at_msp_usd", "revenue_usd_per_y",
               "tax_usd_per_y", "cash_flow_usd_per_y", "annuity_factor")
_PLAN_COLUMNS = PLAN_COLUMNS[PLAN_COLUMNS.index("rank_3") + 1:]  # allocations and savings

ASSESS_COLUMNS = (("country", "continent") + _CR_TOTAL
                  + tuple(f"cr_removable_dry_{c}_t" for c in CROPS) + _FINAL
                  + _resolved(STAGE_ASSESS))
MSP_COLUMNS = (("country", "continent", "epc_usd", "tfc_usd", "capex_usd", "opex_usd_per_y")
               + _BREAK_EVEN + _resolved(STAGE_MSP))
RECOP_COLUMNS = (("country", "continent", "scenario", "carbon_tax_usd_per_tco2e",
                  "pellet_energy_tj", "rank_1", "rank_2", "rank_3")
                 + _PLAN_COLUMNS + _resolved(STAGE_PLAN))
REPORT_COLUMNS = (("country", "continent") + _CR_TOTAL + ("cr_removable_dry_t",) + _FINAL
                  + ("capex_usd", "opex_usd_per_y", "tfc_usd") + _BREAK_EVEN
                  + ("scenario", "rank_1", "rank_2", "rank_3") + _PLAN_COLUMNS
                  + _resolved(*_STAGE_ORDER))

# Plot-ready CSVs written beside countries.csv, by file name, each a subset of
# its columns (``top_fuel`` is ``rank_1``).
PLOT_COLUMNS = {
    "energy_by_country.csv": ("country", "pellet_energy_tj"),
    "replacement_by_country.csv": ("country", "top_fuel", "replaced_overall_frac"),
    "savings_by_country.csv": ("country", "s_ec_usd_per_y", "s_em_kgco2e_per_y"),
}
_SAME_AS = {"top_fuel": "rank_1"}

SWEEP_COLUMNS = ("fossil_multiplier", "pellet_price_usd_t", "s_ec_usd_per_y", "s_em_kgco2e_per_y")
YOY_COLUMNS = ("country", "year_from", "year_to", "growth")


# ---------------------------------------------------------------------------
# File writers

_encode = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode
_BLOCK = 512  # records rendered and written at a time: bounds the text held in memory
_PROBE = 64  # a block's first values, whose share of distinct ones picks how floats render
_needs_quotes = re.compile('[,"\r\n]').search  # the cells ``csv``'s default dialect quotes
_is_not_none = partial(is_not, None)


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):  # named without its value: no output holds nan/inf
        raise ValueError(f"non-finite value in column {name}")
    return value


def _cell(name: str, value) -> tuple:
    """One value's ``(csv text, json text)``."""
    if value is None:
        return "", "null"
    if value is True or value is False:
        text = "true" if value else "false"
    elif isinstance(value, str):
        return _csv_cell(value), encode_basestring_ascii(value)
    elif type(value) is int:
        text = int.__repr__(value)
    else:
        text = float.__repr__(_finite(name, value))
    return text, text


def _fill(types: list, texts: list, empty: str) -> list:
    """A column of floats beside None as texts: ``texts``, one per float, with
    ``empty`` at each None; ``types`` holds each value's type."""
    source = {float: iter(texts), NoneType: repeat(empty)}
    return list(map(next, map(source.__getitem__, types)))


def _check_finite(name: str, floats: list) -> None:
    if not math.isfinite(sum(floats)):  # a NaN or an inf, or finite values overflowing
        for value in floats:
            _finite(name, value)


def _repeated_floats(floats: list) -> list:
    """Each float's ``repr``, each distinct value rendered once and the rest
    looked up; value by value when 0.0 and -0.0, equal but printed apart, are
    both among them."""
    distinct = set(floats)
    if 0.0 in distinct and len(set(map(math.copysign, repeat(1.0),
                                       filterfalse(None, floats)))) > 1:
        return list(map(float.__repr__, floats))
    text_of = dict(zip(distinct, map(float.__repr__, distinct)))
    return list(map(text_of.__getitem__, floats))


def _render(name: str, values: list) -> tuple:
    """One column's cells as ``(csv texts, json texts)``, each text made once.

    A float is its ``repr`` in both (one shared list for a column of floats), None
    an empty cell or ``null``, a bool ``true``/``false``, an int its digits, and a
    string quoted as ``csv`` and ``json`` quote it.  A NaN or infinite float raises
    ``ValueError``.  A column of floats, of strings or of bools, None among them
    or not, is rendered by whole-column C calls; only a column that mixes other
    types goes value by value.  A block of floats whose first ``_PROBE`` values
    are at most half distinct (a continent mean's repeats) renders each distinct
    value once and looks the rest up; any other block renders each float,
    hashing no value past the first ``_PROBE``.  Strings follow the same rule:
    a block of repeated labels (``continent``, ``scenario``, ``rank_*``, the
    ``src_*`` tiers) renders each distinct label once, and a block of mostly
    distinct strings, such as ``country``, is encoded by whole-column calls.
    """
    head = values[:_PROBE]
    distinct = len(set(head)) * 2 > len(head)  # mostly distinct
    if distinct:
        try:
            texts = list(map(float.__repr__, values))
        except TypeError:  # not all floats
            pass
        else:
            _check_finite(name, values)
            return texts, texts
    types = list(map(type, values))
    kinds = set(types)
    if kinds == {float}:  # only a block that repeats values comes here
        texts = _repeated_floats(values)
        _check_finite(name, values)
        return texts, texts
    if kinds == {str} and distinct:
        json_texts = list(map(encode_basestring_ascii, values))
        if _needs_quotes("".join(values)):
            return list(map(_csv_cell, values)), json_texts
        return values, json_texts
    if kinds == {float, NoneType}:  # the floats rendered as a column, then the gaps filled
        texts, _ = _render(name, list(filter(_is_not_none, values)))
        return _fill(types, texts, ""), _fill(types, texts, "null")
    if kinds <= {str, bool, NoneType}:  # no two of these types compare equal
        csv_of, json_of = {}, {}  # each distinct value rendered once, then looked up
        for value in set(values):
            csv_of[value], json_of[value] = _cell(name, value)
        return list(map(csv_of.__getitem__, values)), list(map(json_of.__getitem__, values))
    cells = [_cell(name, value) for value in values]
    return [csv_text for csv_text, _ in cells], [json_text for _, json_text in cells]


def _json_member(key: str, value) -> str:
    """A top-level member; a non-empty list one C-encoded record per line."""
    if isinstance(value, list) and value:
        return f"{_encode(key)}:[\n" + ",\n".join(map(_encode, value)) + "\n]"
    return f"{_encode(key)}:{_encode(value)}"


def _write_tables(data: dict, columns: tuple, csv_files: dict,
                  json_file: Path | None = None, head: dict | None = None,
                  name: str = "", tail: dict | None = None) -> None:
    """Write every file of one output in one pass over ``data``'s rows.

    ``data`` maps each column name to its list of values, a row per record.
    Each block of rows is sliced from those lists and rendered once, column by
    column, and appended to every file: ``csv_files`` maps a CSV path to its
    columns (names in ``columns``, ``top_fuel`` read as ``rank_1``);
    ``json_file`` gets ``head``'s members, the list ``name`` holding one record
    of ``columns`` per row, then ``tail``'s members.  A record is one
    ``"".join`` of each column's encoded key prefix (``{"key":`` for the first,
    ``,"key":`` for the rest) and the row's JSON text, then ``}``.  On an error
    no file is left behind.
    """
    paths = [*csv_files, *([json_file] if json_file else [])]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    values = [data[column] for column in columns]
    count = len(values[0])
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
                                         for k, v in (head or {}).items()) + _encode(name) + ":[")
                keys = [("," if i else "{") + _encode(c) + ":" for i, c in enumerate(columns)]
            for start in range(0, count, _BLOCK):
                cells = [_render(column, col[start:start + _BLOCK])
                         for column, col in zip(columns, values)]
                for f, index in csvs:
                    f.write("\r\n".join(map(",".join, zip(*[cells[i][0] for i in index])))
                            + "\r\n")
                if json_file:
                    parts = [part for key, (_, texts) in zip(keys, cells)
                             for part in (repeat(key), texts)]
                    texts = map("".join, zip(*parts, repeat("}")))
                    jf.write((",\n" if start else "\n") + ",\n".join(texts))
            if json_file:
                jf.write(("\n]" if count else "]")
                         + "".join(",\n" + _json_member(k, v) for k, v in (tail or {}).items())
                         + "\n}\n")
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def _errors(result: PipelineResult) -> dict:
    return {"errors": [{"country": name, "message": msg} for name, msg in result.errors]}


def write_table(path: str | Path, columns: tuple, result: PipelineResult) -> None:
    """One per-country output, as CSV or, for a ``.json`` path, as
    ``{"countries": [...], "errors": [...]}``."""
    path = Path(path)
    if path.suffix == ".json":
        _write_tables(result.columns, columns, {}, path, name="countries", tail=_errors(result))
    else:
        _write_tables(result.columns, columns, {path: columns})


_line_break = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]").search  # str.splitlines'


def one_line(name: str) -> str:
    """A name as a line of text prints it: itself, or its ``repr`` when it holds
    a line break."""
    return repr(name) if _line_break(name) else name


def write_errors_txt(path: str | Path, errors: list) -> None:
    """One line per ``(name, message)`` failure: the name (see ``one_line``) and message."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{one_line(name)}: {message}\n" for name, message in errors),
                    encoding="utf-8")


def write_report_files(out_dir: str | Path, result: PipelineResult) -> None:
    """The full fixed output set, written in one streamed pass: the wide CSV, its
    JSON records with the totals, and the plot CSVs (subsets of its columns)."""
    out_dir = Path(out_dir)
    _write_tables(result.columns, REPORT_COLUMNS,
                  {out_dir / "countries.csv": REPORT_COLUMNS,
                   **{out_dir / name: columns for name, columns in PLOT_COLUMNS.items()}},
                  out_dir / "global.json", {"global": result.global_report._asdict()},
                  "countries", _errors(result))


def write_sweep_files(out_dir: str | Path, grid: SensitivityGrid, fmt: str) -> list:
    """The sweep's files, returned as paths: ``sensitivity.json``, or the wide
    ``sensitivity.csv`` (a row per multiplier, a column per pellet price, values
    the global s_ec) and ``sensitivity_long.csv`` (a row per cell).  The CSVs
    print each axis value as ``axis_label`` does, the JSON as a number."""
    out_dir, ms, ps = Path(out_dir), grid.fossil_multipliers, grid.pellet_prices
    label = axis_label if fmt == "csv" else (lambda value: value)
    m_text, p_text = [label(m) for m in ms], [label(p) for p in ps]  # one per axis value
    cells = {"fossil_multiplier": [m for m in m_text for _ in ps],
             "pellet_price_usd_t": p_text * len(ms),
             "s_ec_usd_per_y": [grid.s_ec[(m, p)] for m in ms for p in ps],
             "s_em_kgco2e_per_y": [grid.s_em[(m, p)] for m in ms for p in ps]}
    if fmt == "json":
        baseline = grid.baseline.global_report
        head = {"fossil_multipliers": list(ms), "pellet_prices_usd_per_t": list(ps),
                "baseline": {"s_ec_usd_per_y": baseline.s_ec_usd_per_y,
                             "s_em_kgco2e_per_y": baseline.s_em_kgco2e_per_y}}
        _write_tables(cells, SWEEP_COLUMNS, {}, out_dir / "sensitivity.json", head, "cells")
        return [out_dir / "sensitivity.json"]
    wide, long = out_dir / "sensitivity.csv", out_dir / "sensitivity_long.csv"
    table = {"fossil_multiplier": m_text,
             **{f"pellet_{text}_usd_t": [grid.s_ec[(m, p)] for m in ms]
                for p, text in zip(ps, p_text)}}
    _write_tables(table, tuple(table), {wide: tuple(table)})
    _write_tables(cells, SWEEP_COLUMNS, {long: SWEEP_COLUMNS})
    return [wide, long]


def write_yoy_file(out_dir: str | Path, results: dict, failures: list, fmt: str) -> Path:
    """``yoy.csv``, a row per year pair and an ``average`` row per series, or ``yoy.json``,
    each series' ``GrowthResult`` and the ``(name, message)`` failures; returns its path."""
    path = Path(out_dir) / f"yoy.{fmt}"
    if fmt == "json":
        errors = {"series": [name for name, _ in failures],
                  "message": [message for _, message in failures]}
        _write_tables(errors, ("series", "message"), {}, path,
                      {"series": {name: {**res._asdict(), "pairs": [p._asdict() for p in res.pairs]}
                                  for name, res in results.items()}}, "errors")
    else:
        table = {column: [] for column in YOY_COLUMNS}
        for name, res in results.items():
            for row in (*res.pairs, ("average", None, res.average)):
                for column, value in zip(YOY_COLUMNS, (name, *row)):
                    table[column].append(value)
        _write_tables(table, YOY_COLUMNS, {path: YOY_COLUMNS})
    return path

