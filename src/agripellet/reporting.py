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
and looks the rest up when it holds labels (a fallback tier, a continent or
fuel label) or when its first floats repeat (a continent mean).  The
per-country outputs (``PipelineResult.columns``), the sweep grid and the
``yoy`` statistics all go through it, so two runs over identical inputs
produce byte-identical files, and none holds NaN or infinity.

Each per-country column is named once, in a tuple of the stage module that
builds it (``residues.RESIDUE_COLUMNS``, ``energy.ENERGY_COLUMNS``,
``costs.COST_COLUMNS``, ``pricing.BREAK_EVEN_COLUMNS`` and
``replacement.PLAN_COLUMNS``), and ``PipelineResult.columns`` holds them in
that run order, then each resolved field's ``X``, ``src_X``.  Each output's
spec (``ASSESS_COLUMNS``, ``MSP_COLUMNS``, ``RECOP_COLUMNS``,
``REPORT_COLUMNS``) is a selection from those tuples that names only the
columns it drops or moves.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import ExitStack
from itertools import filterfalse, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import NoneType

from .costs import COST_COLUMNS
from .dataio import CROPS, FIELDS, non_finite_rows
from .energy import ENERGY_COLUMNS
from .pipeline import STAGE_ASSESS, STAGE_MSP, STAGE_PLAN, PipelineResult
from .pricing import BREAK_EVEN_COLUMNS
from .replacement import PLAN_COLUMNS
from .residues import RESIDUE_COLUMNS
from .sensitivity import SensitivityGrid, axis_label


def _resolved(*stages) -> tuple:
    """The value column, then the fallback-tier column, of each input that
    ``stages`` resolve, in ``FIELDS`` order."""
    return tuple(c for f in FIELDS if f.stage in stages for c in (f.key, f"src_{f.key}"))


def _without(columns: tuple, *names) -> tuple:
    """``columns`` in their order, without ``names``."""
    return tuple(column for column in columns if column not in names)


# Each per-country output's columns: a selection, in run order, from the
# stage modules' column tuples, naming only the columns it drops or moves.
ASSESS_COLUMNS = ("country", "continent", *_without(RESIDUE_COLUMNS, "cr_removable_dry_t"),
                  *ENERGY_COLUMNS, *_resolved(STAGE_ASSESS))
MSP_COLUMNS = ("country", "continent", *COST_COLUMNS, *BREAK_EVEN_COLUMNS,
               *_resolved(STAGE_MSP))
_TAXED = PLAN_COLUMNS.index("carbon_tax_usd_per_tco2e") + 1  # recop's pellet energy comes next
RECOP_COLUMNS = ("country", "continent", *PLAN_COLUMNS[:_TAXED], "pellet_energy_tj",
                 *PLAN_COLUMNS[_TAXED:], *_resolved(STAGE_PLAN))
REPORT_COLUMNS = ("country", "continent",
                  *_without(RESIDUE_COLUMNS, *(f"cr_removable_dry_{c}_t" for c in CROPS)),
                  *ENERGY_COLUMNS, *_without(COST_COLUMNS, "epc_usd", "tfc_usd"), "tfc_usd",
                  *BREAK_EVEN_COLUMNS, *_without(PLAN_COLUMNS, "carbon_tax_usd_per_tco2e"),
                  *_resolved(STAGE_ASSESS, STAGE_MSP, STAGE_PLAN))

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


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


# ``(csv text, json text)`` of None and the bools, for ``_render``'s lookup path.
_TEXTS = {None: ("", "null"), True: ("true", "true"), False: ("false", "false")}
# A float column's JSON text by its CSV text, where the two differ: None's.
_NULL = dict([_TEXTS[None]])
_FLOATS = frozenset({float})


def _check_kinds(name: str, kinds: set) -> None:
    """The kind rule: a column holds floats, or strings and bools, each beside
    None; ``kinds`` holds the types of its values."""
    if not (kinds <= {float, NoneType} or kinds <= {str, bool, NoneType}):
        raise TypeError(f"column {name} holds {', '.join(sorted(t.__name__ for t in kinds))}: "
                        "the writer takes floats, strings or bools, each beside None")


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
    """One block of a column as ``(csv texts, json texts, kinds)``, each text
    made once, and ``kinds`` the set of its values' types.

    A block breaking the kind rule (``_check_kinds``), such as one holding an
    int, or floats beside strings, raises a ``TypeError`` naming the column.
    A float is its ``repr`` in both (one shared list for a column of floats),
    None an empty cell or ``null``, a bool ``true``/``false``, and a string
    quoted as ``csv`` and ``json`` quote it.  A NaN or infinite float raises
    ``ValueError``.  A block of floats whose first ``_PROBE`` values are at
    most half distinct (a continent mean's repeats) renders each distinct
    value once and looks the rest up; any other block renders each float,
    hashing no value past the first ``_PROBE``.  Strings, bools and None
    render each distinct value once and look the rest up.
    """
    head = values[:_PROBE]
    if len(set(head)) * 2 > len(head):  # mostly distinct
        try:
            texts = list(map(float.__repr__, values))
        except TypeError:  # not all floats
            pass
        else:
            if non_finite_rows(values):  # named without its value: no output holds nan/inf
                raise ValueError(f"non-finite value in column {name}")
            return texts, texts, _FLOATS
    kinds = set(map(type, values))
    _check_kinds(name, kinds)
    if kinds == _FLOATS:  # only a block that repeats values comes here
        texts = _repeated_floats(values)
        if non_finite_rows(values):
            raise ValueError(f"non-finite value in column {name}")
        return texts, texts, kinds
    if kinds == {float, NoneType}:  # the floats rendered as a column, then the gaps filled
        floats = iter(_render(name, [value for value in values if value is not None])[0])
        texts = ["" if value is None else next(floats) for value in values]
        return texts, list(map(_NULL.get, texts, texts)), kinds
    # strings, bools and None, no two of which compare equal: each distinct
    # value rendered once, then looked up
    csv_of, json_of = {}, {}
    for value in set(values):
        csv_of[value], json_of[value] = (
            (_csv_cell(value), encode_basestring_ascii(value)) if type(value) is str
            else _TEXTS[value])
    return list(map(csv_of.__getitem__, values)), list(map(json_of.__getitem__, values)), kinds


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
    ``,"key":`` for the rest) and the row's JSON text, then ``}``.  Each
    column keeps to the kind rule across its blocks, so a column of floats
    whose later block holds strings raises ``TypeError`` as one block would.
    On an error no file is left behind.
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
            held = [set() for _ in columns]  # the types each column has held so far
            for start in range(0, count, _BLOCK):
                cells = []
                for column, col, kinds in zip(columns, values, held):
                    csv_texts, json_texts, block_kinds = _render(column, col[start:start + _BLOCK])
                    kinds |= block_kinds
                    _check_kinds(column, kinds)
                    cells.append((csv_texts, json_texts))
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
    each series' ``GrowthResult`` and the ``(name, message)`` failures; returns its path.
    The CSV's years are written as text, since the writer takes no int; the JSON's
    are numbers, encoded with its ``series`` member."""
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
            rows = [(str(p.year_from), str(p.year_to), p.growth) for p in res.pairs]
            for row in (*rows, ("average", None, res.average)):
                for column, value in zip(YOY_COLUMNS, (name, *row)):
                    table[column].append(value)
        _write_tables(table, YOY_COLUMNS, {path: YOY_COLUMNS})
    return path

