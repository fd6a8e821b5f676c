"""Input dataset loading and validation.

All model inputs arrive as UTF-8 CSV files with a header row ("-" or an
empty cell means "no data") plus an optional JSON run configuration, and
``load_series`` reads the ``yoy`` subcommand's annual series file as one more
such CSV: this module reads every input file.  Each is read once by
``_read_text``, its bytes decoded whole (a leading byte-order mark is skipped)
before ``csv`` or ``json`` parses the text.  ``FIELDS``
describes each numeric ``countries.csv`` column once (header, model key,
bound, fallback tier, and the pipeline stage that resolves it).
Each rule has one check and one wording, and each caller adds only the
place (file and line, column and row, or config key): ``_check_cell`` holds
a number to its ``Bound``, ``_check_column`` a column cell by cell, and
``_bad_names`` finds bad names and labels.
``load_dataset`` reads every file before it raises, so one error names the
problems of them all, and checks each cell once, as it parses it.  A
``Dataset`` and its tables are read-only, so no stage checks a value again,
and hold each number as a float, also one given by hand as an int.  A field
is checked once, when it gets a new value: ``_checked`` checks each field of
a ``Dataset`` built by hand and each field a ``_replace`` changes, and the
loader, which checked every cell as it parsed it, checks nothing again.
``add_rows`` and ``add_all`` are every float sum of the model, each a fold
left to right from 0.0.
This module only reads files; every output goes through ``reporting``.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import sys
from collections.abc import Mapping, Sequence
from functools import partial, reduce
from itertools import repeat
from operator import add, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

CROPS = ("maize", "rice", "sugarcane", "wheat")
FUELS = ("coal", "oil", "natural_gas")
ANIMALS = ("cattle", "horses", "sheep", "swine")
# Replacement ranking objectives: cost, emissions, cost with a carbon tax.
SCENARIOS = ("A", "B", "C")

DEFAULT_PELLET_EF = 151.0  # kgCO2e per ton of pellets burned


class DataError(ValueError):
    """A file failed schema or invariant validation; message lists every problem."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class Bound(NamedTuple):
    """A range of accepted values, stored closed: an open end is kept as the
    nearest float inside it, so ``lo <= value <= hi`` checks a value exactly
    (and rejects NaN)."""

    text: str   # as messages and the README write it: ">= 0", "in (0, 1]"
    lo: float
    hi: float


def fits(values, bound: Bound | None = None) -> bool:
    """Whether the numbers of a column, None cells left out, are finite and
    inside ``bound``, tested on their sum, min and max: False may also mean a
    sum past float range or a cell that is no number, which a scan tells."""
    try:
        finite = math.isfinite(sum(values))  # False at a NaN, an inf, or a sum overflowing
    except TypeError:  # None cells, tested again without them; or a cell that is no number
        present = [value for value in values if value is not None]
        return len(present) < len(values) and fits(present, bound)
    except OverflowError:  # ints past float range
        return False
    return finite and (bound is None or not values or bound.lo <= min(values)
                       and (bound.hi == math.inf or max(values) <= bound.hi))


def non_finite_rows(values: list) -> list:
    """The rows of a column holding a NaN or an infinite float.  By the
    writer's kind rule a column holds floats, or strings and bools, each
    beside None, so one whose first truthy value is no float (labels, or only
    None and zeros) holds no such float and is not scanned; a column of floats
    is scanned only when it fails the whole-column test ``fits``."""
    if not isinstance(next(filter(None, values), None), float) or fits(values):
        return []
    return [row for row, value in enumerate(values)
            if isinstance(value, float) and not math.isfinite(value)]


# Every float sum of the model is one of these two, adding left to right from
# 0.0 as ``sum`` does up to Python 3.11 (it compensates since 3.12), so each
# total is the same number on every version.
def add_all(values) -> float:
    """The values added in order, starting at 0.0."""
    return reduce(add, values, 0.0)


def add_rows(columns) -> list:
    """Each row's sum over one or more equal-length float columns, in the
    columns' order, starting at 0.0."""
    first, *rest = columns  # no column is a ValueError: a repeat(0.0) seed would never end
    return list(reduce(partial(map, add), rest, map(add, repeat(0.0), first)))


_ABOVE_ZERO = math.nextafter(0.0, 1.0)
NONNEGATIVE = Bound(">= 0", 0.0, math.inf)
POSITIVE = Bound("> 0", _ABOVE_ZERO, math.inf)
FRACTION = Bound("in (0, 1]", _ABOVE_ZERO, 1.0)
UNIT_INTERVAL = Bound("in [0, 1]", 0.0, 1.0)
BELOW_ONE = Bound("in [0, 1)", 0.0, math.nextafter(1.0, 0.0))
# years of plant life: the NPV's closed form needs float(n) exact, so n <= 2**53
HORIZON = Bound(f"in [1, {2**53}]", 1.0, float(2**53))

# Fallback tiers of an empty countries.csv cell (None: a missing value is a real zero).
WORLD_AVERAGE = "world-average"  # the crop's world-average default from crops.csv
CONTINENT = "continent"          # the continent mean, else the world mean


# The pipeline's stages, in run order; each reads the fields that name it.
STAGE_ASSESS = "assess"  # residues and pellet energy
STAGE_MSP = "msp"        # plant costs and the break-even price
STAGE_PLAN = "plan"      # the fuel replacement plan


class Field(NamedTuple):
    column: str     # CSV header
    key: str        # Dataset.countries column key; a resolved field's output column
    bound: Bound
    fallback: str | None = None
    stage: str | None = None  # the stage that resolves it (None: an amount, read as is)


# Every numeric countries.csv column, in file order after country and continent.
FIELDS = (
    *(Field(f"prod_{c}_t", f"prod_{c}", NONNEGATIVE) for c in CROPS),
    *(Field(f"dmr_{c}", f"dmr_{c}", FRACTION, WORLD_AVERAGE, STAGE_ASSESS) for c in CROPS),
    *(Field(a, a, NONNEGATIVE) for a in ANIMALS),
    Field("bagasse_bioenergy_t", "bagasse_bioenergy", NONNEGATIVE),
    Field("other_bioenergy_t", "other_bioenergy", NONNEGATIVE),
    Field("pli_labor", "pli_labor", POSITIVE, CONTINENT, STAGE_MSP),
    Field("pli_raw", "pli_raw_material", POSITIVE, CONTINENT, STAGE_MSP),
    Field("pli_construction", "pli_construction", POSITIVE, CONTINENT, STAGE_MSP),
    Field("pli_electricity", "pli_electricity", POSITIVE, CONTINENT, STAGE_MSP),
    Field("discount_rate", "discount_rate", UNIT_INTERVAL, CONTINENT, STAGE_MSP),
    Field("tax_rate", "tax_rate", BELOW_ONE, CONTINENT, STAGE_MSP),
    Field("price_coal_usd_t", "price_coal", NONNEGATIVE, CONTINENT, STAGE_PLAN),
    Field("price_oil_usd_t", "price_oil", NONNEGATIVE, CONTINENT, STAGE_PLAN),
    Field("price_gas_usd_t", "price_natural_gas", NONNEGATIVE, CONTINENT, STAGE_PLAN),
    Field("cons_coal_tj", "cons_coal", NONNEGATIVE),
    Field("cons_oil_tj", "cons_oil", NONNEGATIVE),
    Field("cons_gas_tj", "cons_natural_gas", NONNEGATIVE),
)
COUNTRIES_COLUMNS = ("country", "continent") + tuple(f.column for f in FIELDS)
COUNTRIES_KEYS = ("country", "continent") + tuple(f.key for f in FIELDS)  # of Dataset.countries

# The numeric cells of crops.csv and fuels.csv; keys are the record fields.
CROP_FIELDS = (
    Field("rtp", "rtp", POSITIVE),                # residue per ton produced, t/t
    Field("srr", "srr", UNIT_INTERVAL),           # removable fraction
    Field("dmr_world", "dmr_default", FRACTION),  # world-average dry matter fraction
    Field("lhv_mj_per_kg", "lhv", POSITIVE),      # MJ/kg
)
FUEL_FIELDS = (
    Field("lhv_mj_per_kg", "lhv", POSITIVE),      # MJ/kg
    Field("ef_kgco2e_per_t", "ef", NONNEGATIVE),  # kgCO2e/t
)
CROPS_COLUMNS = ("crop",) + tuple(f.column for f in CROP_FIELDS)
FUELS_COLUMNS = ("fuel",) + tuple(f.column for f in FUEL_FIELDS)
# Plain records, each checked by the Dataset that holds it.
CropCoefficients = NamedTuple("CropCoefficients", [(f.key, float) for f in CROP_FIELDS])
FuelProperties = NamedTuple("FuelProperties", [(f.key, float) for f in FUEL_FIELDS])


def _check_cell(label: str, value, bound: Bound) -> list:
    """The one bound check: no problem if ``value`` is a finite number inside
    ``bound``, else its one problem, named by ``label``.  An int past float
    range is named by the bound when it lies outside it, as a config's horizon
    is."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    finite = (is_int or isinstance(value, float)) and abs(value) <= sys.float_info.max
    if (finite or is_int) and not bound.lo <= value <= bound.hi:
        return [f"{label}: must be {bound.text}, got {value!r}"]
    return [] if finite else [f"{label}: not a finite number: {value!r}"]


def _check_column(values, bound: Bound, label) -> list:
    """The one column bound check: ``(row, problem)`` of each cell of
    ``values`` but None that ``_check_cell`` rejects, named by ``label(row)``."""
    return [(row, problem) for row, value in enumerate(values) if value is not None
            for problem in _check_cell(label(row), value, bound)]


def _bad_names(cells, kind: str, place=None, accepted=None, label: bool = False) -> list:
    """The one name and label check: ``(row, problem)`` of each cell of a
    ``kind`` name (or, worded as such, ``label``), in row order, that is
    unknown (not among ``accepted``; None: any), empty (or None), not a
    ``str`` or, given ``place``, a duplicate, which names its first cell's
    ``place(row)``; with no ``place`` a name may repeat."""
    problems, seen = [], {}
    for row, cell in enumerate(cells):
        if accepted is not None and cell not in accepted:
            problems.append((row, f"unknown {kind} {cell!r}"))
        elif not cell:
            problems.append((row, f"{kind} label is required" if label else f"empty {kind} name"))
        elif type(cell) is not str:
            problems.append((row, f"{kind} not a str: {cell!r}"))
        elif place is not None and cell in seen:
            problems.append((row, f"duplicate {kind} {cell!r} (first at {place(seen[cell])})"))
        else:
            seen.setdefault(cell, row)
    return problems


# The bound of each number of a config, and of each value of its two axes:
# salvage stays below tfc, and the sweep's closed form holds only for m > 0
_CONFIG_BOUNDS = {
    "horizon_years": HORIZON, "salvage_rate": BELOW_ONE, "pellet_efficiency": FRACTION,
    "carbon_tax": NONNEGATIVE, "fossil_multipliers": POSITIVE,
    "pellet_prices": Bound("finite", -math.inf, math.inf)}
_AXES = ("fossil_multipliers", "pellet_prices")  # the sweep grid's axes, lists of numbers


def _changed(record, changes: dict) -> dict:
    """The fields of a ``ModelConfig`` or ``Dataset`` with ``changes``; a field
    it does not have is a ValueError naming it, on every Python version
    (namedtuple's own test raises a TypeError since Python 3.13)."""
    unknown = [key for key in changes if key not in record._fields]
    if unknown:
        raise ValueError(f"Got unexpected field names: {unknown!r}")
    return {**record._asdict(), **changes}


def _make(cls, iterable):
    """A record of ``iterable``'s values, checked as ``cls(...)`` checks it
    (namedtuple's own ``_make`` skips ``__new__``)."""
    return cls(*iterable)


class _ModelConfig(NamedTuple):
    horizon_years: int = 20
    salvage_rate: float = 0.10            # fraction of total fixed capital
    pellet_efficiency: float = 0.95       # mass surviving pelletization
    scenario: str = "A"
    carbon_tax: float = 0.0               # $/tCO2e, scenario C only
    fossil_multipliers: tuple = (0.25, 0.50, 0.75, 1.00, 1.25, 1.50, 1.75)
    pellet_prices: tuple = tuple(10.0 + 19.0 * i for i in range(11))  # 10 .. 200 $/t inclusive


class ModelConfig(_ModelConfig):
    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        # a config file gives numbers as ints or floats and the axes as lists; the
        # record holds floats, the axes as tuples of floats, and the horizon as an
        # int (built by tuple.__new__, without a second check)
        numbers = {key: getattr(self, key) for key in _CONFIG_BOUNDS if key != "horizon_years"}
        return tuple.__new__(cls, _changed(self, {
            key: tuple(map(float, value)) if key in _AXES else float(value)
            for key, value in numbers.items()}).values())

    def _replace(self, **changes):
        """A changed copy, checked again."""
        return ModelConfig(**_changed(self, changes))

    def _check(self):
        problems = []
        for key, bound in _CONFIG_BOUNDS.items():
            value = getattr(self, key)
            if key not in _AXES:
                problems += _check_cell(key, value, bound)
            elif not (isinstance(value, (list, tuple)) and value):
                problems.append(f"{key}: must be a non-empty list, got {value!r}")
            else:
                bad = [problem for i, cell in enumerate(value)
                       for problem in _check_cell(f"{key}[{i}]", cell, bound)]
                if not bad and len(set(value)) != len(value):  # one grid cell written twice
                    bad = [f"{key}: must not repeat a value, got {list(value)!r}"]
                problems += bad
        horizon = self.horizon_years
        if isinstance(horizon, float) and not _check_cell("horizon_years", horizon, HORIZON):
            problems.append(f"horizon_years: must be an integer, got {horizon!r}")
        if self.scenario not in SCENARIOS:
            problems.append(f"scenario: must be A, B, or C, got {self.scenario!r}")
        if problems:
            raise DataError(problems)


class _Dataset(NamedTuple):
    crops: MappingProxyType   # CropCoefficients per crop
    countries: MappingProxyType  # COUNTRIES_KEYS -> tuple in file order, None at an empty cell
    fuel_properties: MappingProxyType  # FuelProperties per fuel
    pellet_ef: float
    config: ModelConfig


class Dataset(_Dataset):
    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, *args, **kwargs):
        return _checked(super().__new__(cls, *args, **kwargs), cls._fields)

    def _replace(self, **changes):
        """A changed copy, whose fields given a new value are checked."""
        return _checked(tuple.__new__(type(self), _changed(self, changes).values()),
                        [key for key, value in changes.items() if value is not getattr(self, key)])


# The type of each table's values (a countries column: a sequence of cells).
_TABLE_TYPES = {"countries": Sequence, "crops": CropCoefficients, "fuel_properties": FuelProperties}


def _wrong_type(table, kind) -> str | None:
    """The name of the type that keeps ``table`` from being a mapping to
    ``kind`` values, with the key it sits at, or None."""
    if not isinstance(table, Mapping):
        return type(table).__name__
    return next((f"{type(value).__name__} at {key!r}" for key, value in table.items()
                 if not isinstance(value, kind)), None)


def _checked(record: Dataset, new) -> Dataset:
    """``record`` once each of its fields named in ``new`` passes its one
    check.  First each table's type: a mapping to sequences (countries), to
    ``CropCoefficients`` or to ``FuelProperties``, a wrong one the field's one
    problem.  Then, in this order: the countries table (a missing or unknown
    column raised at once), the crops and fuels tables (each coefficient held
    to its crops.csv or fuels.csv column's bound), the pellet emission factor
    (a number held to fuels.csv's ef bound) and the config (a
    ``ModelConfig``).  One DataError names every problem.  Only then is each
    of those fields held read-only, each number as a float, as the loader
    holds it, in new tables that their caller can no longer change."""
    mistyped = {key: f"{key}: must be a mapping to {kind.__name__} values, got {got}"
                for key, kind in _TABLE_TYPES.items() if key in new
                for got in [_wrong_type(getattr(record, key), kind)] if got}
    problems, new = list(mistyped.values()), [key for key in new if key not in mistyped]
    countries = record.countries
    if "countries" in new:
        wrong = set(countries).symmetric_difference(COUNTRIES_KEYS)
        if wrong:  # keys of any type, in the order of their text
            raise DataError(problems + [
                f"countries table: {'unknown' if key in countries else 'missing'} "
                f"column {key!r}" for key in sorted(wrong, key=lambda key: (str(key), repr(key)))])
        rows = len(countries["country"])  # a shorter column would cut a zip() short
        problems += [f"countries column {key!r} has {len(col)} rows, 'country' has {rows}"
                     for key, col in countries.items() if len(col) != rows]
        labels = [(row, f"countries column {key!r} row {row}: {problem}")
                  for key, place, label in (("country", "row {}".format, False),
                                            ("continent", None, True))
                  for row, problem in _bad_names(countries[key][:rows], key, place, label=label)]
        problems += [problem for _, problem in sorted(labels, key=itemgetter(0))]  # by row
        for f in FIELDS:
            if len(countries[f.key]) == rows:
                problems += [problem for _, problem in _check_column(
                    countries[f.key], f.bound, lambda row: f"countries column {f.key!r} "
                    f"row {row} ({countries['country'][row]!r})")]
    tables = [table for table in (("crops", "crop", CROPS, CROP_FIELDS, CropCoefficients),
                                  ("fuel_properties", "fuel", FUELS, FUEL_FIELDS, FuelProperties))
              if table[0] in new]
    for key, kind, accepted, fields, _ in tables:
        table = getattr(record, key)
        problems += [f"{kind}s table: {problem}"
                     for _, problem in _bad_names(list(table), kind, accepted=accepted)]
        missing = set(accepted) - set(table)
        if missing:
            problems.append(f"{kind}s table: missing {kind}s {sorted(missing)}")
        problems += [problem for name, values in table.items() for f in fields
                     for problem in _check_cell(f"{kind} {name!r}: {f.column}",
                                                getattr(values, f.key), f.bound)]
    if "pellet_ef" in new:
        problems += _check_cell("pellet_ef", record.pellet_ef, FUEL_FIELDS[-1].bound)
    if "config" in new and not isinstance(record.config, ModelConfig):
        problems.append(f"config: must be a ModelConfig, got {record.config!r}")
    if problems:
        raise DataError(problems)
    held = {key: MappingProxyType({name: kept(*(float(getattr(values, f.key)) for f in fields))
                                   for name, values in getattr(record, key).items()})
            for key, _, _, fields, kept in tables}
    if "countries" in new:
        held["countries"] = MappingProxyType({
            **{key: tuple(countries[key]) for key in COUNTRIES_KEYS[:2]},
            **{f.key: tuple(None if value is None else float(value) for value in countries[f.key])
               for f in FIELDS}})
    if "pellet_ef" in new:
        held["pellet_ef"] = float(record.pellet_ef)
    return tuple.__new__(type(record), _changed(record, held).values())


def default_crops() -> dict:
    """The built-in crop coefficients, for a dataset without crops.csv: residue
    per ton produced (t/t), removable fraction without degrading the soil,
    world-average dry matter fraction, and residue heating value (MJ/kg)."""
    return {"maize": CropCoefficients(1.00, 0.50, 0.7374, 17.3),
            "rice": CropCoefficients(1.40, 0.60, 0.8774, 14.6),
            "sugarcane": CropCoefficients(1.00, 0.875, 0.4388, 17.3),
            "wheat": CropCoefficients(1.30, 0.40, 0.8627, 17.2)}


def default_fuel_properties() -> dict:
    """The built-in fossil fuel properties, for a dataset without fuels.csv:
    heating value (MJ/kg) and emission factor (kgCO2e/t)."""
    return {"coal": FuelProperties(23.9, 2592.0),
            "oil": FuelProperties(42.0, 2977.0),
            "natural_gas": FuelProperties(42.0, 2114.0)}


_NO_DATA = ("", "-")  # a cell that holds no data, once stripped


def parse_cell(raw: str) -> float | None:
    """One CSV cell to a finite float; '-' or empty means no data."""
    raw = raw.strip()
    if raw in _NO_DATA:
        return None
    if "_" in raw or not raw.isascii():  # float() also reads 1_000 and non-ASCII digits
        raise DataError(f"not a number: {raw!r}")
    try:
        value = float(raw)  # period decimal separator, locale independent
    except ValueError:
        raise DataError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"not a finite number: {raw!r}")
    return value


def _read_text(path: Path) -> str:
    """The text of an input file: its bytes read once, a leading byte-order
    mark dropped, decoded as UTF-8 in one call.  A bad byte is named by its
    line; a missing file, or one the system refuses to read (such as a
    directory), is a ``DataError`` too."""
    try:
        raw = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    except OSError as exc:  # missing, as Path.exists() tells it, or refused (a directory)
        missing = exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)
        raise DataError(f"missing file: {path}" if missing else str(exc)) from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path.name} line {line}: not UTF-8 text ({exc.reason})") from None


def _read_rows(path: Path, *headers: tuple) -> tuple:
    """``(header, [(lineno, cells)])`` of a CSV whose header is one of ``headers``.

    Blank lines are skipped; every other row must have the header's width,
    and every row that has not is named in one ``DataError``.  The file is
    decoded whole before it is split, so a bad byte is named before any other
    problem of the file.  Only ``\\n``, ``\\r`` and ``\\r\\n`` end a row
    (``str.splitlines`` would also break at ``\\v``, ``\\x85``, ``\\u2028`` and
    others); a cell ``csv`` cannot split is a ``DataError`` naming its line.
    """
    file = path.name
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise DataError(f"{file}: empty file, header row required")
        header = tuple(h.strip() for h in first)
        if header not in headers:
            raise DataError(f"{file}: header mismatch, expected "
                            + " or ".join(",".join(h) for h in headers))
        rows = []
        problems = []
        start = reader.line_num + 1  # a row is named by the line it starts on
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                problems.append(f"{file} line {lineno}: expected {len(header)} columns, "
                                f"got {len(row)}")
            rows.append((lineno, row))
    except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise DataError(f"{file} line {reader.line_num}: {exc}") from None
    if problems:
        raise DataError(problems)
    return header, rows


def _report(problems: dict, file: str, lineno: int, problem: str) -> None:
    """Add ``problem`` to those of line ``lineno`` of ``file``."""
    problems.setdefault(lineno, []).append(f"{file} line {lineno}: {problem}")


def _raise(problems: dict) -> None:
    """A DataError of every problem, line by line in file order, if there is one."""
    if problems:
        raise DataError([problem for line in sorted(problems) for problem in problems[line]])


def _parse_column(file: str, column: str, bound: Bound, lines, cells, problems: dict) -> list:
    """The values of one numeric column, None for a gap (a cell empty or
    ``-`` once stripped).

    The column is parsed whole when its text is ASCII without ``_`` (``float``
    reads both, ``parse_cell`` neither), ``float`` reads each cell but a gap,
    and the numbers are finite and inside ``bound``: ``parse_cell`` and the
    bound check accept each of its cells alike.  Only a column whose
    whole-column check trips is scanned: every cell goes through them, and
    each bad one adds its problem to its line's.
    """
    text = "".join(cells)
    if text.isascii() and "_" not in text:
        try:
            try:
                values = list(map(float, cells))
            except ValueError:  # a gap, or a cell float cannot read
                values = [None if cell.strip() in _NO_DATA else float(cell) for cell in cells]
        except ValueError:  # a cell float cannot read
            pass
        else:
            if fits(values, bound):
                return values
    values = []
    for lineno, raw in zip(lines, cells):
        try:
            values.append(parse_cell(raw))
        except DataError as exc:
            values.append(None)
            _report(problems, file, lineno, f"{column}: {exc}")
    for row, problem in _check_column(values, bound, lambda row: column):
        _report(problems, file, lines[row], problem)
    return values


def _read_table(path: Path, columns: tuple, names, fields: tuple) -> tuple:
    """``(lines, table, problems)``: the line of each row with a good name, its
    name, labels and ``fields`` values as ``table``'s columns, and the problems
    of each bad row by line, in column order.

    ``names`` holds the accepted names (None: any non-empty name), and a name
    may not repeat; a row with a bad name is skipped.  The cells between the
    name and the ``fields`` numeric cells are text labels that may not be
    empty.
    """
    file, kind = path.name, columns[0]
    _, rows = _read_rows(path, columns)
    problems = {}
    keys = [row[0].strip() for _, row in rows]
    for row, problem in _bad_names(keys, kind, lambda row: f"line {rows[row][0]}", names):
        _report(problems, file, rows[row][0], problem)
    rows = [(lineno, row) for lineno, row in rows if lineno not in problems]
    lines = [lineno for lineno, _ in rows]
    first = len(columns) - len(fields)  # the first numeric cell
    cells = list(zip(*[row for _, row in rows])) or [()] * len(columns)
    table = {kind: tuple(map(str.strip, cells[0]))}  # the names, checked above
    for label, col in zip(columns[1:first], cells[1:first]):  # the labels
        table[label] = texts = tuple(map(str.strip, col))
        for row, problem in _bad_names(texts, label, None, label=True):
            _report(problems, file, lines[row], problem)
    for f, col in zip(fields, cells[first:]):
        table[f.key] = tuple(_parse_column(file, f.column, f.bound, lines, col, problems))
    return lines, table, problems


def _load_records(path: str | Path, columns: tuple, names: tuple, fields: tuple, record,
                  required: str, optional: tuple = ()) -> dict:
    """The ``record`` of each row of crops.csv or fuels.csv, by name.

    A row of ``names`` with an empty cell has the problem ``required``, and
    each of ``names`` without a row is missing, after every line.  A row of
    ``optional`` carries only its last cell, which is its record.
    """
    path = Path(path)
    lines, table, problems = _read_table(path, columns, names + optional, fields)
    records = {}
    for lineno, name, *values in zip(lines, *table.values()):
        if lineno in problems:  # a bad cell, named already
            continue
        if name in optional and values[-1] is None:
            _report(problems, path.name, lineno, f"{name} row requires {columns[-1]}")
        elif name in optional:
            records[name] = values[-1]
        elif None in values:
            _report(problems, path.name, lineno, required)
        else:
            records[name] = record(*values)
    missing = set(names) - set(records)
    if missing:  # after every line
        problems[math.inf] = [f"{path.name}: missing {columns[0]}s {sorted(missing)}"]
    _raise(problems)
    return records


def load_crops(path: str | Path) -> dict:
    return _load_records(path, CROPS_COLUMNS, CROPS, CROP_FIELDS, CropCoefficients,
                         "all four coefficients are required")


def load_fuels(path: str | Path) -> tuple:
    """Returns (fuel properties by fuel, pellet emission factor): the
    optional ``pellet`` row carries only the factor, held to a fuel's bound."""
    fuels = _load_records(path, FUELS_COLUMNS, FUELS, FUEL_FIELDS, FuelProperties,
                          "lhv and ef are required", ("pellet",))
    return fuels, fuels.pop("pellet", DEFAULT_PELLET_EF)


def load_countries(path: str | Path) -> dict:
    _, table, problems = _read_table(Path(path), COUNTRIES_COLUMNS, None, FIELDS)
    _raise(problems)
    return table


def load_config(path: str | Path) -> ModelConfig:
    path = Path(path)
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also ints over 4,300 digits, deep nesting
        raise DataError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path.name}: top-level object required")
    unknown = set(raw) - set(ModelConfig._fields)
    if unknown:
        raise DataError(f"{path.name}: unknown config keys {sorted(unknown)}")
    return ModelConfig(**raw)  # every key is a field, and _check words each bad value


def load_series(path: str | Path) -> dict:
    """Annual series by name, each a list of ``(year, value)`` in file order.

    The header is ``country,year,value``, or ``year,value`` for one series
    named ``all``.  A year is written in ASCII digits alone, and a value is
    required and >= 0.  Each row's problems are listed in that order.
    """
    file = Path(path).name
    header, rows = _read_rows(Path(path), ("country", "year", "value"), ("year", "value"))
    problems = {}
    names = [row[0].strip() if header[0] == "country" else "all" for _, row in rows]
    for row, problem in _bad_names(names, "series"):
        _report(problems, file, rows[row][0], problem)
    years = []
    for lineno, row in rows:
        raw_year = row[-2].strip()
        year = None
        if not (raw_year.isascii() and raw_year.isdigit()):  # int() takes 2_000, +2001, ٢٠٠١
            _report(problems, file, lineno, f"year: not an integer: {raw_year!r}")
        else:
            try:
                year = int(raw_year)
            except ValueError:  # past int()'s limit on digits (4,300 by default)
                _report(problems, file, lineno, f"year: too many digits ({len(raw_year)})")
        years.append(year)
    lines = [lineno for lineno, _ in rows]
    cells = [row[-1] for _, row in rows]
    values = _parse_column(file, "value", NONNEGATIVE, lines, cells, problems)
    for lineno, value, cell in zip(lines, values, cells):
        if value is None and cell.strip() in _NO_DATA:
            _report(problems, file, lineno, "value: missing value")
    _raise(problems)
    series = {}
    for name, year, value in zip(names, years, values):
        series.setdefault(name, []).append((year, value))
    return series


def load_dataset(data_dir: str | Path, config: str | Path | None = None) -> Dataset:
    """Load and validate all inputs under ``data_dir``.

    ``countries.csv`` is required.  ``crops.csv`` and ``fuels.csv`` are
    optional; absent files fall back to the built-in reference coefficients.
    ``config`` is a path to a JSON file, or None (uses ``data_dir/config.json``
    when present, else defaults).  A link to a missing file is present, not
    absent: it is read, and named as a ``missing file``.  To run on a
    ``ModelConfig`` record, replace the loaded one:
    ``dataset._replace(config=cfg)``.  Every file is read
    before any fails: one ``DataError`` lists the problems of countries.csv,
    crops.csv, fuels.csv and the config, in that order; a file the system
    refuses to read, such as a directory, has its ``OSError`` message as its
    problem.
    """
    data_dir = Path(data_dir)
    problems = []

    def attempt(loader, path):
        try:
            return loader(path)
        except DataError as exc:
            problems.extend(exc.problems)
        return None

    countries = attempt(load_countries, data_dir / "countries.csv")
    crops_path = data_dir / "crops.csv"
    crops = attempt(load_crops, crops_path) if os.path.lexists(crops_path) else default_crops()
    fuels_path = data_dir / "fuels.csv"
    fuels = (attempt(load_fuels, fuels_path) if os.path.lexists(fuels_path)
             else (default_fuel_properties(), DEFAULT_PELLET_EF))
    if config is None and os.path.lexists(data_dir / "config.json"):
        config = data_dir / "config.json"
    cfg = attempt(load_config, config) if config is not None else ModelConfig()
    if problems:
        raise DataError(problems)
    # each cell was held to its bound as it was parsed, and named by file, line
    # and column if it failed, so no field is checked again
    return tuple.__new__(Dataset, (MappingProxyType(crops), MappingProxyType(countries),
                                   MappingProxyType(fuels[0]), fuels[1], cfg))
