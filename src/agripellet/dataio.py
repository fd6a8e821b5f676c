"""Input dataset loading, validation, and missing-value resolution.

All model inputs arrive as UTF-8 CSV files (a leading byte-order mark is
skipped) with a header row ("-" or an empty cell means "no data") plus an
optional JSON run configuration.  Loaded data is immutable; downstream modules
treat a Dataset as read-only.  ``FIELDS`` describes each numeric
``countries.csv`` column once (header, model key, bound, fallback tier);
loading, bounds checks and resolution derive from it.  A table is parsed a
whole column at a time, and its rows are scanned only when a column check
trips, so that each problem is named by line and column.  ``resolve`` is the
one fallback rule for an empty cell; the pipeline sends only empty cells
through it.  This module only reads files; every output goes through
``reporting``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

CROPS = ("maize", "rice", "sugarcane", "wheat")
FUELS = ("coal", "oil", "natural_gas")
ANIMALS = ("cattle", "horses", "sheep", "swine")
PLI_COMPONENTS = ("labor", "raw_material", "construction", "electricity")
# Replacement ranking objectives: cost, emissions, cost with a carbon tax.
SCENARIOS = ("A", "B", "C")

# Residue generated per ton of crop harvested, t/t.
DEFAULT_RTP = {"maize": 1.00, "rice": 1.40, "sugarcane": 1.00, "wheat": 1.30}
# Fraction of residue that can be removed from fields without degrading soil.
DEFAULT_SRR = {"maize": 0.50, "rice": 0.60, "sugarcane": 0.875, "wheat": 0.40}
# World-average dry matter as a fraction of fresh residue weight.
DEFAULT_DMR_WORLD = {"maize": 0.7374, "rice": 0.8774, "sugarcane": 0.4388, "wheat": 0.8627}
# Lower heating value of the residue, MJ/kg.
DEFAULT_RESIDUE_LHV = {"maize": 17.3, "rice": 14.6, "sugarcane": 17.3, "wheat": 17.2}
# Fossil fuel lower heating values (MJ/kg) and emission factors (kgCO2e/t).
DEFAULT_FUEL_LHV = {"coal": 23.9, "oil": 42.0, "natural_gas": 42.0}
DEFAULT_FUEL_EF = {"coal": 2592.0, "oil": 2977.0, "natural_gas": 2114.0}
DEFAULT_PELLET_EF = 151.0  # kgCO2e per ton of pellets burned


class DataError(ValueError):
    """A file failed schema or invariant validation; message lists every problem."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class UnresolvableFieldError(DataError):
    """No country anywhere in the dataset carries data for the requested field."""


class Bound(NamedTuple):
    """A range of accepted values, stored closed: an open end is kept as the
    nearest float inside it, so ``lo <= value <= hi`` checks a value exactly
    (and rejects NaN)."""

    text: str   # as messages and the README write it: ">= 0", "in (0, 1]"
    lo: float
    hi: float

    def check(self, label: str, value, problems: list) -> None:
        if not self.lo <= value <= self.hi:
            problems.append(f"{label}: must be {self.text}, got {value!r}")


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


class Field(NamedTuple):
    column: str     # CSV header
    key: str        # CountryProfile.values key; a resolved field's output column
    bound: Bound
    fallback: str | None = None


# Every numeric countries.csv column, in file order after country and continent.
FIELDS = (
    *(Field(f"prod_{c}_t", f"prod_{c}", NONNEGATIVE) for c in CROPS),
    *(Field(f"dmr_{c}", f"dmr_{c}", FRACTION, WORLD_AVERAGE) for c in CROPS),
    *(Field(a, a, NONNEGATIVE) for a in ANIMALS),
    Field("bagasse_bioenergy_t", "bagasse_bioenergy", NONNEGATIVE),
    Field("other_bioenergy_t", "other_bioenergy", NONNEGATIVE),
    Field("pli_labor", "pli_labor", POSITIVE, CONTINENT),
    Field("pli_raw", "pli_raw_material", POSITIVE, CONTINENT),
    Field("pli_construction", "pli_construction", POSITIVE, CONTINENT),
    Field("pli_electricity", "pli_electricity", POSITIVE, CONTINENT),
    Field("discount_rate", "discount_rate", UNIT_INTERVAL, CONTINENT),
    Field("tax_rate", "tax_rate", BELOW_ONE, CONTINENT),
    Field("price_coal_usd_t", "price_coal", NONNEGATIVE, CONTINENT),
    Field("price_oil_usd_t", "price_oil", NONNEGATIVE, CONTINENT),
    Field("price_gas_usd_t", "price_natural_gas", NONNEGATIVE, CONTINENT),
    Field("cons_coal_tj", "cons_coal", NONNEGATIVE),
    Field("cons_oil_tj", "cons_oil", NONNEGATIVE),
    Field("cons_gas_tj", "cons_natural_gas", NONNEGATIVE),
)
COUNTRIES_COLUMNS = ("country", "continent") + tuple(f.column for f in FIELDS)
RESOLVABLE_FIELDS = tuple(f.key for f in FIELDS if f.fallback)
FIELD_BOUNDS = {f.key: f.bound for f in FIELDS}

# The numeric cells of crops.csv and fuels.csv; keys are the record fields.
CROP_FIELDS = (
    Field("rtp", "rtp", POSITIVE),
    Field("srr", "srr", UNIT_INTERVAL),
    Field("dmr_world", "dmr_default", FRACTION),
    Field("lhv_mj_per_kg", "lhv", POSITIVE),
)
FUEL_FIELDS = (
    Field("lhv_mj_per_kg", "lhv", POSITIVE),
    Field("ef_kgco2e_per_t", "ef", NONNEGATIVE),
)
SERIES_VALUE = Field("value", "value", NONNEGATIVE)  # the yoy series' value column
CROPS_COLUMNS = ("crop",) + tuple(f.column for f in CROP_FIELDS)
FUELS_COLUMNS = ("fuel",) + tuple(f.column for f in FUEL_FIELDS)


def _check_fields(obj, table: tuple) -> None:
    """A DataError naming the column of every attribute of ``obj`` outside its bound."""
    problems = []
    for f in table:
        f.bound.check(f.column, getattr(obj, f.key), problems)
    if problems:
        raise DataError(problems)


class CheckedRecord:
    """Mixin for a record whose constructor checks its fields.

    A ``NamedTuple`` can define no ``__new__`` and take no mixin, so a checked
    record is a ``NamedTuple`` of its fields plus a subclass of this mixin and
    that tuple which defines ``_check``.  ``_replace`` builds through the
    constructor, so a changed copy is checked again.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class _CropCoefficients(NamedTuple):
    rtp: float          # residue per ton produced, t/t
    srr: float          # removable fraction, 0..1
    dmr_default: float  # world-average dry matter fraction, 0..1
    lhv: float          # MJ/kg


class CropCoefficients(CheckedRecord, _CropCoefficients):
    __slots__ = ()

    def _check(self):
        _check_fields(self, CROP_FIELDS)


class LivestockRates(NamedTuple):
    """Residue consumed per animal for feed/bedding, kg/day."""

    cattle: float = 0.375
    horses: float = 1.500
    sheep: float = 0.100
    swine: float = 0.063

    def rate(self, animal: str) -> float:
        return getattr(self, animal)


class _FuelProperties(NamedTuple):
    lhv: float  # MJ/kg
    ef: float   # kgCO2e/t


class FuelProperties(CheckedRecord, _FuelProperties):
    __slots__ = ()

    def _check(self):
        _check_fields(self, FUEL_FIELDS)


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # exact for an int beyond float range


class _ModelConfig(NamedTuple):
    plant_capacity: float = 40_080.0      # t pellets/y
    horizon_years: int = 20
    salvage_rate: float = 0.10            # fraction of total fixed capital
    tfc_capex_ratio: float = 1.0 / 1.2    # from 5% working capital + 15% start-up loading
    pellet_efficiency: float = 0.95       # mass surviving pelletization
    scenario: str = "A"
    carbon_tax: float = 0.0               # $/tCO2e, scenario C only
    fossil_multipliers: tuple = (0.25, 0.50, 0.75, 1.00, 1.25, 1.50, 1.75)
    pellet_prices: tuple = tuple(10.0 + 19.0 * i for i in range(11))  # 10 .. 200 $/t inclusive


class ModelConfig(CheckedRecord, _ModelConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a config file gives the axes as lists; the record holds them as tuples
        # (the base's _replace builds without a second check)
        return _ModelConfig._replace(self, fossil_multipliers=tuple(self.fossil_multipliers),
                                     pellet_prices=tuple(self.pellet_prices))

    def _check(self):
        problems = [f"{name} must be a finite number, got {getattr(self, name)!r}"
                    for name in ("plant_capacity", "salvage_rate", "tfc_capex_ratio",
                                 "pellet_efficiency", "carbon_tax")
                    if not _is_finite_number(getattr(self, name))]
        if isinstance(self.horizon_years, bool) or not isinstance(self.horizon_years, int):
            problems.append(f"horizon_years must be an integer, got {self.horizon_years!r}")
        for name in ("fossil_multipliers", "pellet_prices"):
            axis = getattr(self, name)
            if not (isinstance(axis, (list, tuple)) and all(map(_is_finite_number, axis))):
                problems.append(f"{name} must be a list of finite numbers, got {axis!r}")
        if problems:
            raise DataError(problems)
        POSITIVE.check("plant_capacity", self.plant_capacity, problems)
        HORIZON.check("horizon_years", self.horizon_years, problems)
        BELOW_ONE.check("salvage_rate", self.salvage_rate, problems)  # as BreakEvenInputs
        FRACTION.check("tfc_capex_ratio", self.tfc_capex_ratio, problems)
        FRACTION.check("pellet_efficiency", self.pellet_efficiency, problems)
        if self.scenario not in SCENARIOS:
            problems.append(f"scenario must be A, B, or C, got {self.scenario!r}")
        NONNEGATIVE.check("carbon_tax", self.carbon_tax, problems)
        # the sweep's closed form holds only for multipliers > 0
        if not self.fossil_multipliers or min(self.fossil_multipliers) <= 0:
            problems.append("fossil_multipliers must be a non-empty list of values > 0")
        if not self.pellet_prices:
            problems.append("pellet_prices must not be empty")
        for name in ("fossil_multipliers", "pellet_prices"):
            axis = getattr(self, name)
            if len(set(axis)) != len(axis):  # a repeat would write one grid cell twice
                problems.append(f"{name} must not repeat a value, got {list(axis)!r}")
        if problems:
            raise DataError(problems)


class CountryProfile(NamedTuple):
    name: str
    continent: str
    values: dict  # FIELDS key -> float, None where the cell is empty


class _Dataset(NamedTuple):
    crops: dict               # CropCoefficients per crop
    livestock_rates: LivestockRates
    countries: tuple          # CountryProfile, input file order
    fuel_properties: dict     # FuelProperties per fuel
    pellet_ef: float
    config: ModelConfig


class Dataset(CheckedRecord, _Dataset):
    # no __slots__: the cached_property below keeps its table in the instance __dict__

    def _check(self):
        problems = []
        seen = set()
        for c in self.countries:
            if c.name in seen:
                problems.append(f"duplicate country {c.name!r}")
            seen.add(c.name)
            if not c.continent:
                problems.append(f"country {c.name!r} has no continent label")
        if set(self.crops) != set(CROPS):
            problems.append(f"crops table must cover exactly {CROPS}")
        if set(self.fuel_properties) != set(FUELS):
            problems.append(f"fuels table must cover exactly {FUELS}")
        if problems:
            raise DataError(problems)

    @cached_property
    def _fallbacks(self) -> dict:
        """Resolvable key -> (continent -> mean, world value or None, world tier tag).

        Continent and world means are built in one pass over the countries in
        file order, so each mean sums the same values in the same order as a
        scan of the whole dataset.  A world-average field has no continent
        tier: it falls back to the crop's default dry matter.
        """
        keys = [f.key for f in FIELDS if f.fallback == CONTINENT]
        by_continent = {key: {} for key in keys}
        world = {key: [] for key in keys}
        for c in self.countries:
            values = c.values
            for key in keys:
                value = values[key]
                if value is not None:
                    by_continent[key].setdefault(c.continent, []).append(value)
                    world[key].append(value)
        table = {
            key: ({k: sum(v) / len(v) for k, v in by_continent[key].items()},
                  sum(world[key]) / len(world[key]) if world[key] else None, "world")
            for key in keys
        }
        for f in FIELDS:
            if f.fallback == WORLD_AVERAGE:  # key dmr_<crop>
                crop = f.key.removeprefix("dmr_")
                table[f.key] = ({}, self.crops[crop].dmr_default, WORLD_AVERAGE)
        return table


def default_crops() -> dict:
    return {
        c: CropCoefficients(DEFAULT_RTP[c], DEFAULT_SRR[c], DEFAULT_DMR_WORLD[c],
                            DEFAULT_RESIDUE_LHV[c])
        for c in CROPS
    }


def default_fuel_properties() -> dict:
    return {f: FuelProperties(DEFAULT_FUEL_LHV[f], DEFAULT_FUEL_EF[f]) for f in FUELS}


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


def _parse_row(table: tuple, cells: list, where: str, problems: list) -> dict | None:
    """``{key: value}`` for one row's numeric cells, or None when a cell is bad.

    Each cell is parsed and checked against its field's bound; a bad cell adds
    one problem naming ``where`` and the field's column.
    """
    found = len(problems)
    values = {}
    for (column, key, bound, _), raw in zip(table, cells):
        try:
            value = parse_cell(raw)
        except DataError as exc:
            problems.append(f"{where}: {column}: {exc}")
            continue
        if value is not None and not bound.lo <= value <= bound.hi:
            bound.check(f"{where}: {column}", value, problems)
        values[key] = value
    return values if len(problems) == found else None


def _read_rows(path: Path, *headers: tuple) -> tuple:
    """``(header, [(lineno, cells)])`` of a CSV whose header is one of ``headers``.

    Blank lines are skipped; every other row must have the header's width,
    and every row that has not is named in one ``DataError``.  A file that is
    not UTF-8 text, or that ``csv`` cannot split, is a ``DataError`` naming
    the line.
    """
    if not path.exists():
        raise DataError(f"missing file: {path}")
    raw = path.read_bytes().removeprefix(b"\xef\xbb\xbf")  # a byte-order mark
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path.name} line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path.name}: empty file, header row required")
        header = tuple(h.strip() for h in first)
        if header not in headers:
            raise DataError(f"{path.name}: header mismatch, expected "
                            + " or ".join(",".join(h) for h in headers))
        rows = []
        problems = []
        start = reader.line_num + 1  # a row is named by the line it starts on
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                problems.append(
                    f"{path.name} line {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            rows.append((lineno, row))
    except csv.Error as exc:  # e.g. a cell beyond csv.field_size_limit()
        raise DataError(f"{path.name} line {reader.line_num}: {exc}") from None
    if problems:
        raise DataError(problems)
    return header, rows


def _parse_columns(file: str, rows: list, columns: tuple, names, table: tuple) -> list | None:
    """The rows ``_read_table`` yields, each column checked and parsed whole,
    or None when a check trips; the row scan then names every problem.

    A numeric column is taken whole only when its text is ASCII without ``_``
    (``float`` reads both, ``parse_cell`` neither), ``float`` reads each cell
    that holds data, and the values are finite and inside the field's bound:
    ``parse_cell`` and the bound check accept each of its cells alike.
    """
    if not rows:
        return []
    first = len(columns) - len(table)  # the first numeric cell
    cells = list(zip(*[row for _, row in rows]))
    keys = [cell.strip() for cell in cells[0]]
    if ("" in keys or len(set(keys)) != len(keys)
            or (names is not None and not set(keys) <= set(names))):
        return None
    texts = [[cell.strip() for cell in col] for col in cells[1:first]]
    if any("" in col for col in texts):
        return None
    values = []
    for (_, _, bound, _), col in zip(table, cells[first:]):
        text = "".join(col)
        if not text.isascii() or "_" in text:
            return None
        try:
            parsed = present = list(map(float, col))
        except ValueError:  # an empty cell, or a cell float cannot read
            try:
                parsed = [None if cell.strip() in _NO_DATA else float(cell) for cell in col]
            except ValueError:
                return None
            present = [value for value in parsed if value is not None]
        if present and not (math.isfinite(sum(present))  # a NaN, an inf, or an overflow
                            and bound.lo <= min(present) and max(present) <= bound.hi):
            return None
        values.append(parsed)
    fields = [f.key for f in table]
    return [(f"{file} line {lineno}", name, labels, dict(zip(fields, row_values)))
            for (lineno, _), (name, *labels), row_values
            in zip(rows, zip(keys, *texts), zip(*values))]


def _read_table(path: Path, columns: tuple, names, table: tuple, problems: list):
    """Yield ``(where, name, text cells, values)`` for each good row of a table
    keyed by its first column; every bad row adds its problems to ``problems``.

    ``names`` holds the accepted names (None: any non-empty name), and a name
    may not repeat.  The cells between the name and the ``table`` numeric
    cells are text labels that may not be empty.  The table is checked column
    by column first; only when a check trips are its rows scanned, and then
    each row is checked as it is yielded, so a caller's own problems stay in
    line order.
    """
    _, rows = _read_rows(path, columns)
    parsed = _parse_columns(path.name, rows, columns, names, table)
    if parsed is not None:
        yield from parsed
        return
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
        values = _parse_row(table, row[first:], where, problems)
        if values is not None:
            yield where, name, texts, values


def load_crops(path: str | Path) -> dict:
    path = Path(path)
    crops = {}
    problems = []
    for where, name, _, values in _read_table(path, CROPS_COLUMNS, CROPS, CROP_FIELDS,
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
    for where, name, _, values in _read_table(path, FUELS_COLUMNS, FUELS + ("pellet",),
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


def load_countries(path: str | Path) -> tuple:
    path = Path(path)
    problems = []
    profiles = tuple(CountryProfile(name, continent, values) for _, name, (continent,), values
                     in _read_table(path, COUNTRIES_COLUMNS, None, FIELDS, problems))
    if problems:
        raise DataError(problems)
    return profiles


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
            problems.append(f"{where}: empty country name")
        raw_year = row[-2].strip()
        if not (raw_year.isascii() and raw_year.isdigit()):  # int() takes 2_000, +2001, ٢٠٠١
            problems.append(f"{where}: year: not an integer: {raw_year!r}")
        else:
            try:
                year = int(raw_year)
            except ValueError:  # past int()'s limit on digits (4,300 by default)
                problems.append(f"{where}: year: too many digits ({len(raw_year)})")
        values = _parse_row((SERIES_VALUE,), row[-1:], where, problems)
        if values is not None and values["value"] is None:
            problems.append(f"{where}: value: missing value")
        if len(problems) == found:
            series.setdefault(name, []).append((year, values["value"]))
    if problems:
        raise DataError(problems)
    return series


def load_config(path: str | Path) -> ModelConfig:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 and ints over 4,300 digits
        raise DataError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path.name}: top-level object required")
    unknown = set(raw) - set(ModelConfig._fields)
    if unknown:
        raise DataError(f"{path.name}: unknown config keys {sorted(unknown)}")
    try:
        return ModelConfig(**raw)
    except TypeError as exc:
        raise DataError(f"{path.name}: {exc}") from None


def load_dataset(data_dir: str | Path, config: str | Path | None = None) -> Dataset:
    """Load and validate all inputs under ``data_dir``.

    ``countries.csv`` is required.  ``crops.csv`` and ``fuels.csv`` are
    optional; absent files fall back to the built-in reference coefficients.
    ``config`` is a path to a JSON file, or None (uses ``data_dir/config.json``
    when present, else defaults).  To run on a ``ModelConfig`` record, replace
    the loaded one: ``dataset._replace(config=cfg)``.
    """
    data_dir = Path(data_dir)
    countries = load_countries(data_dir / "countries.csv")
    crops_path = data_dir / "crops.csv"
    crops = load_crops(crops_path) if crops_path.exists() else default_crops()
    fuels_path = data_dir / "fuels.csv"
    if fuels_path.exists():
        fuel_properties, pellet_ef = load_fuels(fuels_path)
    else:
        fuel_properties, pellet_ef = default_fuel_properties(), DEFAULT_PELLET_EF
    if config is None and (data_dir / "config.json").exists():
        config = data_dir / "config.json"
    cfg = load_config(config) if config is not None else ModelConfig()
    return Dataset(
        crops=crops,
        livestock_rates=LivestockRates(),
        countries=countries,
        fuel_properties=fuel_properties,
        pellet_ef=pellet_ef,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Missing-value resolution

def resolve(dataset: Dataset, country: CountryProfile, name: str) -> tuple:
    """Resolve one nullable country field to ``(value, provenance_tag)``.

    A ``CONTINENT`` field falls back country -> continent mean -> world mean
    over the countries that carry data.  A ``WORLD_AVERAGE`` (dry matter)
    field skips the continent tier and falls back straight to the crop's
    world-average default.
    """
    fallback = dataset._fallbacks.get(name)
    if fallback is None:
        raise KeyError(f"not a resolvable field: {name!r}")
    own = country.values[name]
    if own is not None:
        return own, "country"
    continent_means, world, world_tag = fallback
    if country.continent in continent_means:
        return continent_means[country.continent], "continent"
    if world is not None:
        return world, world_tag
    raise UnresolvableFieldError(
        f"no country in the dataset has data for {name!r} (needed by {country.name!r})"
    )
