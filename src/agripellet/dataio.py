"""Input dataset loading, validation, and missing-value resolution.

All model inputs arrive as UTF-8 CSV files with a header row ("-" or an empty
cell means "no data") plus an optional JSON run configuration.  Loaded data is
immutable; downstream modules treat a Dataset as read-only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

CROPS = ("maize", "rice", "sugarcane", "wheat")
FUELS = ("coal", "oil", "natural_gas")
ANIMALS = ("cattle", "horses", "sheep", "swine")
PLI_COMPONENTS = ("labor", "raw_material", "construction", "electricity")

# Residue generated per ton of crop harvested, t/t.
DEFAULT_RTP = {"maize": 1.00, "rice": 1.40, "sugarcane": 1.00, "wheat": 1.30}
# Fraction of residue that can be removed from fields without degrading soil.
DEFAULT_SRR = {"maize": 0.50, "rice": 0.60, "sugarcane": 0.875, "wheat": 0.40}
# World-average dry matter as a fraction of fresh residue weight.
DEFAULT_DMR_WORLD = {"maize": 0.7374, "rice": 0.8774, "sugarcane": 0.4388, "wheat": 0.8627}
# Lower heating value of the residue, MJ/kg.
DEFAULT_RESIDUE_LHV = {"maize": 17.3, "rice": 14.6, "sugarcane": 17.3, "wheat": 17.2}
# Residue used per animal for feed/bedding, kg/day.
DEFAULT_LIVESTOCK_RATES = {"cattle": 0.375, "horses": 1.500, "sheep": 0.100, "swine": 0.063}
# Fossil fuel lower heating values (MJ/kg) and emission factors (kgCO2e/t).
DEFAULT_FUEL_LHV = {"coal": 23.9, "oil": 42.0, "natural_gas": 42.0}
DEFAULT_FUEL_EF = {"coal": 2592.0, "oil": 2977.0, "natural_gas": 2114.0}
DEFAULT_PELLET_EF = 151.0  # kgCO2e per ton of pellets burned

COUNTRIES_COLUMNS = (
    "country", "continent",
    "prod_maize_t", "prod_rice_t", "prod_sugarcane_t", "prod_wheat_t",
    "dmr_maize", "dmr_rice", "dmr_sugarcane", "dmr_wheat",
    "cattle", "horses", "sheep", "swine",
    "bagasse_bioenergy_t", "other_bioenergy_t",
    "pli_labor", "pli_raw", "pli_construction", "pli_electricity",
    "discount_rate", "tax_rate",
    "price_coal_usd_t", "price_oil_usd_t", "price_gas_usd_t",
    "cons_coal_tj", "cons_oil_tj", "cons_gas_tj",
)
CROPS_COLUMNS = ("crop", "rtp", "srr", "dmr_world", "lhv_mj_per_kg")
FUELS_COLUMNS = ("fuel", "lhv_mj_per_kg", "ef_kgco2e_per_t")


class DataError(ValueError):
    """A file failed schema or invariant validation; message lists every problem."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class UnresolvableFieldError(DataError):
    """No country anywhere in the dataset carries data for the requested field."""


@dataclass(frozen=True)
class CropCoefficients:
    rtp: float          # residue per ton produced, t/t
    srr: float          # removable fraction, 0..1
    dmr_default: float  # world-average dry matter fraction, 0..1
    lhv: float          # MJ/kg

    def __post_init__(self):
        problems = []
        if not self.rtp > 0:
            problems.append(f"rtp must be > 0, got {self.rtp}")
        if not 0 <= self.srr <= 1:
            problems.append(f"srr must be in [0, 1], got {self.srr}")
        if not 0 < self.dmr_default <= 1:
            problems.append(f"dmr_default must be in (0, 1], got {self.dmr_default}")
        if not self.lhv > 0:
            problems.append(f"lhv must be > 0, got {self.lhv}")
        if problems:
            raise DataError(problems)


@dataclass(frozen=True)
class LivestockRates:
    """Residue consumed per animal for feed/bedding, kg/day."""

    cattle: float = 0.375
    horses: float = 1.500
    sheep: float = 0.100
    swine: float = 0.063

    def rate(self, animal: str) -> float:
        return getattr(self, animal)


@dataclass(frozen=True)
class FuelProperties:
    lhv: float  # MJ/kg
    ef: float   # kgCO2e/t

    def __post_init__(self):
        if not self.lhv > 0:
            raise DataError(f"fuel lhv must be > 0, got {self.lhv}")
        if self.ef < 0:
            raise DataError(f"fuel ef must be >= 0, got {self.ef}")


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _default_pellet_prices() -> tuple:
    return tuple(10.0 + 19.0 * i for i in range(11))  # 10 .. 200 $/t inclusive


@dataclass(frozen=True)
class ModelConfig:
    plant_capacity: float = 40_080.0      # t pellets/y
    horizon_years: int = 20
    salvage_rate: float = 0.10            # fraction of total fixed capital
    tfc_capex_ratio: float = 1.0 / 1.2    # from 5% working capital + 15% start-up loading
    pellet_efficiency: float = 0.95       # mass surviving pelletization
    scenario: str = "A"
    carbon_tax: float = 0.0               # $/tCO2e, scenario C only
    fossil_multipliers: tuple = (0.25, 0.50, 0.75, 1.00, 1.25, 1.50, 1.75)
    pellet_prices: tuple = field(default_factory=_default_pellet_prices)

    def __post_init__(self):
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
        if not self.plant_capacity > 0:
            problems.append("plant_capacity must be > 0")
        if self.horizon_years < 1:
            problems.append("horizon_years must be >= 1")
        if not 0 <= self.salvage_rate < 1:
            problems.append("salvage_rate must be in [0, 1)")
        if not 0 < self.tfc_capex_ratio <= 1:
            problems.append("tfc_capex_ratio must be in (0, 1]")
        if not 0 < self.pellet_efficiency <= 1:
            problems.append("pellet_efficiency must be in (0, 1]")
        if self.scenario not in ("A", "B", "C"):
            problems.append(f"scenario must be A, B, or C, got {self.scenario!r}")
        if self.carbon_tax < 0:
            problems.append("carbon_tax must be >= 0")
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
        object.__setattr__(self, "fossil_multipliers", tuple(self.fossil_multipliers))
        object.__setattr__(self, "pellet_prices", tuple(self.pellet_prices))


@dataclass(frozen=True, eq=True)
class CountryProfile:
    name: str
    continent: str
    production: dict          # t/y per crop, None = not grown
    dmr_override: dict        # dry matter fraction per crop, None = use fallback
    livestock: dict           # head count per animal, None = none reported
    bagasse_bioenergy: float | None        # t/y of bagasse burned for energy
    other_residue_bioenergy: float | None  # t/y of "other vegetal" bioenergy
    pli: dict                 # price level index per component, None = resolve
    discount_rate: float | None
    tax_rate: float | None
    fuel_price: dict          # $/t per fuel, None = resolve
    fuel_consumption: dict    # TJ/y per fuel, None = none

    def prod(self, crop: str) -> float:
        return self.production[crop] or 0.0

    def heads(self, animal: str) -> float:
        return self.livestock[animal] or 0.0

    def consumption(self, fuel: str) -> float:
        return self.fuel_consumption[fuel] or 0.0


@dataclass(frozen=True)
class Dataset:
    crops: dict               # CropCoefficients per crop
    livestock_rates: LivestockRates
    countries: tuple          # CountryProfile, input file order
    fuel_properties: dict     # FuelProperties per fuel
    pellet_ef: float
    config: ModelConfig

    def __post_init__(self):
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

    def country(self, name: str) -> CountryProfile:
        for c in self.countries:
            if c.name == name:
                return c
        raise KeyError(name)

    @cached_property
    def _fallback_means(self) -> dict:
        """Field -> (continent -> mean, world mean or None) over the countries
        carrying the field, for every field with continent/world fallback.

        Built in one pass over the countries in file order, so each mean sums
        the same values in the same order as a scan of the whole dataset.
        """
        getters = {name: _field_getter(name) for name in RESOLVABLE_FIELDS
                   if not name.startswith("dmr_")}
        by_continent = {name: {} for name in getters}
        world = {name: [] for name in getters}
        for c in self.countries:
            for name, get in getters.items():
                value = get(c)
                if value is not None:
                    by_continent[name].setdefault(c.continent, []).append(value)
                    world[name].append(value)
        return {
            name: ({k: sum(v) / len(v) for k, v in by_continent[name].items()},
                   sum(world[name]) / len(world[name]) if world[name] else None)
            for name in getters
        }


def default_crops() -> dict:
    return {
        c: CropCoefficients(DEFAULT_RTP[c], DEFAULT_SRR[c], DEFAULT_DMR_WORLD[c],
                            DEFAULT_RESIDUE_LHV[c])
        for c in CROPS
    }


def default_fuel_properties() -> dict:
    return {f: FuelProperties(DEFAULT_FUEL_LHV[f], DEFAULT_FUEL_EF[f]) for f in FUELS}


def parse_cell(raw: str) -> float | None:
    """One CSV cell to a finite float; '-' or empty means no data."""
    raw = raw.strip()
    if raw in ("", "-"):
        return None
    try:
        value = float(raw)  # period decimal separator, locale independent
    except ValueError:
        raise DataError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"not a finite number: {raw!r}")
    return value


def _parse_cells(columns: tuple, row: list) -> list:
    """``parse_cell`` over a row; an error names the column of the bad cell."""
    values = []
    for column, raw in zip(columns, row):
        try:
            values.append(parse_cell(raw))
        except DataError as exc:
            raise DataError(f"{column}: {exc}") from None
    return values


def _read_rows(path: Path, columns: tuple) -> list:
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path.name}: empty file, header row required") from None
        if tuple(h.strip() for h in header) != columns:
            raise DataError(
                f"{path.name}: header mismatch, expected {','.join(columns)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise DataError(
                    f"{path.name} line {lineno}: expected {len(columns)} columns, got {len(row)}"
                )
            rows.append((lineno, row))
    return rows


def load_crops(path: str | Path) -> dict:
    path = Path(path)
    crops = {}
    problems = []
    for lineno, row in _read_rows(path, CROPS_COLUMNS):
        name = row[0].strip()
        if name not in CROPS:
            problems.append(f"{path.name} line {lineno}: unknown crop {name!r}")
            continue
        if name in crops:
            problems.append(f"{path.name} line {lineno}: duplicate crop {name!r}")
            continue
        try:
            vals = _parse_cells(CROPS_COLUMNS[1:], row[1:])
            if any(v is None for v in vals):
                raise DataError("all four coefficients are required")
            crops[name] = CropCoefficients(*vals)
        except (ValueError, DataError) as exc:
            problems.append(f"{path.name} line {lineno}: {exc}")
    missing = set(CROPS) - set(crops)
    if missing:
        problems.append(f"{path.name}: missing crops {sorted(missing)}")
    if problems:
        raise DataError(problems)
    return crops


def load_fuels(path: str | Path) -> tuple:
    """Returns (fuel properties by fuel, pellet emission factor)."""
    path = Path(path)
    props = {}
    pellet_ef = DEFAULT_PELLET_EF
    problems = []
    for lineno, row in _read_rows(path, FUELS_COLUMNS):
        name = row[0].strip()
        try:
            lhv, ef = _parse_cells(FUELS_COLUMNS[1:], row[1:])
            if name == "pellet":
                if ef is None:
                    raise DataError("pellet row requires ef_kgco2e_per_t")
                pellet_ef = ef
                continue
            if name not in FUELS:
                raise DataError(f"unknown fuel {name!r}")
            if name in props:
                raise DataError(f"duplicate fuel {name!r}")
            if lhv is None or ef is None:
                raise DataError("lhv and ef are required")
            props[name] = FuelProperties(lhv, ef)
        except (ValueError, DataError) as exc:
            problems.append(f"{path.name} line {lineno}: {exc}")
    missing = set(FUELS) - set(props)
    if missing:
        problems.append(f"{path.name}: missing fuels {sorted(missing)}")
    if problems:
        raise DataError(problems)
    return props, pellet_ef


def _check_nonnegative(label, value, problems):
    if value is not None and value < 0:
        problems.append(f"{label}: negative quantity {value}")


def load_countries(path: str | Path) -> tuple:
    path = Path(path)
    profiles = []
    seen = {}
    problems = []
    for lineno, row in _read_rows(path, COUNTRIES_COLUMNS):
        cells = dict(zip(COUNTRIES_COLUMNS, row))
        name = cells["country"].strip()
        where = f"{path.name} line {lineno}"
        if not name:
            problems.append(f"{where}: empty country name")
            continue
        if name in seen:
            problems.append(f"{where}: duplicate country {name!r} (first at line {seen[name]})")
            continue
        seen[name] = lineno
        continent = cells["continent"].strip()
        if not continent:
            problems.append(f"{where}: continent label is required")
        values = {}
        bad_cell = False
        for k, v in cells.items():
            if k in ("country", "continent"):
                continue
            try:
                values[k] = parse_cell(v)
            except DataError as exc:
                problems.append(f"{where}: {k}: {exc}")
                bad_cell = True
        if bad_cell:
            continue
        for col in ("prod_maize_t", "prod_rice_t", "prod_sugarcane_t", "prod_wheat_t",
                    "cattle", "horses", "sheep", "swine",
                    "bagasse_bioenergy_t", "other_bioenergy_t",
                    "price_coal_usd_t", "price_oil_usd_t", "price_gas_usd_t",
                    "cons_coal_tj", "cons_oil_tj", "cons_gas_tj"):
            _check_nonnegative(f"{where}: {col}", values[col], problems)
        for col in ("pli_labor", "pli_raw", "pli_construction", "pli_electricity"):
            v = values[col]
            if v is not None and v <= 0:
                problems.append(f"{where}: {col}: index ratio must be > 0, got {v}")
        for col in ("dmr_maize", "dmr_rice", "dmr_sugarcane", "dmr_wheat"):
            v = values[col]
            if v is not None and not 0 < v <= 1:
                problems.append(f"{where}: {col}: fraction must be in (0, 1], got {v}")
        v = values["discount_rate"]
        if v is not None and not 0 <= v <= 1:
            problems.append(f"{where}: discount_rate: rate must be in [0, 1], got {v}")
        v = values["tax_rate"]
        if v is not None and not 0 <= v < 1:
            problems.append(f"{where}: tax_rate: rate must be in [0, 1), got {v}")
        profiles.append(CountryProfile(
            name=name,
            continent=continent,
            production={c: values[f"prod_{c}_t"] for c in CROPS},
            dmr_override={c: values[f"dmr_{c}"] for c in CROPS},
            livestock={a: values[a] for a in ANIMALS},
            bagasse_bioenergy=values["bagasse_bioenergy_t"],
            other_residue_bioenergy=values["other_bioenergy_t"],
            pli={
                "labor": values["pli_labor"],
                "raw_material": values["pli_raw"],
                "construction": values["pli_construction"],
                "electricity": values["pli_electricity"],
            },
            discount_rate=values["discount_rate"],
            tax_rate=values["tax_rate"],
            fuel_price={
                "coal": values["price_coal_usd_t"],
                "oil": values["price_oil_usd_t"],
                "natural_gas": values["price_gas_usd_t"],
            },
            fuel_consumption={
                "coal": values["cons_coal_tj"],
                "oil": values["cons_oil_tj"],
                "natural_gas": values["cons_gas_tj"],
            },
        ))
    if problems:
        raise DataError(problems)
    return tuple(profiles)


def load_config(path: str | Path) -> ModelConfig:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path.name}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path.name}: top-level object required")
    known = {f.name for f in fields(ModelConfig)}
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"{path.name}: unknown config keys {sorted(unknown)}")
    try:
        return ModelConfig(**raw)
    except TypeError as exc:
        raise DataError(f"{path.name}: {exc}") from None


def load_dataset(data_dir: str | Path, config: ModelConfig | str | Path | None = None) -> Dataset:
    """Load and validate all inputs under ``data_dir``.

    ``countries.csv`` is required.  ``crops.csv`` and ``fuels.csv`` are
    optional; absent files fall back to the built-in reference coefficients.
    ``config`` may be a ModelConfig, a path to a JSON file, or None (uses
    ``data_dir/config.json`` when present, else defaults).
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
    if isinstance(config, ModelConfig):
        cfg = config
    elif config is not None:
        cfg = load_config(config)
    elif (data_dir / "config.json").exists():
        cfg = load_config(data_dir / "config.json")
    else:
        cfg = ModelConfig()
    return Dataset(
        crops=crops,
        livestock_rates=LivestockRates(**DEFAULT_LIVESTOCK_RATES),
        countries=countries,
        fuel_properties=fuel_properties,
        pellet_ef=pellet_ef,
        config=cfg,
    )


def format_cell(value) -> str:
    """One CSV cell: empty for None, ``true``/``false``, ``repr`` for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    """Write a dataset back to CSV/JSON; reloading yields an equal Dataset."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "crops.csv").open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(CROPS_COLUMNS)
        for c in CROPS:
            k = dataset.crops[c]
            w.writerow([c, format_cell(k.rtp), format_cell(k.srr),
                        format_cell(k.dmr_default), format_cell(k.lhv)])
    with (out_dir / "fuels.csv").open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(FUELS_COLUMNS)
        for name in FUELS:
            p = dataset.fuel_properties[name]
            w.writerow([name, format_cell(p.lhv), format_cell(p.ef)])
        w.writerow(["pellet", "", format_cell(dataset.pellet_ef)])
    with (out_dir / "countries.csv").open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(COUNTRIES_COLUMNS)
        for c in dataset.countries:
            w.writerow([
                c.name, c.continent,
                *[format_cell(c.production[crop]) for crop in CROPS],
                *[format_cell(c.dmr_override[crop]) for crop in CROPS],
                *[format_cell(c.livestock[a]) for a in ANIMALS],
                format_cell(c.bagasse_bioenergy), format_cell(c.other_residue_bioenergy),
                *[format_cell(c.pli[p]) for p in PLI_COMPONENTS],
                format_cell(c.discount_rate), format_cell(c.tax_rate),
                *[format_cell(c.fuel_price[fuel]) for fuel in FUELS],
                *[format_cell(c.fuel_consumption[fuel]) for fuel in FUELS],
            ])
    (out_dir / "config.json").write_text(json.dumps(asdict(dataset.config), indent=2) + "\n",
                                         encoding="utf-8")


# ---------------------------------------------------------------------------
# Missing-value resolution

RESOLVABLE_FIELDS = tuple(
    [f"dmr_{c}" for c in CROPS]
    + [f"pli_{p}" for p in PLI_COMPONENTS]
    + ["discount_rate", "tax_rate"]
    + [f"price_{f}" for f in FUELS]
)


def _field_getter(name: str):
    if name.startswith("dmr_"):
        crop = name[4:]
        return lambda c: c.dmr_override[crop]
    if name.startswith("pli_"):
        comp = name[4:]
        return lambda c: c.pli[comp]
    if name == "discount_rate":
        return lambda c: c.discount_rate
    if name == "tax_rate":
        return lambda c: c.tax_rate
    if name.startswith("price_"):
        fuel = name[6:]
        return lambda c: c.fuel_price[fuel]
    raise KeyError(name)


def resolve(dataset: Dataset, country: CountryProfile, name: str) -> tuple:
    """Resolve one nullable country field to ``(value, provenance_tag)``.

    Financial and price fields fall back country -> continent mean -> world
    mean over countries that carry data.  Dry-matter fields skip the continent
    tier and fall back straight to the crop's world-average default.
    """
    if name not in RESOLVABLE_FIELDS:
        raise KeyError(f"not a resolvable field: {name!r}")
    own = _field_getter(name)(country)
    if own is not None:
        return own, "country"
    if name.startswith("dmr_"):
        return dataset.crops[name[4:]].dmr_default, "world-average"
    continent_means, world_mean = dataset._fallback_means[name]
    if country.continent in continent_means:
        return continent_means[country.continent], "continent"
    if world_mean is not None:
        return world_mean, "world"
    raise UnresolvableFieldError(
        f"no country in the dataset has data for {name!r} (needed by {country.name!r})"
    )
