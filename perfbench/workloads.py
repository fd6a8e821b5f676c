"""Seeded input generators for the benchmark workloads.

Every generator writes a self-contained data directory (``countries.csv``
plus whatever else the workload needs) from a seed and returns the facts the
output checks need.  The program under test only ever sees the written files.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

# Columns that measure an amount (t, head, TJ): scaling a copy multiplies them.
# Every other numeric column is a rate, index, fraction or price and is kept.
EXTENSIVE_COLUMNS = (
    "prod_maize_t", "prod_rice_t", "prod_sugarcane_t", "prod_wheat_t",
    "cattle", "horses", "sheep", "swine",
    "bagasse_bioenergy_t", "other_bioenergy_t",
    "cons_coal_tj", "cons_oil_tj", "cons_gas_tj",
)
BUNDLE_FILES = ("countries.csv", "crops.csv", "fuels.csv", "config.json")
CONTINENTS = ("Africa", "Asia", "Europe", "North America", "Oceania", "South America")


@dataclass(frozen=True)
class Workload:
    """Exactly one of ``copies``, ``countries`` or the grid sizes is set."""

    name: str
    copies: int = 0       # report on seeded copies of the bundle
    countries: int = 0    # report on synthetic countries
    multipliers: int = 0  # sweep the bundle: fossil-price multipliers on the grid
    prices: int = 0       # sweep the bundle: pellet prices on the grid


WORKLOADS = {
    w.name: w for w in (
        Workload("report_sparse_x20", copies=20),
        Workload("report_dense_5k", countries=5000),
        Workload("sweep_fine_x1", multipliers=25, prices=40),
    )
}


def _is_empty(cell: str) -> bool:
    return cell.strip() in ("", "-")


def read_bundle(bundle: Path) -> tuple:
    """(header, rows) of the bundled ``countries.csv``, cells as raw strings."""
    with (bundle / "countries.csv").open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, [row for row in reader if row]


def write_countries(path: Path, header: list, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def make_sparse(bundle: Path, out: Path, seed: int, copies: int) -> list:
    """``copies`` renamed, scaled copies of the bundled countries.

    Copy j renames each country to ``"<name> #j"`` and multiplies every
    non-empty extensive cell by a seeded factor s_j in [0.5, 1.5].  Empty
    cells stay empty, so the copies keep the bundle's pattern of missing
    fields.  Returns the factors, first copy first.
    """
    rng = random.Random(seed)
    header, rows = read_bundle(bundle)
    scaled = [header.index(col) for col in EXTENSIVE_COLUMNS]
    factors = [rng.uniform(0.5, 1.5) for _ in range(copies)]
    out_rows = []
    for j, s in enumerate(factors, start=1):
        for row in rows:
            new = list(row)
            new[0] = f"{row[0]} #{j}"
            for i in scaled:
                if not _is_empty(new[i]):
                    new[i] = repr(float(new[i]) * s)
            out_rows.append(new)
    out.mkdir(parents=True, exist_ok=True)
    write_countries(out / "countries.csv", header, out_rows)
    for name in BUNDLE_FILES[1:]:
        shutil.copyfile(bundle / name, out / name)
    return factors


def _dense_row(rng: random.Random, name: str) -> list:
    """One fully populated country row, every value inside the loader's ranges."""
    return [
        name, rng.choice(CONTINENTS),
        *[rng.uniform(0.0, 4e7) for _ in range(4)],      # production, t/y
        *[rng.uniform(0.3, 1.0) for _ in range(4)],      # dry matter, (0, 1]
        rng.uniform(0.0, 1.5e7), rng.uniform(0.0, 1e5),  # cattle, horses
        rng.uniform(0.0, 2e7), rng.uniform(0.0, 3e7),    # sheep, swine
        rng.uniform(0.0, 1e6), rng.uniform(0.0, 3e6),    # bagasse, other bioenergy t/y
        *[rng.uniform(0.5, 2.0) for _ in range(4)],      # price level indexes, > 0
        rng.uniform(0.03, 0.15), rng.uniform(0.10, 0.40),  # discount, tax rate
        rng.uniform(60.0, 160.0), rng.uniform(350.0, 750.0),  # coal, oil $/t
        rng.uniform(200.0, 900.0),                       # natural gas $/t
        *[rng.uniform(1e4, 5e6) for _ in range(3)],      # consumption, TJ/y
    ]


def make_dense(bundle: Path, out: Path, seed: int, countries: int) -> dict:
    """``countries`` synthetic countries with no empty cell.

    Returns ``{country: {fuel column: consumption TJ/y}}`` for the
    allocation-cap check.
    """
    rng = random.Random(seed)
    header, _ = read_bundle(bundle)
    rows = []
    for i in range(countries):
        rows.append([c if isinstance(c, str) else repr(c)
                     for c in _dense_row(rng, f"Synth{i:05d}")])
    out.mkdir(parents=True, exist_ok=True)
    write_countries(out / "countries.csv", header, rows)
    cons = ("cons_coal_tj", "cons_oil_tj", "cons_gas_tj")
    idx = [header.index(c) for c in cons]
    return {row[0]: {c: float(row[i]) for c, i in zip(cons, idx)} for row in rows}


def make_sweep(bundle: Path, out: Path, config_path: Path, seed: int,
               multipliers: int, prices: int) -> dict:
    """A copy of the bundled data plus a seeded fine grid written to ``config_path``.

    Each axis is stratified: one value drawn inside each of its equal-width
    bins, so values are strictly increasing, multipliers span 0.1..1.9 (all
    > 0) and pellet prices 5..200 $/t.  Values are rounded so that the
    ``:g`` form the sweep CSV prints them in is exact.  Returns the config.
    """
    rng = random.Random(seed)

    def axis(lo, hi, count, digits):
        step = (hi - lo) / count
        return [round(lo + step * (i + rng.uniform(0.05, 0.95)), digits) for i in range(count)]

    out.mkdir(parents=True, exist_ok=True)
    for name in BUNDLE_FILES:
        shutil.copyfile(bundle / name, out / name)
    config = json.loads((bundle / "config.json").read_text(encoding="utf-8"))
    config["fossil_multipliers"] = axis(0.1, 1.9, multipliers, 4)
    config["pellet_prices"] = axis(5.0, 200.0, prices, 2)
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config
