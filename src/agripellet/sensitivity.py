"""Two-axis sensitivity sweep: fossil price multipliers x exogenous pellet prices.

Each cell scales every country's resolved fossil prices by the multiplier,
overrides the pellet price globally (the break-even solver is bypassed; the
price is an input here), reruns the cost-optimized replacement plan per
country, and sums global savings.  A baseline cell at multiplier 1.0 with each
country's own solved break-even price is kept separately for reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from . import replacement
from .dataio import FUELS, DataError, Dataset
from .pipeline import STAGE_PLAN, run_pipeline


@dataclass(frozen=True)
class SensitivityGrid:
    fossil_multipliers: tuple
    pellet_prices: tuple
    s_ec: dict    # (multiplier, price) -> $/y
    s_em: dict    # (multiplier, price) -> kgCO2e/y
    baseline_s_ec: float
    baseline_s_em: float


def cell_savings(countries: list, dataset: Dataset, multiplier: float,
                 pellet_price: float) -> tuple:
    """Global (s_ec, s_em) for one grid cell under scenario A.

    ``countries`` holds one ``(weighted_lhv, pellet_energy, fuel_price,
    consumption)`` tuple per country with residue.
    """
    total_ec = 0.0
    total_em = 0.0
    for weighted_lhv, pellet_energy, fuel_price, consumption in countries:
        econ = replacement.build_economics(
            {f: fuel_price[f] * multiplier for f in FUELS},
            dataset.fuel_properties,
            pellet_price,
            weighted_lhv,
            dataset.pellet_ef,
        )
        plan = replacement.build_plan(pellet_energy, consumption, econ, "A")
        total_ec += plan.s_ec
        total_em += plan.s_em
    return total_ec, total_em


def sweep(dataset: Dataset, multipliers=None, pellet_prices=None) -> SensitivityGrid:
    cfg = dataset.config
    multipliers = tuple(multipliers if multipliers is not None else cfg.fossil_multipliers)
    pellet_prices = tuple(pellet_prices if pellet_prices is not None else cfg.pellet_prices)

    # baseline: unscaled prices, each country at its own break-even price
    baseline_dataset = dc_replace(dataset, config=dc_replace(cfg, scenario="A"))
    baseline = run_pipeline(baseline_dataset, through=STAGE_PLAN)
    if baseline.errors:
        raise DataError([f"{name}: {message}" for name, message in baseline.errors])

    consumption = {c.name: {f: c.consumption(f) for f in FUELS} for c in dataset.countries}
    countries = [
        (r.energy.weighted_lhv, r.energy.pellet_energy,
         {f: r.resolved[f"price_{f}"] for f in FUELS}, consumption[r.country])
        for r in baseline.reports
        if r.energy.weighted_lhv is not None  # no residue, nothing to allocate
    ]
    s_ec = {}
    s_em = {}
    for m in multipliers:
        for p in pellet_prices:
            s_ec[(m, p)], s_em[(m, p)] = cell_savings(countries, dataset, m, p)
    return SensitivityGrid(
        fossil_multipliers=multipliers,
        pellet_prices=pellet_prices,
        s_ec=s_ec,
        s_em=s_em,
        baseline_s_ec=baseline.global_report.total_s_ec,
        baseline_s_em=baseline.global_report.total_s_em,
    )


def grid_rows_wide(grid: SensitivityGrid) -> list:
    """Rows = multipliers, columns = pellet prices, values = global s_ec."""
    header = ["fossil_multiplier"] + [f"pellet_{p:g}_usd_t" for p in grid.pellet_prices]
    rows = [header]
    for m in grid.fossil_multipliers:
        rows.append([f"{m:g}"] + [repr(grid.s_ec[(m, p)]) for p in grid.pellet_prices])
    return rows


def grid_rows_long(grid: SensitivityGrid) -> list:
    header = ["fossil_multiplier", "pellet_price_usd_t", "s_ec_usd_per_y", "s_em_kgco2e_per_y"]
    rows = [header]
    for m in grid.fossil_multipliers:
        for p in grid.pellet_prices:
            rows.append([f"{m:g}", f"{p:g}", repr(grid.s_ec[(m, p)]), repr(grid.s_em[(m, p)])])
    return rows
