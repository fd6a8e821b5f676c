"""Two-axis sensitivity sweep: fossil price multipliers x exogenous pellet prices.

Each cell scales every country's resolved fossil prices by ``m`` and sets one
global pellet price ``p`` (an input here, not the break-even price).  The grid
is always scenario A, where a fuel scores ``m * lcoe_f - pellet_lcoe(p)``: for
``m > 0`` (enforced by ``ModelConfig``) the ranking follows the fossil LCOE
order alone, and the greedy allocation ignores the score's sign, so every cell
allocates as the baseline plan does (each country at its own break-even price,
``m = 1``).  Summed over the planned countries, the grid is therefore

    s_ec(m, p) = m * sum(alloc_f * lcoe_f) - p * sum(alloc_f * pellet_lcoe(1))

and ``s_em`` is the baseline's in every cell.  ``reporting.write_sweep_files``
writes the grid; its CSVs and this module's messages print an axis value by
``axis_label``, exact for every value.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import mul
from typing import NamedTuple

from .dataio import FUELS, DataError, Dataset, add_all, add_rows
from .pipeline import STAGE_PLAN, PipelineResult, run_pipeline
from .replacement import fuel_lcoe


def axis_label(value) -> str:
    """An axis value as the sweep's CSVs and messages print it: its ``:g`` form
    when that reads back as the same number, else its ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


class SensitivityGrid(NamedTuple):
    fossil_multipliers: tuple
    pellet_prices: tuple
    s_ec: dict    # (multiplier, price) -> $/y
    s_em: dict    # (multiplier, price) -> kgCO2e/y
    baseline: PipelineResult  # scenario A, failed countries in its errors


def sweep(dataset: Dataset, countries=None) -> SensitivityGrid:
    """The grid on the config's axes over the countries (all, or the named
    subset) that evaluate."""
    cfg = dataset.config._replace(scenario="A")
    baseline = run_pipeline(dataset._replace(config=cfg), through=STAGE_PLAN,
                            countries=countries)
    columns, lhv = baseline.columns, baseline.columns["weighted_lhv_mj_per_kg"]
    planned = [value is not None for value in lhv]  # no heating value: no plan, as in _plan
    alloc = [list(compress(columns[f"alloc_{f}_tj"], planned)) for f in FUELS]
    lcoe = (map(fuel_lcoe, compress(columns[f"price_{f}"], planned),
                repeat(dataset.fuel_properties[f].lhv)) for f in FUELS)
    a = add_all(add_rows(map(mul, x, c) for x, c in zip(alloc, lcoe)))
    pellet_lcoe = map(fuel_lcoe, repeat(1.0), compress(lhv, planned))
    b = add_all(map(mul, add_rows(alloc), pellet_lcoe))
    s_ec = {(m, p): m * a - p * b for m in cfg.fossil_multipliers for p in cfg.pellet_prices}
    for (m, p), value in s_ec.items():  # finite baseline plans can still overflow here
        if not math.isfinite(value):
            raise DataError(f"non-finite sweep cell s_ec(m={axis_label(m)}, "
                            f"p={axis_label(p)})")  # no value named: no output holds inf
    return SensitivityGrid(
        fossil_multipliers=cfg.fossil_multipliers,
        pellet_prices=cfg.pellet_prices,
        s_ec=s_ec,
        s_em=dict.fromkeys(s_ec, baseline.global_report.s_em_kgco2e_per_y),
        baseline=baseline,
    )

