"""The ``yoy`` subcommand's year-on-year growth of annual production series:
``yoy_growth`` gives the growth fractions and their average of one series that
``dataio.load_series`` reads."""

from __future__ import annotations

import math
from typing import NamedTuple

from .dataio import DataError, add_all


class GrowthPair(NamedTuple):
    year_from: int
    year_to: int
    growth: float | None  # None when the base year is zero


class GrowthResult(NamedTuple):
    pairs: tuple
    average: float  # mean growth over pairs with a nonzero base year


def yoy_growth(series) -> GrowthResult:
    """Year-on-year growth fractions for a consecutive annual series.

    ``series`` is an iterable of (year, value).  Pairs with a zero base year
    carry no growth figure and are excluded from the average.  A growth or an
    average beyond the float range raises a ``DataError``.
    """
    points = sorted((int(y), float(v)) for y, v in series)
    if len(points) < 2:
        raise DataError("series must contain at least two years")
    years = [y for y, _ in points]
    if len(set(years)) != len(years):
        raise DataError("duplicate years in series")
    if any(b - a != 1 for a, b in zip(years, years[1:])):
        raise DataError("series years must be consecutive")
    pairs = [GrowthPair(y0, y1, (v1 - v0) / v0 if v0 > 0 else None)
             for (y0, v0), (y1, v1) in zip(points, points[1:])]
    rates = [pair.growth for pair in pairs if pair.growth is not None]
    if not rates:
        raise DataError("every base year is zero; growth is undefined")
    average = add_all(rates) / len(rates)
    if not math.isfinite(average):  # an infinite rate (each is >= -1) or an overflowing sum
        raise DataError("growth is not a finite number")  # no value named: no output holds inf
    return GrowthResult(pairs=tuple(pairs), average=average)
