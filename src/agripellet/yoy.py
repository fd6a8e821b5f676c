"""The ``yoy`` subcommand's year-on-year growth of annual production series:
``load_series`` reads a series file as every input table is read, and
``yoy_growth`` gives one series' growth fractions and their average."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .dataio import (_NO_DATA, NONNEGATIVE, DataError, _bad_names, _parse_column, _raise,
                     _read_rows, _report, add_all)


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
