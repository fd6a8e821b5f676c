"""The one fallback rule for an empty ``countries.csv`` cell.

A ``CONTINENT`` field falls back country -> continent mean -> world mean,
over the countries that carry data for it; a ``WORLD_AVERAGE`` field, a dry
matter fraction, falls back straight to its crop's world-average default
from ``crops.csv``.  Each mean is exact (the exact sum of its values divided
once by their count, so it lies within their range) and is computed once per
field, from the whole column, and only when a cell to resolve is empty: a
subset of rows gets the fallback of the whole table.  ``resolve_column``
fills a field's empty cells at once, and ``resolved_columns`` names the
output columns of the fields a run resolves.  This module reads the
``dataio`` field table; ``dataio`` never reads this module.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import methodcaller, mul

from .dataio import FIELDS, WORLD_AVERAGE, Dataset

_TIERS = {f.key: f.fallback for f in FIELDS if f.fallback is not None}


def resolved_columns(*stages) -> tuple:
    """The value column ``X``, then the fallback-tier column ``src_X``, of
    each field that ``stages`` resolve, in ``FIELDS`` order."""
    return tuple(c for f in FIELDS if f.stage in stages for c in (f.key, f"src_{f.key}"))


def _exact_sum(ratios, weights) -> tuple:
    """``(numerator, denominator)`` of the exact sum of each ``n / d`` among
    ``ratios`` times its weight: every ``d`` is a power of two, so each ``n``
    is carried over to the largest ``d``."""
    numerators, denominators = zip(*ratios)
    top = max(denominators)
    return sum(map(mul, map(mul, numerators, map(top.__floordiv__, denominators)), weights)), top


def _means(pairs) -> tuple:
    """``(key -> mean, mean of all)`` of the numbers of ``(key, value)`` pairs,
    None values left out (the mean of all None when there is no number).

    Each mean is the exact sum, from each distinct value's integer ratio times
    its count, divided once by the count: ``int / int`` rounds correctly, so a
    mean has the same bits for its values in any order or repeated, and lies
    within their range.  The sum of all is the sum of the keys' sums.
    """
    groups = {}
    for key, value in pairs:
        if value is not None:
            groups.setdefault(key, []).append(value)
    if not groups:
        return {}, None
    sums = {key: _exact_sum(map(methodcaller("as_integer_ratio"), counts), counts.values())
            for key, counts in ((key, Counter(values)) for key, values in groups.items())}
    total, top = _exact_sum(sums.values(), repeat(1))
    return ({key: n / (d * len(groups[key])) for key, (n, d) in sums.items()},
            total / (top * sum(map(len, groups.values()))))


def resolve_column(dataset: Dataset, name: str, rows) -> tuple:
    """``(values, tiers, failures)`` of one nullable field at the countries
    rows ``rows`` (an iterable of row numbers, taken into a list once): each
    cell's value, filled if empty, and its fallback tier, and the message of
    each position of ``rows`` whose cell does not resolve (its value and tier
    None).

    A ``CONTINENT`` field falls back country -> continent mean -> world mean
    over the countries that carry data.  A ``WORLD_AVERAGE`` (dry matter)
    field skips the continent tier and falls back straight to the crop's
    world-average default.  The means are computed only when a cell of
    ``rows`` is empty, once, from the whole column, so a subset of rows
    gets the fallback of the whole table.
    """
    tier = _TIERS.get(name)
    if tier is None:
        raise KeyError(f"not a resolvable field: {name!r}")
    countries, rows = dataset.countries, list(rows)  # min() and max() each read it
    size = len(countries["country"])
    if rows and not 0 <= min(rows) <= max(rows) < size:  # a negative row would index from the end
        row = next(row for row in rows if not 0 <= row < size)
        raise IndexError(f"no countries row {row!r} in a table of {size} rows")
    values = list(map(countries[name].__getitem__, rows))
    tiers, failures = ["country"] * len(values), {}
    if None not in values:
        return values, tiers, failures
    continents = countries["continent"]
    if tier == WORLD_AVERAGE:  # key dmr_<crop>
        means, world = {}, dataset.crops[name.removeprefix("dmr_")].dmr_default
    else:
        (means, world), tier = _means(zip(continents, countries[name])), "world"  # the world mean's
    for pos, row in enumerate(rows):
        if values[pos] is None:
            if continents[row] in means:
                values[pos], tiers[pos] = means[continents[row]], "continent"
            elif world is not None:
                values[pos], tiers[pos] = world, tier
            else:
                tiers[pos] = None
                failures[pos] = (f"no country in the dataset has data for {name!r} "
                                 f"(needed by {countries['country'][row]!r})")
    return values, tiers, failures
