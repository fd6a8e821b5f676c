"""Tests generated from ``dataio.FIELDS``, the one description of countries.csv,
and from ``CROP_FIELDS`` and ``FUEL_FIELDS``, those of crops.csv and fuels.csv."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agripellet.dataio import (
    CONTINENT,
    COUNTRIES_COLUMNS,
    COUNTRIES_KEYS,
    CROP_FIELDS,
    CROPS_COLUMNS,
    FIELDS,
    FUEL_FIELDS,
    FUELS,
    FUELS_COLUMNS,
    WORLD_AVERAGE,
    DataError,
    default_crops,
    default_fuel_properties,
    load_countries,
    load_crops,
    load_dataset,
    load_fuels,
)
from agripellet.pipeline import run_pipeline
from conftest import make_dataset
from oracles import reports

README = Path(__file__).parent.parent / "README.md"
TIER_TEXT = {None: "none (zero)", WORLD_AVERAGE: "world-average", CONTINENT: "continent"}

# The bound texts read as predicates: an oracle independent of Bound.lo/hi.
INSIDE = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}
# Every bound ends at 0 and at 1 or infinity: each end, and the floats on either side.
EDGES = (0.0, -0.0, 1.0, -1.0, math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
         math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0))


def test_readme_table_lists_every_field():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.lstrip().startswith("| `") and len(cells) == 5:
            rows[cells[0].strip("`")] = cells
    assert list(rows) == [f.column for f in FIELDS]
    for f in FIELDS:
        _, key, _, bound, tier = rows[f.column]
        assert (key, bound, tier) == (f"`{f.key}`", f.bound.text, TIER_TEXT[f.fallback])


def test_bound_texts_have_an_oracle():
    assert {f.bound.text for f in FIELDS} == set(INSIDE)


def test_every_field_checks_its_bound_at_each_edge(tmp_path):
    """Each one-row table through the loader, and built by hand as a Dataset."""
    path = tmp_path / "countries.csv"
    empty = make_dataset([])
    for j, f in enumerate(FIELDS):
        for value in EDGES:
            cells = ["X", "Y"] + [""] * len(FIELDS)
            cells[2 + j] = repr(value)
            path.write_text(",".join(COUNTRIES_COLUMNS) + "\n" + ",".join(cells) + "\n",
                            encoding="utf-8")
            table = {**dict.fromkeys(COUNTRIES_KEYS, (None,)), "country": ("X",),
                     "continent": ("Y",), f.key: (value,)}
            if INSIDE[f.bound.text](value):
                assert load_countries(path)[f.key] == (value,)
                assert empty._replace(countries=table).countries[f.key] == (value,)
            else:
                with pytest.raises(DataError) as exc:
                    load_countries(path)
                assert exc.value.problems == [
                    f"countries.csv line 2: {f.column}: must be {f.bound.text}, got {value!r}"]
                with pytest.raises(DataError) as exc:
                    empty._replace(countries=table)
                assert exc.value.problems == [f"countries column {f.key!r} row 0 ('X'): "
                                              f"must be {f.bound.text}, got {value!r}"]


@pytest.mark.parametrize("file, columns, fields, defaults, load, key", [
    ("crops.csv", CROPS_COLUMNS, CROP_FIELDS, default_crops, load_crops, "crops"),
    ("fuels.csv", FUELS_COLUMNS, FUEL_FIELDS, default_fuel_properties,
     lambda path: load_fuels(path)[0], "fuel_properties"),
])
def test_every_coefficient_checks_its_bound_at_each_edge(tmp_path, file, columns, fields,
                                                         defaults, load, key):
    """Each crop and fuel coefficient of the first row through crops.csv or
    fuels.csv, and in the crops or fuels table of a hand-built Dataset."""
    path = tmp_path / file
    empty = make_dataset([])
    for f in fields:
        for value in EDGES:
            records = defaults()
            name = next(iter(records))
            records[name] = records[name]._replace(**{f.key: value})
            path.write_text("\n".join([",".join(columns)] + [
                ",".join([n, *map(repr, record)]) for n, record in records.items()]) + "\n",
                encoding="utf-8")
            if INSIDE[f.bound.text](value):
                assert getattr(empty._replace(**{key: records}), key) == records
                assert load(path) == records
            else:
                with pytest.raises(DataError) as exc:
                    empty._replace(**{key: records})
                assert exc.value.problems == [
                    f"{columns[0]} {name!r}: {f.column}: must be {f.bound.text}, got {value!r}"]
                with pytest.raises(DataError) as exc:
                    load(path)
                assert exc.value.problems == [  # the bad row's record is missing too
                    f"{file} line 2: {f.column}: must be {f.bound.text}, got {value!r}",
                    f"{file}: missing {columns[0]}s [{name!r}]"]


def _inside(bound):
    ok = INSIDE[bound.text]
    value = st.one_of(st.sampled_from([v for v in EDGES if ok(v)]),
                      st.floats(0.0, 1e7 if ok(2.0) else 1.0).filter(ok))
    return st.one_of(st.none(), value, value)  # mostly set, so later stages run


def _outside(bound):
    ok = INSIDE[bound.text]
    values = [st.sampled_from([v for v in EDGES if not ok(v)]), st.floats(-1e9, -1e-300)]
    if not ok(2.0):
        values.append(st.floats(1.0, 1e9, exclude_min=True))
    return st.one_of(values)


ROW = st.tuples(*(_inside(f.bound) for f in FIELDS)).map(list)
OUTSIDE = [_outside(f.bound) for f in FIELDS]


@st.composite
def countries_files(draw):
    """Rows of countries.csv cells inside their bounds, up to two of them
    replaced by a value outside, and the (row, field) of those."""
    rows = draw(st.lists(ROW, min_size=1, max_size=3))
    bad = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                  st.integers(0, len(FIELDS) - 1)),
                        max_size=2, unique=True))
    for i, j in bad:
        rows[i][j] = draw(OUTSIDE[j])
    continents = [draw(st.sampled_from(["K", "L"])) for _ in rows]
    return rows, continents, sorted(bad)


@settings(max_examples=60, deadline=None)  # keeps tier-1 near 10 s
@given(countries_files())
def test_generated_rows_load_and_evaluate_or_name_the_cell(case):
    rows, continents, bad = case
    lines = [",".join(COUNTRIES_COLUMNS)] + [
        ",".join([f"C{i}", continents[i]] + ["" if v is None else repr(v) for v in row])
        for i, row in enumerate(rows)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "countries.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if bad:
            try:
                load_dataset(tmp)
            except DataError as exc:
                problems = exc.problems
            else:
                raise AssertionError(f"cells {bad} outside their bounds were accepted")
            assert problems == [
                f"countries.csv line {i + 2}: {FIELDS[j].column}: "
                f"must be {FIELDS[j].bound.text}, got {rows[i][j]!r}"
                for i, j in bad
            ]
            return
        dataset = load_dataset(tmp)
    result = run_pipeline(dataset)
    assert sorted([r.country for r in reports(result)] + [name for name, _ in result.errors]) \
        == [f"C{i}" for i in range(len(rows))]
    g = result.global_report
    assert all(math.isfinite(x) for x in (
        g.cr_final_t, g.pellet_energy_tj, g.s_ec_usd_per_y, g.s_em_kgco2e_per_y,
        g.fossil_consumption_tj, g.replaced_fraction_overall))
    row_of = {name: row for row, name in enumerate(dataset.countries["country"])}
    for r in reports(result):
        if "rank_1" not in r.values:
            continue
        alloc = {f: r.values[f"alloc_{f}_tj"] for f in FUELS}
        assert sum(alloc.values()) <= r.values["pellet_energy_tj"] * (1 + 1e-12)
        for f in FUELS:
            cons = dataset.countries[f"cons_{f}"][row_of[r.country]]
            assert alloc[f] <= (cons or 0.0) * (1 + 1e-12)
