"""Metamorphic invariants of the whole pipeline: changes to the input whose
effect on every output is known exactly, so that no reference code is needed.

Covered on the bundled data: power-of-two scaling of the amount columns in
scenarios A, B and C (carbon tax 50), shuffled rows of ``countries.csv`` and
renamed copies of every country.
"""

import random

import pytest

from agripellet.cli import main
from agripellet.dataio import FIELDS
from agripellet.pipeline import run_pipeline
from conftest import assert_same_files, country_rows, make_table

# the countries.csv columns with no fallback: production, livestock, bioenergy
# and fuel consumption amounts, which every stage uses linearly or as a ratio
AMOUNT_KEYS = tuple(f.key for f in FIELDS if f.fallback is None)


def scale(value, factor):
    return value * factor if type(value) is float else value


def reprs(values) -> list:
    """Each value's repr, which tells apart every two floats that differ in a bit."""
    return list(map(repr, values))


@pytest.mark.parametrize("k", range(-4, 5))
@pytest.mark.parametrize("scenario, carbon_tax, scaled_columns", [
    ("A", 0.0, 19), ("B", 0.0, 18), ("C", 50.0, 19)])
def test_amounts_scaled_by_a_power_of_two(dataset, scenario, carbon_tax, scaled_columns, k):
    """Scaling by 2^k is exact in binary floating point, so each output column
    and each global total is either unchanged or exactly 2^k times its value,
    and the same countries fail with the same messages."""
    assert len(AMOUNT_KEYS) == 13
    factor = 2.0 ** k
    base = dataset._replace(config=dataset.config._replace(scenario=scenario,
                                                           carbon_tax=carbon_tax))
    table = {**base.countries, **{key: tuple(scale(v, factor) for v in base.countries[key])
                                  for key in AMOUNT_KEYS}}
    original = run_pipeline(base)
    result = run_pipeline(base._replace(countries=table))
    assert result.errors == original.errors
    assert list(result.columns) == list(original.columns)
    scaled = []
    for name, values in original.columns.items():
        got = reprs(result.columns[name])
        if got != reprs(values):
            assert got == reprs(scale(v, factor) for v in values), name
            scaled.append(name)
    assert len(scaled) == (scaled_columns if k else 0), scaled
    for name, value in original.global_report._asdict().items():
        got = getattr(result.global_report, name)
        assert repr(got) in (repr(value), repr(scale(value, factor))), name


def test_report_is_byte_identical_for_shuffled_rows(data_dir, tmp_path):
    # each fallback mean is exact, so the order of the countries' rows changes no bit
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for path in data_dir.iterdir():
        (shuffled / path.name).write_bytes(path.read_bytes())
    header, *lines = (data_dir / "countries.csv").read_text(encoding="utf-8").splitlines(True)
    random.Random(0).shuffle(lines)
    (shuffled / "countries.csv").write_text(header + "".join(lines), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["report", "--data", str(data_dir), "--out", str(out1)]) == 0
    assert main(["report", "--data", str(shuffled), "--out", str(out2)]) == 0
    assert len(assert_same_files(out1, out2)) == 6


@pytest.mark.parametrize("k", [2, 3, 7])
def test_renamed_copies_get_the_original_rows(dataset, k):
    """k renamed copies of the bundled countries fall back to the same means,
    so each copy's rows are the original's, every value bit for bit."""
    rows = country_rows(dataset.countries)
    copies = make_table([r._replace(name=f"{r.name} #{i}") for i in range(k) for r in rows])
    original = run_pipeline(dataset).columns
    result = run_pipeline(dataset._replace(countries=copies)).columns
    names = result["country"]
    for i in range(k):
        index = [names.index(f"{name} #{i}") for name in original["country"]]
        for column, values in original.items():
            if column != "country":
                assert reprs(map(result[column].__getitem__, index)) == reprs(values), (i, column)
