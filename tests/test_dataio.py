import csv
import json
import math
import random
import re
import statistics
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agripellet import dataio, reporting
from agripellet.dataio import (
    CONTINENT,
    COUNTRIES_COLUMNS,
    COUNTRIES_KEYS,
    FIELDS,
    FUEL_FIELDS,
    DataError,
    ModelConfig,
    load_config,
    load_countries,
    load_crops,
    load_dataset,
    load_fuels,
    load_series,
    non_finite_rows,
    parse_cell,
    resolve_column,
)
from agripellet.pipeline import run_pipeline
from conftest import (RESOLVABLE_FIELDS, assert_same_files, copy_data, make_dataset,
                      make_profile, make_table)
from oracles import FIELD_BOUNDS, evaluate_country, save_dataset, scan_resolve

COUNTRY_HEADER = (
    "country,continent,prod_maize_t,prod_rice_t,prod_sugarcane_t,prod_wheat_t,"
    "dmr_maize,dmr_rice,dmr_sugarcane,dmr_wheat,cattle,horses,sheep,swine,"
    "bagasse_bioenergy_t,other_bioenergy_t,pli_labor,pli_raw,pli_construction,"
    "pli_electricity,discount_rate,tax_rate,price_coal_usd_t,price_oil_usd_t,"
    "price_gas_usd_t,cons_coal_tj,cons_oil_tj,cons_gas_tj"
)


def write_countries(tmp_path, rows):
    path = tmp_path / "countries.csv"
    path.write_text("\n".join([COUNTRY_HEADER] + rows) + "\n", encoding="utf-8")
    return path


def test_parse_cell_null_markers():
    assert parse_cell("-") is None
    assert parse_cell("") is None
    assert parse_cell(" 1.5 ") == 1.5


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cell_rejected(tmp_path, raw):
    with pytest.raises(DataError, match="not a finite number"):
        parse_cell(raw)
    countries = write_countries(tmp_path, [f"X,Y,{raw},,,,,,,,,,,,0,0,,,,,,,,,,,,"])
    with pytest.raises(DataError, match=re.escape(
            f"countries.csv line 2: prod_maize_t: not a finite number: '{raw}'")):
        load_countries(countries)
    crops = tmp_path / "crops.csv"
    crops.write_text(f"crop,rtp,srr,dmr_world,lhv_mj_per_kg\nmaize,1.0,{raw},0.7,17.3\n",
                     encoding="utf-8")
    with pytest.raises(DataError, match=re.escape("crops.csv line 2: srr: not a finite")):
        load_crops(crops)
    fuels = tmp_path / "fuels.csv"
    fuels.write_text(f"fuel,lhv_mj_per_kg,ef_kgco2e_per_t\ncoal,23.9,{raw}\n",
                     encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            "fuels.csv line 2: ef_kgco2e_per_t: not a finite")):
        load_fuels(fuels)


# float() reads both, as it does 2_001 and non-ASCII digits in a year
@pytest.mark.parametrize("raw", ["1_000", "\u0661\u0660"], ids=["underscore", "arabic-indic"])
def test_python_only_number_spelling_rejected(tmp_path, raw):
    with pytest.raises(DataError, match=re.escape(f"not a number: {raw!r}")):
        parse_cell(raw)
    countries = write_countries(tmp_path, [f"X,Y,{raw},,,,,,,,,,,,0,0,,,,,,,,,,,,"])
    with pytest.raises(DataError, match=re.escape(
            f"countries.csv line 2: prod_maize_t: not a number: {raw!r}")):
        load_countries(countries)


FUELS_CSV = ("fuel,lhv_mj_per_kg,ef_kgco2e_per_t\n"
             "coal,23.9,2592\noil,42.0,2977\nnatural_gas,42.0,2114\n")


# countries.csv cells: tests/test_fields.py checks every column at each bound edge
@pytest.mark.parametrize("name, text, messages", [
    ("crops.csv", "crop,rtp,srr,dmr_world,lhv_mj_per_kg\nmaize,1.0,0.5,1.7,-17.3\n",
     ["crops.csv line 2: dmr_world: must be in (0, 1], got 1.7",
      "crops.csv line 2: lhv_mj_per_kg: must be > 0, got -17.3"]),
    ("fuels.csv", "fuel,lhv_mj_per_kg,ef_kgco2e_per_t\ncoal,-1,2592\n",
     ["fuels.csv line 2: lhv_mj_per_kg: must be > 0, got -1.0"]),
])
def test_out_of_range_cell_names_column(tmp_path, name, text, messages):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    load = {"crops.csv": load_crops, "fuels.csv": load_fuels}[name]
    with pytest.raises(DataError) as exc:
        load(path)
    for message in messages:
        assert message in exc.value.problems


def test_negative_pellet_ef_rejected(tmp_path):
    path = tmp_path / "fuels.csv"
    path.write_text(FUELS_CSV + "pellet,,-500\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            "fuels.csv line 5: ef_kgco2e_per_t: must be >= 0, got -500.0")):
        load_fuels(path)


def test_repeated_pellet_row_rejected(tmp_path):
    path = tmp_path / "fuels.csv"
    path.write_text(FUELS_CSV + "pellet,,151\npellet,,200\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            "fuels.csv line 6: duplicate fuel 'pellet' (first at line 5)")):
        load_fuels(path)
    path.write_text(FUELS_CSV + "pellet,,151\n", encoding="utf-8")
    assert load_fuels(path)[1] == 151.0


def test_discount_rate_bound_shared_by_loader_and_table(tmp_path):
    cells = dict.fromkeys(COUNTRIES_COLUMNS, "")
    cells.update(country="X", continent="Y", discount_rate="1.5")
    path = write_countries(tmp_path, [",".join(cells.values())])
    with pytest.raises(DataError) as loaded:
        load_countries(path)
    with pytest.raises(DataError) as built:
        make_dataset([make_profile(name="X", continent="Y", discount_rate=1.5)])
    text = FIELD_BOUNDS["discount_rate"].text
    assert text == "in [0, 1]"
    assert str(loaded.value) == f"countries.csv line 2: discount_rate: must be {text}, got 1.5"
    assert str(built.value) == (f"countries column 'discount_rate' row 0 ('X'): "
                                f"must be {text}, got 1.5")


def test_load_bundled_dataset(dataset):
    countries = dataset.countries
    assert list(countries) == list(COUNTRIES_KEYS)
    assert set(map(len, countries.values())) == {178}
    afg = countries["country"].index("Afghanistan")
    assert countries["continent"][afg] == "Asia"
    assert countries["prod_wheat"][afg] == pytest.approx(3.90e6)
    assert countries["swine"][afg] is None
    # a missing amount is a real zero: the herd's feed use counts no swine
    # (cattle 5.12M, horses 0.02M, sheep 13.53M: 700,800 + 10,950 + 493,845 t/y)
    assessed = run_pipeline(dataset, through="assess", countries=["Afghanistan"])
    assert assessed.columns["feed_bedding_use_t"] == [pytest.approx(1_205_595.0)]
    assert dataset.crops["rice"].rtp == 1.40
    assert dataset.fuel_properties["coal"].ef == 2592.0
    assert dataset.pellet_ef == 151.0


def test_unit_index_row_parses_to_unit_pli(tmp_path):
    row = "Canada,North America,1,,,,,,,,,,,,0,0,1.0,1.0,1.0,1.0,,,,,,,,"
    path = write_countries(tmp_path, [row])
    table = load_countries(path)
    assert {k: table[k] for k in ("pli_labor", "pli_raw_material",
                                  "pli_construction", "pli_electricity")} == {
        "pli_labor": (1.0,), "pli_raw_material": (1.0,),
        "pli_construction": (1.0,), "pli_electricity": (1.0,)}


def test_empty_countries_file_is_valid(tmp_path):
    path = write_countries(tmp_path, [])
    assert load_countries(path) == dict.fromkeys(COUNTRIES_KEYS, ())
    ds = load_dataset(tmp_path)
    assert ds.countries == dict.fromkeys(COUNTRIES_KEYS, ())


def test_countries_table_with_a_short_or_wrong_column_rejected(dataset):
    """zip() over a short column would cut the table short, and a missing or
    unknown key would leave a field unread: the dataset names each column."""
    countries = dataset.countries
    short = {**countries, "tax_rate": countries["tax_rate"][:-1], "swine": ()}
    with pytest.raises(DataError) as exc:
        dataset._replace(countries=short)
    assert exc.value.problems == ["countries column 'swine' has 0 rows, 'country' has 178",
                                  "countries column 'tax_rate' has 177 rows, 'country' has 178"]
    wrong = {key: col for key, col in countries.items() if key != "price_oil"}
    wrong["price_oil_usd_t"] = countries["price_oil"]  # a header, not a key
    with pytest.raises(DataError) as exc:
        dataset._replace(countries=wrong)
    assert exc.value.problems == ["countries table: missing column 'price_oil'",
                                  "countries table: unknown column 'price_oil_usd_t'"]
    # the row checks keep their messages and row order
    rows = [make_profile(name="A"), make_profile(name="B", continent=""), make_profile(name="A")]
    with pytest.raises(DataError) as exc:
        dataset._replace(countries=make_table(rows))
    assert exc.value.problems == [
        "countries column 'continent' row 1: continent label is required",
        "countries column 'country' row 2: duplicate country 'A' (first at row 0)"]


@pytest.mark.parametrize("key, value, problem", [
    ("prod_maize", -1.0, "must be >= 0, got -1.0"),
    ("cattle", -math.inf, "not a finite number: -inf"),
    ("pli_labor", 0.0, "must be > 0, got 0.0"),
    ("pli_construction", math.inf, "not a finite number: inf"),
    ("dmr_rice", 0.0, "must be in (0, 1], got 0.0"),
    ("dmr_rice", 1.0000000000000002, "must be in (0, 1], got 1.0000000000000002"),
    ("discount_rate", -0.01, "must be in [0, 1], got -0.01"),
    ("discount_rate", 1.5, "must be in [0, 1], got 1.5"),
    ("tax_rate", -5e-324, "must be in [0, 1), got -5e-324"),
    ("tax_rate", 1.0, "must be in [0, 1), got 1.0"),
    ("price_coal", math.nan, "not a finite number: nan"),
    ("cons_oil", "12", "not a finite number: '12'"),
    ("price_oil", True, "not a finite number: True"),
    ("swine", 10**400, f"not a finite number: {10**400!r}"),
])
def test_bad_cell_rejected_when_built(key, value, problem):
    """A table built by hand is held to the loader's bounds: each bound kind,
    below and above, and a NaN, an infinity, a str, a bool or an int past the
    float range in a field column is one DataError naming column and row."""
    rows = [make_profile(name="A"), make_profile(name="B"), make_profile(name="C")]
    rows[1].values[key] = value
    with pytest.raises(DataError) as raised:
        make_dataset(rows)
    assert raised.value.problems == [f"countries column {key!r} row 1 ('B'): {problem}"]


def test_good_cells_pass_the_table_check():
    # the ends a bound admits, ints and None cells
    rows = [make_profile(name="A", dmr={"rice": 1.0}, discount_rate=1.0, tax_rate=0.0,
                         pli=5e-324, livestock={"cattle": 3}, prices={"coal": 0.0}),
            make_profile(name="B", dmr={"rice": 5e-324}, discount_rate=0.0,
                         tax_rate=0.9999999999999999, prices={"coal": 1.7e308})]
    ds = make_dataset(rows)
    assert ds.countries["cattle"] == (3.0, None) and type(ds.countries["cattle"][0]) is float


def test_numbers_given_as_ints_are_held_and_written_as_floats(dataset, tmp_path):
    """A hand-built table may give a number as an int.  Once checked, every
    number of the countries table, of the crops and fuels records and the
    pellet factor is held as a float, so the outputs are those of the float
    twin, byte for byte; an int past float range is still its DataError."""
    def twin(kind):
        countries = {**dataset.countries, **{
            f.key: [kind(value) if value is not None and value.is_integer() else value
                    for value in dataset.countries[f.key]] for f in FIELDS}}
        countries["tax_rate"] = [kind(0)] * len(countries["country"])
        return dataset._replace(
            countries=countries,
            crops={**dataset.crops, "rice": dataset.crops["rice"]._replace(dmr_default=kind(1))},
            fuel_properties={**dataset.fuel_properties,
                             "coal": dataset.fuel_properties["coal"]._replace(ef=kind(2592))},
            pellet_ef=kind(151))

    ints, floats = twin(int), twin(float)
    assert {type(value) for f in FIELDS for value in ints.countries[f.key]} == {float, type(None)}
    assert {type(value) for table in (ints.crops, ints.fuel_properties)
            for record in table.values() for value in record} == {float}
    assert type(ints.pellet_ef) is float
    for ds, out in ((ints, tmp_path / "ints"), (floats, tmp_path / "floats")):
        result = run_pipeline(ds)
        reporting.write_report_files(out, result)
        for fmt in ("csv", "json"):
            reporting.write_table(out / f"assess.{fmt}", reporting.ASSESS_COLUMNS, result)
            reporting.write_table(out / f"msp.{fmt}", reporting.MSP_COLUMNS, result)
    assert len(assert_same_files(tmp_path / "ints", tmp_path / "floats")) == 9

    with pytest.raises(DataError) as raised:
        dataset._replace(countries={**dataset.countries, "swine": (10**400, *[None] * 177)},
                         crops={**dataset.crops,
                                "rice": dataset.crops["rice"]._replace(rtp=10**400)},
                         pellet_ef=10**400)
    assert raised.value.problems == [
        f"countries column 'swine' row 0 ('Afghanistan'): not a finite number: {10**400!r}",
        f"crop 'rice': rtp: not a finite number: {10**400!r}",
        f"pellet_ef: not a finite number: {10**400!r}"]


@pytest.mark.parametrize("name, continent, problems", [
    (7, "K", ["countries column 'country' row 1: country not a str: 7"]),
    (None, "K", ["countries column 'country' row 1: empty country name"]),
    ("", "K", ["countries column 'country' row 1: empty country name"]),
    ("B", 3.5, ["countries column 'continent' row 1: continent not a str: 3.5"]),
    ("B", None, ["countries column 'continent' row 1: continent label is required"]),
])
def test_bad_label_rejected_when_built(name, continent, problems):
    """A name and a continent label are each a non-empty str, as the loader
    reads them: anything else is named before ``run_pipeline`` sorts by it."""
    rows = [make_profile(name="A"), make_profile(name=name, continent=continent)]
    with pytest.raises(DataError) as raised:
        make_dataset(rows)
    assert raised.value.problems == problems


@pytest.mark.parametrize("changes, problems", [
    ({"pellet_ef": -5.0}, ["pellet_ef: must be >= 0, got -5.0"]),
    ({"pellet_ef": "1"}, ["pellet_ef: not a finite number: '1'"]),
    ({"pellet_ef": math.nan}, ["pellet_ef: not a finite number: nan"]),
])
def test_bad_pellet_ef_or_livestock_rate_rejected(dataset, changes, problems):
    """``_replace`` holds the pellet emission factor to the bound of fuels.csv's
    ef column.  The livestock rates are constants of ``residues``, which no
    ``Dataset`` holds (see ``test_replace_rejects_an_unknown_field``)."""
    with pytest.raises(DataError) as raised:
        dataset._replace(**changes)
    assert raised.value.problems == problems


@pytest.mark.parametrize("countries", [False, True])
def test_replace_rejects_an_unknown_field(dataset, countries):
    """A field that a ``Dataset`` or its ``ModelConfig`` does not have, such as
    the gone ``livestock_rates``, is the same ValueError naming it, whether or
    not the dataset's copy has a new countries table."""
    changes = {"countries": {**dataset.countries}} if countries else {}
    for record, more in ((dataset, changes), (dataset.config, {})):
        with pytest.raises(ValueError, match=re.escape(
                "Got unexpected field names: ['livestock_rates']")) as raised:
            record._replace(livestock_rates=(0.375, 1.5, 0.1, 0.063), **more)
        assert not isinstance(raised.value, DataError)


def test_every_table_problem_is_in_one_error():
    rows = [make_profile(name="A"), make_profile(name=None, continent=3.5, tax_rate=1.0)]
    with pytest.raises(DataError) as raised:
        make_dataset(rows, pellet_ef=-1.0)
    assert raised.value.problems == [
        "countries column 'country' row 1: empty country name",
        "countries column 'continent' row 1: continent not a str: 3.5",
        "countries column 'tax_rate' row 1 (None): must be in [0, 1), got 1.0",
        "pellet_ef: must be >= 0, got -1.0"]


def test_countries_table_is_read_only(dataset):
    """The table is a read-only mapping of tuples: a column cannot be assigned
    past the check.  A changed copy built with ``_replace`` is a new table,
    checked again, whose fallback means are its own."""
    with pytest.raises(TypeError):
        dataset.countries["tax_rate"] = dataset.countries["tax_rate"]
    rows = [make_profile(name="A", continent="K", tax_rate=0.2),
            make_profile(name="B", continent="K", tax_rate=None)]
    ds = make_dataset(rows)
    assert resolve_column(ds, "tax_rate", [1]) == ([0.2], ["continent"], {})
    changed = ds._replace(countries={**ds.countries, "tax_rate": [0.4, None]})
    assert type(changed.countries) is type(ds.countries) and changed.countries["tax_rate"] == (
        0.4, None)
    assert resolve_column(changed, "tax_rate", [1]) == ([0.4], ["continent"], {})
    assert resolve_column(ds, "tax_rate", [1]) == ([0.2], ["continent"], {})
    with pytest.raises(DataError, match=re.escape(
            "countries column 'tax_rate' row 0 ('A'): must be in [0, 1), got 1.0")):
        ds._replace(countries={**ds.countries, "tax_rate": (1.0, None)})


def test_replace_rescans_only_a_changed_countries_table(monkeypatch):
    """A copy whose countries table is unchanged is not scanned again; a new
    crops or fuels table is checked, and a copy with new crops resolves the
    world average from them."""
    ds = make_dataset([make_profile(name="A", continent="K", tax_rate=0.2),
                       make_profile(name="B", continent="K", tax_rate=None)])
    old = resolve_column(ds, "dmr_rice", [1])
    scans = []
    check = dataio._check_column
    monkeypatch.setattr(dataio, "_check_column",
                        lambda *args: scans.append(args) or check(*args))
    changed = ds._replace(config=ds.config._replace(scenario="B"), countries=ds.countries)
    assert changed.config.scenario == "B" and changed.countries is ds.countries
    rice = ds.crops["rice"]._replace(dmr_default=0.5)
    recropped = ds._replace(crops={**ds.crops, "rice": rice})
    assert resolve_column(recropped, "dmr_rice", [1]) == ([0.5], ["world-average"], {}) != old
    assert resolve_column(ds, "dmr_rice", [1]) == old
    assert scans == []
    with pytest.raises(DataError, match=r"crops table: missing crops \['rice'\]"):
        ds._replace(crops={name: crop for name, crop in ds.crops.items() if name != "rice"})
    with pytest.raises(DataError, match="fuels table: unknown fuel 'peat'"):
        ds._replace(fuel_properties={**ds.fuel_properties, "peat": ds.fuel_properties["coal"]})
    ds._replace(countries={**ds.countries})
    assert scans


def test_crops_and_fuels_tables_are_read_only(data_dir):
    """Neither table can change past the check, in a loaded, a hand-built or
    a replaced copy, nor through the dict it was built from; a copy with new
    crops resolves the world average from them."""
    dataset = load_dataset(data_dir)  # not the shared one, which a failure would change
    crops, fuels = dataio.default_crops(), dataio.default_fuel_properties()
    base = make_dataset([make_profile(name="A", continent="K")])
    built = dataio.Dataset(**{**base._asdict(), "crops": crops, "fuel_properties": fuels})
    replaced = base._replace(crops=crops, fuel_properties=fuels)
    maize = dataset.crops["maize"]._replace(dmr_default=0.5)
    for ds in (dataset, built, replaced,
               dataset._replace(config=dataset.config._replace(scenario="B"))):
        assert resolve_column(ds, "dmr_maize", [0]) == ([0.7374], ["world-average"], {})
        with pytest.raises(TypeError):
            ds.crops["maize"] = maize
        with pytest.raises(TypeError):
            del ds.fuel_properties["coal"]
    crops["maize"] = maize
    del fuels["coal"]
    for ds in (built, replaced):
        assert ds.crops["maize"].dmr_default == 0.7374 and "coal" in ds.fuel_properties
    recropped = dataset._replace(crops={**dataset.crops, "maize": maize})
    assert resolve_column(recropped, "dmr_maize", [0]) == ([0.5], ["world-average"], {})
    assert resolve_column(dataset, "dmr_maize", [0]) == ([0.7374], ["world-average"], {})
    with pytest.raises(TypeError):
        recropped.crops["maize"] = dataset.crops["maize"]


def test_load_dataset_checks_each_countries_bound_once(data_dir, monkeypatch):
    """A field is checked once, when it gets a new value.  The loader holds
    each cell to its bound as it parses it, so it checks no field of its
    Dataset again; a copy checks only the fields given a new value: the
    config alone, or the crops table alone."""
    checked, cells = [], []
    spy, cell = dataio._checked, dataio._check_cell
    monkeypatch.setattr(dataio, "_checked",
                        lambda record, new: checked.append(sorted(new)) or spy(record, new))
    monkeypatch.setattr(dataio, "_check_cell",
                        lambda label, *args: cells.append(label) or cell(label, *args))
    loaded = load_dataset(data_dir)
    # the config checks its own keys as it is built: the loader's only cell checks
    assert type(loaded) is dataio.Dataset and checked == [] and cells
    assert {label.partition("[")[0] for label in cells} <= set(dataio.ModelConfig._fields)
    assert type(loaded.countries) is type(loaded.crops) is type(loaded.fuel_properties)
    assert loaded == dataio.Dataset(*loaded)
    config = loaded.config._replace(scenario="B")
    checked.clear()
    cells.clear()
    loaded._replace(config=config)
    assert (checked, cells) == ([["config"]], [])
    checked.clear()
    loaded._replace(crops={**loaded.crops}, countries=loaded.countries)
    assert checked == [["crops"]]
    assert len(cells) == 16 and all(label.startswith("crop ") for label in cells)


@pytest.mark.parametrize("config", [None, {"scenario": "B"}])
def test_config_must_be_a_model_config(dataset, config):
    """A config that is no ``ModelConfig`` is one DataError naming it, in a
    hand-built Dataset and in a copy, not an AttributeError in a later run."""
    for build in (lambda: dataio.Dataset(**{**dataset._asdict(), "config": config}),
                  lambda: dataset._replace(config=config)):
        with pytest.raises(DataError) as raised:
            build()
        assert raised.value.problems == [f"config: must be a ModelConfig, got {config!r}"]


@pytest.mark.parametrize("build, problems", [
    (lambda ds: dataio.Dataset._make([None] * 5),
     ["countries: must be a mapping to Sequence values, got NoneType",
      "crops: must be a mapping to CropCoefficients values, got NoneType",
      "fuel_properties: must be a mapping to FuelProperties values, got NoneType",
      "pellet_ef: not a finite number: None", "config: must be a ModelConfig, got None"]),
    (lambda ds: dataio.ModelConfig._make([None] * 7),
     [*(f"{key}: not a finite number: None" for key in ("horizon_years", "salvage_rate",
                                                        "pellet_efficiency", "carbon_tax")),
      "fossil_multipliers: must be a non-empty list, got None",
      "pellet_prices: must be a non-empty list, got None",
      "scenario: must be A, B, or C, got None"]),
    (lambda ds: ds._replace(countries=None),
     ["countries: must be a mapping to Sequence values, got NoneType"]),
    (lambda ds: ds._replace(crops=None),
     ["crops: must be a mapping to CropCoefficients values, got NoneType"]),
    (lambda ds: ds._replace(fuel_properties=[1]),
     ["fuel_properties: must be a mapping to FuelProperties values, got list"]),
    (lambda ds: ds._replace(crops={"maize": (1, 2, 3, 4)}),
     ["crops: must be a mapping to CropCoefficients values, got tuple at 'maize'"]),
    (lambda ds: ds._replace(countries={**ds.countries, "tax_rate": 5}),
     ["countries: must be a mapping to Sequence values, got int at 'tax_rate'"]),
    # unknown column keys of unlike types, named in the order of their str
    (lambda ds: ds._replace(countries={**ds.countries, 5: (), "zz": ()}),
     ["countries table: unknown column 5", "countries table: unknown column 'zz'"]),
], ids=["Dataset._make", "ModelConfig._make", "countries=None", "crops=None",
        "fuel_properties=list", "crops=tuple", "countries=int column",
        "countries=int and str keys"])
def test_a_record_of_wrong_types_is_a_data_error(dataset, build, problems):
    """``_make`` checks a record as its constructor does, and a field of the
    wrong type is one problem that names it: a DataError, not a TypeError or
    AttributeError from the checks or from a later run."""
    with pytest.raises(DataError) as raised:
        build(dataset)
    assert raised.value.problems == problems


def edited_copy(data_dir, tmp_path, edits):
    """A copy of the bundled data whose countries.csv has each ``(row, column)``
    cell set to its text; row 0 is the first country, on line 2."""
    copy_data(tmp_path)
    with (data_dir / "countries.csv").open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    for (row, column), text in edits.items():
        rows[row][header.index(column)] = text
    with (tmp_path / "countries.csv").open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([header, *rows])
    return tmp_path


def gap_columns(path, fields) -> tuple:
    """``(rows, columns)``: the number of rows of a CSV, and those of its
    ``fields`` columns that hold an empty cell."""
    with path.open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    return len(rows), {f.column for f in fields
                       if any(row[header.index(f.column)].strip() in ("", "-") for row in rows)}


def test_clean_columns_are_parsed_whole(data_dir, tmp_path, monkeypatch):
    """A column is scanned cell by cell only when its whole-column check trips,
    which a gap (an empty or ``-`` cell) does not, and then each bad cell is
    named as it always has been."""
    scanned = []
    monkeypatch.setattr(dataio, "parse_cell", lambda raw: scanned.append(raw) or parse_cell(raw))
    load_dataset(data_dir)
    # every column parses whole, the 17 gap columns of countries.csv and
    # fuels.csv's (the pellet row's lhv) among them
    rows, gaps = gap_columns(data_dir / "countries.csv", FIELDS)
    assert (rows, len(gaps)) == (178, 17)
    assert gap_columns(data_dir / "fuels.csv", FUEL_FIELDS) == (4, {"lhv_mj_per_kg"})
    assert len(scanned) == 0

    # gaps and numbers padded with whitespace parse whole too, as parse_cell reads them
    padded = edited_copy(data_dir, tmp_path / "padded", {
        (0, "tax_rate"): " - ", (1, "tax_rate"): "\t", (2, "tax_rate"): " 0.25\t"})
    assert load_dataset(padded).countries["tax_rate"][:3] == (None, None, 0.25)
    assert len(scanned) == 0

    scanned.clear()
    bad = edited_copy(data_dir, tmp_path / "bad", {
        (2, "prod_maize_t"): "1_0", (4, "cattle"): "\u0661", (6, "pli_raw"): "nan",
        (8, "dmr_maize"): "1.5", (10, "continent"): " ", (11, "country"): "Afghanistan"})
    with pytest.raises(DataError) as exc:
        load_dataset(bad)
    assert exc.value.problems == [
        "countries.csv line 4: prod_maize_t: not a number: '1_0'",
        "countries.csv line 6: cattle: not a number: '\u0661'",
        "countries.csv line 8: pli_raw: not a finite number: 'nan'",
        "countries.csv line 10: dmr_maize: must be in (0, 1], got 1.5",
        "countries.csv line 12: continent label is required",
        "countries.csv line 13: duplicate country 'Afghanistan' (first at line 2)",
    ]
    # the four tripped columns alone, three of which hold gaps, each in every
    # row but the duplicate, which is skipped
    tripped = {"prod_maize_t", "cattle", "pli_raw", "dmr_maize"}
    assert len(tripped & gaps) == 3
    assert len(scanned) == 177 * 4

    # finite cells whose sum overflows trip the finiteness check: the column is
    # scanned, finds nothing wrong, and gives the values the cells hold
    scanned.clear()
    overflow = edited_copy(data_dir, tmp_path / "overflow",
                           {(0, "cons_coal_tj"): "1.7e308", (1, "cons_coal_tj"): "1.7e308"})
    countries = load_dataset(overflow).countries
    assert len(scanned) == 178 * 1
    assert countries["cons_coal"][:2] == (1.7e308, 1.7e308)
    assert ({key: col[2:] for key, col in countries.items()}
            == {key: col[2:] for key, col in load_dataset(data_dir).countries.items()})


def test_rows_with_several_problems_are_listed_in_line_order(tmp_path):
    """Each row's problems in column order, the rows in line order, a loader's
    own row problems among them, and the missing names last."""
    crops = tmp_path / "crops.csv"
    crops.write_text("crop,rtp,srr,dmr_world,lhv_mj_per_kg\n"
                     "maize,1.0,0.5,0.7374,17.3\n"
                     "sugarcane,1.0,0.875,,17.3\n"
                     "barley,1,1,1,1\n"
                     "rice,-1,1_0,0.8774,14.6\n"
                     "maize,1.0,0.5,0.7374,17.3\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_crops(crops)
    assert exc.value.problems == [
        "crops.csv line 3: all four coefficients are required",
        "crops.csv line 4: unknown crop 'barley'",
        "crops.csv line 5: rtp: must be > 0, got -1.0",
        "crops.csv line 5: srr: not a number: '1_0'",
        "crops.csv line 6: duplicate crop 'maize' (first at line 2)",
        "crops.csv: missing crops ['rice', 'sugarcane', 'wheat']",
    ]

    fuels = tmp_path / "fuels.csv"
    fuels.write_text("fuel,lhv_mj_per_kg,ef_kgco2e_per_t\n"
                     "pellet,,\n"
                     "coal,23.9,x\n"
                     "oil,42.0,\n"
                     "gas,1,1\n"
                     "coal,1,1\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_fuels(fuels)
    assert exc.value.problems == [
        "fuels.csv line 2: pellet row requires ef_kgco2e_per_t",
        "fuels.csv line 3: ef_kgco2e_per_t: not a number: 'x'",
        "fuels.csv line 4: lhv and ef are required",
        "fuels.csv line 5: unknown fuel 'gas'",
        "fuels.csv line 6: duplicate fuel 'coal' (first at line 3)",
        "fuels.csv: missing fuels ['coal', 'natural_gas', 'oil']",
    ]

    series = tmp_path / "series.csv"
    series.write_text("country,year,value\nA,2000,1\n ,20x1,-5\nB,2001,\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_series(series)
    assert exc.value.problems == [
        "series.csv line 3: empty series name",
        "series.csv line 3: year: not an integer: '20x1'",
        "series.csv line 3: value: must be >= 0, got -5.0",
        "series.csv line 4: value: missing value",
    ]


def test_every_bad_file_is_reported_in_one_error(data_dir, tmp_path):
    """One run names the problems of every input file: countries.csv, crops.csv,
    fuels.csv, then the config."""
    for name in ("countries.csv", "crops.csv", "fuels.csv", "config.json"):
        (tmp_path / name).write_bytes((data_dir / name).read_bytes())
    crops = (tmp_path / "crops.csv").read_text(encoding="utf-8")
    (tmp_path / "crops.csv").write_text(crops + "maize,1.0,0.5,0.7374,17.3\n", encoding="utf-8")
    fuels = (tmp_path / "fuels.csv").read_text(encoding="utf-8")
    (tmp_path / "fuels.csv").write_text(fuels.replace("oil,42.0,2977", "oil,abc,2977"),
                                        encoding="utf-8")
    crops_and_fuels = ["crops.csv line 6: duplicate crop 'maize' (first at line 2)",
                       "fuels.csv line 3: lhv_mj_per_kg: not a number: 'abc'",
                       "fuels.csv: missing fuels ['oil']"]
    with pytest.raises(DataError) as exc:
        load_dataset(tmp_path)
    assert exc.value.problems == crops_and_fuels

    rows = (tmp_path / "countries.csv").read_text(encoding="utf-8").splitlines()
    cells = rows[1].split(",")
    cells[COUNTRIES_COLUMNS.index("tax_rate")] = "1.5"
    (tmp_path / "countries.csv").write_text("\n".join([rows[0], ",".join(cells), *rows[2:]])
                                            + "\n", encoding="utf-8")
    (tmp_path / "config.json").write_text('{"scenario": "Z"}', encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_dataset(tmp_path)
    assert exc.value.problems == [
        "countries.csv line 2: tax_rate: must be in [0, 1), got 1.5",
        *crops_and_fuels,
        "scenario: must be A, B, or C, got 'Z'",
    ]


def test_srr_out_of_range_rejected(tmp_path):
    path = tmp_path / "crops.csv"
    path.write_text(
        "crop,rtp,srr,dmr_world,lhv_mj_per_kg\n"
        "maize,1.0,0.5,0.7374,17.3\n"
        "rice,1.4,1.2,0.8774,14.6\n"
        "sugarcane,1.0,0.875,0.4388,17.3\n"
        "wheat,1.3,0.4,0.8627,17.2\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="srr"):
        load_crops(path)


def test_duplicate_country_is_an_error(tmp_path):
    row = "X,Y,1,,,,,,,,,,,,0,0,,,,,,,,,,,,"
    path = write_countries(tmp_path, [row, row])
    with pytest.raises(DataError, match="duplicate country"):
        load_countries(path)


def test_negative_quantity_rejected(tmp_path):
    row = "X,Y,-5,,,,,,,,,,,,0,0,,,,,,,,,,,,"
    path = write_countries(tmp_path, [row])
    with pytest.raises(DataError, match=re.escape(
            "countries.csv line 2: prod_maize_t: must be >= 0, got -5.0")):
        load_countries(path)


def test_nonpositive_index_rejected(tmp_path):
    row = "X,Y,1,,,,,,,,,,,,0,0,0.0,1,1,1,,,,,,,,"
    path = write_countries(tmp_path, [row])
    with pytest.raises(DataError, match=re.escape(
            "countries.csv line 2: pli_labor: must be > 0, got 0.0")):
        load_countries(path)


def test_tax_rate_one_rejected(tmp_path):
    # the solver needs a tax rate below 1, so the loader does too
    cells = dict.fromkeys(COUNTRIES_COLUMNS, "")
    cells.update(country="X", continent="Y", tax_rate="1")
    path = write_countries(tmp_path, [",".join(cells.values())])
    with pytest.raises(DataError, match=re.escape(
            "countries.csv line 2: tax_rate: must be in [0, 1), got 1.0")):
        load_countries(path)


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "countries.csv"
    path.write_text("country,continent\nX,Y\n", encoding="utf-8")
    with pytest.raises(DataError, match="header mismatch"):
        load_countries(path)


def test_short_row_rejected(tmp_path):
    path = tmp_path / "countries.csv"
    path.write_text(COUNTRY_HEADER + "\nX,Y,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="columns"):
        load_countries(path)


def test_every_row_of_the_wrong_width_is_named(tmp_path):
    path = tmp_path / "countries.csv"
    path.write_text(COUNTRY_HEADER + "\nX,Y,1\n\nZ,Y," + "1," * 26 + "1\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_countries(path)
    assert exc.value.problems == ["countries.csv line 2: expected 28 columns, got 3",
                                  "countries.csv line 4: expected 28 columns, got 29"]


def test_rows_are_named_by_the_line_they_start_on(tmp_path):
    path = tmp_path / "countries.csv"
    path.write_text(COUNTRY_HEADER + '\n"Two\nLines",Y' + "," * 26
                    + "\nZ,Y,-5" + "," * 25 + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_countries(path)
    assert exc.value.problems == ["countries.csv line 4: prod_maize_t: must be >= 0, got -5.0"]


def test_byte_order_mark_is_skipped(data_dir, tmp_path):
    text = (data_dir / "countries.csv").read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_countries(marked) == load_countries(plain)
    series = "country,year,value\nA,2000,1\nA,2001,2\n"
    plain.write_text(series, encoding="utf-8")
    marked.write_text(series, encoding="utf-8-sig")
    assert load_series(marked) == load_series(plain) == {"A": [(2000, 1.0), (2001, 2.0)]}
    config = (data_dir / "config.json").read_text(encoding="utf-8")
    plain.write_text(config, encoding="utf-8")
    marked.write_text(config, encoding="utf-8-sig")
    assert load_config(marked) == load_config(plain)


CSV_READERS = {
    "countries.csv": (load_countries, COUNTRY_HEADER + "\nA,K" + "," * 26 + "\n"),
    "crops.csv": (load_crops, "crop,rtp,srr,dmr_world,lhv_mj_per_kg\nmaize,1,0.5,0.7,17\n"),
    "fuels.csv": (load_fuels, "fuel,lhv_mj_per_kg,ef_kgco2e_per_t\ncoal,23.9,2592\n"),
    "series.csv": (load_series, "country,year,value\nA,2000,1\nA,2001,2\n"),
}


@pytest.mark.parametrize("name", sorted(CSV_READERS))
@pytest.mark.parametrize("kind, message", [
    ("latin-1", "line 2: not UTF-8 text (invalid continuation byte)"),
    ("utf-16", "line 1: not UTF-8 text (invalid start byte)"),
    ("huge-cell", "line 2: field larger than field limit (131072)"),
], ids=["latin-1", "utf-16", "huge-cell"])
def test_undecodable_or_unsplittable_csv_names_the_file(tmp_path, name, kind, message):
    """Every input CSV reader turns bad bytes and cells ``csv`` refuses into a DataError."""
    reader, text = CSV_READERS[name]
    header, first, rest = text.split("\n", 2)
    if kind == "latin-1":
        data = (header + "\n\u00e1" + first + "\n" + rest).encode("latin-1")  # an 'á'
    elif kind == "utf-16":
        data = text.encode("utf-16")
    else:
        data = (header + "\n" + "x" * 131_073 + first + "\n" + rest).encode("utf-8")
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(DataError) as exc:
        reader(path)
    assert exc.value.problems == [f"{name} {message}"]


@pytest.mark.parametrize("before", ["", "header", "huge-cell", "short-row", "byte-order-mark"])
def test_a_bad_byte_far_into_the_file_is_named_by_its_line(tmp_path, before):
    """The file is decoded whole before it is split, so a bad byte thousands
    of lines on is named by its own line, and first, whatever problem comes
    before it."""
    header, row = CSV_READERS["countries.csv"][1].splitlines()
    lines = [header, *[row.replace("A", f"A{i}", 1) for i in range(5000)]]
    if before == "header":
        lines[0] = "country,continent"
    elif before == "huge-cell":
        lines[1] = "x" * 131_073 + row
    elif before == "short-row":
        lines[1] = "X,Y,1"
    data = "\n".join(lines).encode("utf-8")
    data = data.replace(b"A4321,", b"A4321\xff,")  # line 4323
    path = tmp_path / "countries.csv"
    path.write_bytes(b"\xef\xbb\xbf" + data if before == "byte-order-mark" else data)
    with pytest.raises(DataError) as exc:
        load_countries(path)
    assert exc.value.problems == ["countries.csv line 4323: not UTF-8 text (invalid start byte)"]


def test_only_newline_and_return_end_a_row(tmp_path):
    """A cell keeps the characters other than ``\\n`` and ``\\r`` that
    ``str.splitlines`` would break a line at."""
    names = ["A\vB", "A\fB", "A\x1cB", "A\x1dB", "A\x1eB", "A\x85B", "A\u2028B", "A\u2029B"]
    path = tmp_path / "series.csv"
    path.write_text("country,year,value\r\n"
                    + "".join(f"{name},2000,1\n{name},2001,2\r" for name in names),
                    encoding="utf-8", newline="")
    assert load_series(path) == {name: [(2000, 1.0), (2001, 2.0)] for name in names}


@pytest.mark.parametrize("kind", ["empty-directory", "a-file", "symlink-loop"])
def test_missing_countries_file(tmp_path, kind):
    # a data path that names a file, or a link to itself, holds no countries.csv either
    data = tmp_path / "data.csv"
    if kind == "empty-directory":
        data.mkdir()
    elif kind == "a-file":
        data.write_text("x\n", encoding="utf-8")
    else:
        data.symlink_to(data)
    with pytest.raises(DataError) as exc:
        load_dataset(data)
    assert exc.value.problems == [f"missing file: {data / 'countries.csv'}"]


@pytest.mark.parametrize("name", ["crops.csv", "fuels.csv", "config.json"])
def test_a_link_to_a_missing_optional_file_is_a_missing_file(tmp_path, name):
    """A dangling link is present, not absent: it is read and named, after
    countries.csv's problems."""
    data = copy_data(tmp_path / "data", [("countries.csv", "\nAlbania,Europe,410000.0,",
                                          "\nAlbania,Europe,-5,")])
    link = data / name
    link.unlink()
    link.symlink_to(tmp_path / "gone" / name)
    with pytest.raises(DataError) as exc:
        load_dataset(data)
    assert exc.value.problems == ["countries.csv line 3: prod_maize_t: must be >= 0, got -5.0",
                                  f"missing file: {link}"]


def test_config_validation(tmp_path):
    with pytest.raises(DataError, match="scenario"):
        ModelConfig(scenario="D")
    with pytest.raises(DataError, match="pellet_efficiency"):
        ModelConfig(pellet_efficiency=1.5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"carbon_tax": 10.0, "bogus": 1}), encoding="utf-8")
    with pytest.raises(DataError, match="unknown config keys"):
        load_config(path)
    # the capital cascade gives tfc_usd, so its old ratio key is unknown
    path.write_text(json.dumps({"tfc_capex_ratio": 1 / 1.2}), encoding="utf-8")
    with pytest.raises(DataError) as raised:
        load_config(path)
    assert str(raised.value) == "config.json: unknown config keys ['tfc_capex_ratio']"
    path.write_text(json.dumps({"carbon_tax": 10.0}), encoding="utf-8")
    assert load_config(path).carbon_tax == 10.0
    assert load_config(path).horizon_years == 20


def test_the_plant_output_is_no_config_field():
    """The plant is the reference plant (``costs.OUTPUT_REF``): a config
    names no output of its own, in a copy or in config.json."""
    assert len(ModelConfig._fields) == 7
    with pytest.raises(ValueError, match="Got unexpected field names: \\['plant_capacity'\\]"):
        ModelConfig()._replace(plant_capacity=1.0)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(raw=st.dictionaries(st.sampled_from(ModelConfig._fields), JSON_VALUES, max_size=4))
def test_any_object_of_config_keys_loads_or_names_its_problems(raw):
    """Every JSON object whose keys are config fields gives a ``ModelConfig``
    or a DataError, whatever the values' types: ``ModelConfig(**raw)`` takes
    each field by name, and ``_check`` words every bad value, so
    ``load_config`` has no ``TypeError`` to catch."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        try:
            cfg = load_config(path)
        except DataError as exc:
            assert exc.problems
        else:
            assert cfg == ModelConfig(**raw)


def test_an_int_sum_past_float_range_does_not_fit():
    """``fits`` is False on ints whose sum lies past float range, whether one
    int does or each fits and their sum does not, None cells beside them or not;
    a config given such an int is a DataError naming its key."""
    huge, near_max = 10**400, int(sys.float_info.max)
    for values in ([huge], [near_max, near_max], [near_max, None, near_max], [1.0, huge]):
        assert not dataio.fits(values)
    assert dataio.fits([near_max, 1.0]) and dataio.fits([near_max, None])
    with pytest.raises(DataError) as exc:
        ModelConfig(carbon_tax=huge)
    assert exc.value.problems == [f"carbon_tax: not a finite number: {huge!r}"]


def test_config_numbers_are_floats_but_the_horizon():
    """A config file's ints are held as the floats a flag gives (the horizon
    stays an int), so an output cell reads 50.0 whichever way 50 came in."""
    cfg = ModelConfig(horizon_years=20, salvage_rate=0, pellet_efficiency=1, carbon_tax=50,
                      fossil_multipliers=[1, 2.5], pellet_prices=[-10, 20])
    assert cfg == (20, 0.0, 1.0, "A", 50.0, (1.0, 2.5), (-10.0, 20.0))
    assert [type(value) for value in cfg] == [int, float, float, str, float, tuple, tuple]
    assert {type(value) for axis in cfg[-2:] for value in axis} == {float}
    assert type(ModelConfig(carbon_tax=50).carbon_tax) is float


@pytest.mark.parametrize("key, value", [
    ("horizon_years", 20.5),
    ("horizon_years", True),
    ("salvage_rate", "0.1"),
    ("carbon_tax", None),
    ("carbon_tax", float("nan")),
    ("salvage_rate", float("inf")),
    ("pellet_prices", [10.0, "x"]),
    ("fossil_multipliers", 1.0),
    # the sweep's closed form needs multipliers > 0 and non-empty axes
    ("fossil_multipliers", [-1.0, 1.0]),
    ("fossil_multipliers", [0.0]),
    ("fossil_multipliers", []),
    ("pellet_prices", []),
    # a repeated axis value would write the same grid row twice
    ("fossil_multipliers", [1.0, 1.0]),
    ("pellet_prices", [10.0, 20.0, 10.0]),
    # the annuity factor needs float(horizon_years)
    pytest.param("horizon_years", 10**400, id="horizon_years-10**400"),
    # an integer beyond float range is not a finite number
    pytest.param("carbon_tax", 10**400, id="carbon_tax-10**400"),
    pytest.param("fossil_multipliers", [1.0, 10**400], id="fossil_multipliers-10**400"),
])
def test_config_value_types_rejected(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(DataError, match=key):
        load_config(path)


# A value outside each config bound and the problem it gets (an axis value is
# named by its place); any finite pellet price is inside its bound, so an
# infinite one stands for the value outside it.
OUT_OF_BOUND = {
    "horizon_years": (0, f"must be in [1, {2**53}], got 0"),
    "salvage_rate": (1.0, "must be in [0, 1), got 1.0"),
    "pellet_efficiency": (0.0, "must be in (0, 1], got 0.0"),
    "carbon_tax": (-1.0, "must be >= 0, got -1.0"),
    "fossil_multipliers": (0.0, "must be > 0, got 0.0"),
    "pellet_prices": (math.inf, "not a finite number: inf"),
}


@pytest.mark.parametrize("key, value, problem", [
    pytest.param(key, value, problem, id=f"{key}-{value!r}")
    for key in dataio._CONFIG_BOUNDS
    for value, problem in (OUT_OF_BOUND[key], (math.nan, "not a finite number: nan"),
                           (True, "not a finite number: True"))])
@pytest.mark.parametrize("through", ["config.json", "ModelConfig"])
def test_each_config_bound_rejects_with_the_cell_message(tmp_path, key, value, problem, through):
    """Each entry of the config's (key, Bound) table holds its number, or each
    value of its axis, to its bound through the one cell check: a value
    outside the bound, NaN and a bool are each one problem in its words."""
    axis = key in ("fossil_multipliers", "pellet_prices")
    given = [1.0, value] if axis else value
    with pytest.raises(DataError) as raised:
        if through == "ModelConfig":
            ModelConfig(**{key: given})
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({key: given}), encoding="utf-8")
            load_config(path)
    assert raised.value.problems == [f"{key}[1]: {problem}" if axis else f"{key}: {problem}"]


def test_default_pellet_price_axis():
    cfg = ModelConfig()
    assert len(cfg.pellet_prices) == 11
    assert cfg.pellet_prices[0] == 10.0
    assert cfg.pellet_prices[-1] == 200.0
    steps = {round(b - a, 9) for a, b in zip(cfg.pellet_prices, cfg.pellet_prices[1:])}
    assert steps == {19.0}


# ---------------------------------------------------------------------------
# resolution

def test_resolve_own_value_wins():
    p = make_profile(name="A", discount_rate=0.07)
    ds = make_dataset([p])
    assert resolve_column(ds, "discount_rate", [0]) == ([0.07], ["country"], {})


def test_resolve_dmr_world_average():
    p = make_profile(name="A", production={"maize": 1.0})
    ds = make_dataset([p])
    assert resolve_column(ds, "dmr_maize", [0]) == ([0.7374], ["world-average"], {})


def test_resolve_dmr_override_used():
    p = make_profile(name="A", dmr={"maize": 0.8513})
    ds = make_dataset([p])
    assert resolve_column(ds, "dmr_maize", [0]) == ([0.8513], ["country"], {})


def test_resolve_continent_mean():
    a = make_profile(name="A", continent="K", discount_rate=0.08)
    b = make_profile(name="B", continent="K", discount_rate=0.12)
    c = make_profile(name="C", continent="K", discount_rate=None)
    ds = make_dataset([a, b, c])
    (value,), tiers, failures = resolve_column(ds, "discount_rate", [2])
    assert value == pytest.approx(0.10)
    assert (tiers, failures) == (["continent"], {})


def test_resolve_world_mean_when_continent_empty():
    a = make_profile(name="A", continent="K", tax_rate=0.30)
    b = make_profile(name="B", continent="L", tax_rate=None)
    ds = make_dataset([a, b])
    assert resolve_column(ds, "tax_rate", [1]) == ([0.30], ["world"], {})


def test_resolve_unresolvable_names_field():
    a = make_profile(name="A", prices={"coal": None})
    ds = make_dataset([a])
    assert resolve_column(ds, "price_coal", [0]) == ([None], [None], {
        0: "no country in the dataset has data for 'price_coal' (needed by 'A')"})


def test_resolve_unknown_field_rejected():
    a = make_profile(name="A")
    ds = make_dataset([a])
    with pytest.raises(KeyError):
        resolve_column(ds, "bogus_field", [0])


@pytest.mark.parametrize("rows, row", [([-1], -1), ([0, 178], 178), ([5, -178, 200], -178)])
def test_resolve_rejects_a_row_outside_the_table(dataset, rows, row):
    """A row must lie in ``0 <= row < len(table)``: a negative one would
    answer for a country counted from the end, and one past the end has no
    country.  Either is an IndexError naming the row and the table size."""
    with pytest.raises(IndexError, match=re.escape(
            f"no countries row {row} in a table of 178 rows")):
        resolve_column(dataset, "price_coal", rows)
    assert resolve_column(dataset, "price_coal", [0, 177])[1] == ["continent", "continent"]
    assert resolve_column(dataset, "price_coal", []) == ([], [], {})


def test_resolve_reads_its_rows_once(dataset):
    """``rows`` may be any iterable of row numbers: a generator, a range, a
    tuple and a list of the same rows give the same answer (a generator was
    used up by the range check before)."""
    rows = range(0, 178, 7)
    for name in RESOLVABLE_FIELDS:
        expected = resolve_column(dataset, name, list(rows))
        assert resolve_column(dataset, name, (row for row in rows)) == expected
        assert resolve_column(dataset, name, rows) == expected
        assert resolve_column(dataset, name, tuple(rows)) == expected


class CountedList(list):
    """A list that counts the values read from it by iteration."""

    read = 0

    def __iter__(self):
        for value in super().__iter__():
            self.read += 1
            yield value


@pytest.mark.parametrize("column", [
    ["coal", "oil", None, "natural_gas"] * 250,
    [None, "A", "B"] * 300,
    [True, None, False] * 300,
])
def test_a_column_of_labels_is_not_scanned(column):
    """A column of strings or bools beside None holds no float, so
    ``non_finite_rows`` names no row of it without a pass over its rows."""
    counted = CountedList(column)
    assert non_finite_rows(counted) == []
    assert counted.read < len(column)


def test_the_label_columns_of_a_plan_run_are_not_scanned(dataset):
    columns = run_pipeline(dataset).columns
    for name in ("scenario", "rank_1", "rank_2", "rank_3"):
        counted = CountedList(columns[name])
        assert non_finite_rows(counted) == []
        assert counted.read < len(columns[name]), name


@pytest.mark.parametrize("column, rows", [
    ([None, 0.0, -0.0, 1.5, math.nan, None, -math.inf], [4, 6]),
    ([0.0, -0.0, None, math.inf], [3]),
    ([math.nan], [0]),
    ([None, 2.0, 3.0], []),
    ([0.0, None, -0.0], []),
    ([None, None], []),
    ([], []),
])
def test_a_float_column_names_each_non_finite_row(column, rows):
    assert non_finite_rows(column) == rows


def test_a_fields_means_are_computed_the_first_time_it_falls_back(dataset, monkeypatch):
    """An assess run reads only the dry matters, whose fallback is the crop
    default, and computes no continent mean; msp computes those of its 6
    fields and plan also those of the 3 prices, each field's once per run,
    with the bits of the means of its whole column."""
    pli = [f.key for f in FIELDS if f.key.startswith("pli_")]  # no bundled cell is empty
    dataset = dataset._replace(countries={**dataset.countries, **{
        key: (None, *dataset.countries[key][1:]) for key in pli}})
    calls = []
    means = dataio._means
    monkeypatch.setattr(dataio, "_means", lambda pairs: calls.append(means(pairs)) or calls[-1])
    whole = [means(zip(dataset.countries["continent"], dataset.countries[f.key]))
             for f in FIELDS if f.fallback == CONTINENT]  # the 6 msp fields, then the 3 prices
    for through, count in (("assess", 0), ("msp", 6), ("plan", 9)):
        calls.clear()
        result = run_pipeline(dataset, through)
        assert calls == whole[:count], through
    assert "world-average" in result.columns["src_dmr_maize"]


def test_a_dataset_holds_no_mutable_state(dataset):
    """A ``Dataset`` has no instance ``__dict__``, loaded, built by hand or
    ``_replace``d: it carries nothing besides its read-only fields."""
    built = make_dataset([make_profile(name="A", continent="K")])
    for ds in (dataset, built, dataset._replace(config=dataset.config._replace(scenario="B")),
               built._replace(countries={**built.countries})):
        with pytest.raises(AttributeError):
            ds.means = {}
        assert not hasattr(ds, "__dict__")


def test_resolve_is_deterministic(dataset):
    country = dataset.countries["country"].index("Albania")
    first = {name: resolve_column(dataset, name, [country]) for name in RESOLVABLE_FIELDS}
    second = {name: resolve_column(dataset, name, [country]) for name in RESOLVABLE_FIELDS}
    assert first == second
    report = evaluate_country(dataset, country)
    assert first == {name: ([report.values[name]], [report.values[f"src_{name}"]], {})
                     for name in RESOLVABLE_FIELDS}


def test_resolve_never_invents_data():
    # value must equal a country value or an arithmetic mean of present values
    a = make_profile(name="A", continent="K", discount_rate=0.06)
    b = make_profile(name="B", continent="K", discount_rate=0.10)
    c = make_profile(name="C", continent="L", discount_rate=None)
    ds = make_dataset([a, b, c])
    (value,), tiers, failures = resolve_column(ds, "discount_rate", [2])
    assert (tiers, failures) == (["world"], {})
    assert value == pytest.approx((0.06 + 0.10) / 2)


# a finite float of any magnitude: subnormals, and values near sys.float_info.max
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-5e-308, max_value=5e-308),
    st.floats(min_value=sys.float_info.max / 2, max_value=sys.float_info.max))


@given(st.lists(finite_floats, min_size=1, max_size=40), st.integers(0, 2**32))
def test_fallback_mean_is_exact(values, seed):
    """Each mean is the correctly rounded mean of the exact sum, as
    ``statistics.mean``'s, so it lies in [min, max], and the same for the
    values in any order, repeated, or split among continents."""
    rng = random.Random(seed)
    shuffled = rng.sample(values, len(values))
    continents = [rng.choice("KLM") for _ in values]
    means, world = dataio._means(zip(["K"] * len(values), values))
    assert means == {"K": world} and world == statistics.mean(values)
    assert min(values) <= world <= max(values)
    assert dataio._means(zip(["K"] * len(values), shuffled))[1] == world
    assert dataio._means(zip(["K"] * 3 * len(values), values * 3))[1] == world
    split, split_world = dataio._means(zip(continents, values))
    assert split_world == world
    for continent, mean in split.items():
        assert mean == statistics.mean(v for v, c in zip(values, continents) if c == continent)


def test_fallback_means_leave_out_empty_cells():
    assert dataio._means([("K", None), ("L", 2.0), ("K", 1.0), ("L", None)]) == (
        {"K": 1.0, "L": 2.0}, 1.5)
    assert dataio._means([("K", None)]) == ({}, None)
    assert dataio._means([]) == ({}, None)


def test_bundled_config_is_the_defaults(data_dir):
    assert load_dataset(data_dir).config == ModelConfig()


def test_dataset_round_trip(dataset, tmp_path):
    save_dataset(dataset, tmp_path)
    reloaded = load_dataset(tmp_path)
    assert reloaded == dataset


def test_dataset_round_trip_keeps_every_config_field(dataset, tmp_path):
    cfg = ModelConfig(horizon_years=7, salvage_rate=0.2, pellet_efficiency=0.8, scenario="C",
                      carbon_tax=35.0, fossil_multipliers=(0.5, 2.0),
                      pellet_prices=(15.0, 30.0, 45.0))
    default = ModelConfig()
    assert all(getattr(cfg, name) != getattr(default, name) for name in ModelConfig._fields)
    changed = dataset._replace(config=cfg)
    save_dataset(changed, tmp_path)
    assert load_dataset(tmp_path) == changed


def test_resolved_inputs_cover_all_fields(dataset):
    country = dataset.countries["country"].index("Afghanistan")
    report = evaluate_country(dataset, country)
    assert {k for k in report.values if k.startswith("src_")} \
        == {f"src_{name}" for name in RESOLVABLE_FIELDS}
    assert report.values["src_dmr_maize"] == "world-average"
    assert report.values["src_pli_labor"] == "country"
    assert report.values["src_discount_rate"] == "continent"
    assert resolve_column(dataset, "discount_rate", [country]) == (
        [report.values["discount_rate"]], ["continent"], {})


# ---------------------------------------------------------------------------
# resolution against the oracle's per-call continent/world scan

def scanned(dataset, row, name) -> tuple:
    """``(value, tier, message)`` of the scan's answer: a message of None, or
    a value and tier of None at a ``DataError``."""
    try:
        return (*scan_resolve(dataset, row, name), None)
    except DataError as exc:
        return None, None, str(exc)


def assert_resolve_matches_scan(dataset):
    """``resolve_column`` of each field at every row, at every third row
    (whose means still come from all rows, as under ``--country``) and at
    every row shuffled gives the scan's value and tier, or its message."""
    everyone = range(len(dataset.countries["country"]))
    shuffled = random.Random(5).sample(everyone, len(everyone))
    for name in RESOLVABLE_FIELDS:
        expected = [scanned(dataset, row, name) for row in everyone]
        for rows in (list(everyone), list(everyone[::3]), shuffled):
            values, tiers, failures = resolve_column(dataset, name, rows)
            assert list(zip(values, tiers, map(failures.get, range(len(rows))))) == [
                expected[row] for row in rows], name


def test_resolve_matches_scan_on_bundled_data(dataset):
    assert_resolve_matches_scan(dataset)


def test_resolve_matches_scan_on_world_tier_and_unresolvable():
    # K carries every rate, L carries none; nobody has a coal price
    profiles = [
        make_profile(name="A", continent="K", discount_rate=0.05, tax_rate=0.2,
                     pli=0.9, prices={"oil": 500.0, "natural_gas": 300.0},
                     production={"maize": 1e6}),
        make_profile(name="B", continent="K", discount_rate=0.11, tax_rate=0.35,
                     pli=1.3, prices={"oil": 650.0}, production={"wheat": 1e6}),
        make_profile(name="C", continent="L", discount_rate=None, tax_rate=None,
                     pli={"labor": 1.1, "raw_material": None, "construction": None,
                          "electricity": None},
                     dmr={"rice": 0.9}, production={"rice": 1e6}),
        make_profile(name="D", continent="L", discount_rate=None, tax_rate=None,
                     pli={"labor": None, "raw_material": None, "construction": None,
                          "electricity": None}),
    ]
    ds = make_dataset(profiles)
    assert_resolve_matches_scan(ds)
    assert resolve_column(ds, "tax_rate", [2])[1] == ["world"]
    assert resolve_column(ds, "price_natural_gas", [3])[1] == ["world"]
    # only the plan stage needs fuel prices
    assert run_pipeline(ds, through="assess").errors == ()
    assert run_pipeline(ds, through="msp").errors == ()
    plan = run_pipeline(ds, through="plan")
    assert [name for name, _ in plan.errors] == ["A", "B", "C", "D"]
    assert all("price_coal" in message for _, message in plan.errors)
