import csv
import json
import random
from pathlib import Path
from typing import NamedTuple

import pytest

from agripellet.costs import OUTPUT_REF, cost_columns
from agripellet.dataio import (
    ANIMALS,
    COUNTRIES_KEYS,
    CROPS,
    CropCoefficients,
    FUELS,
    FIELDS,
    Dataset,
    ModelConfig,
    default_crops,
    default_fuel_properties,
    load_dataset,
)
from agripellet.pricing import msp_columns
from agripellet.replacement import plan_columns
from agripellet.residues import assess_columns

DATA_DIR = Path(__file__).parent / "data"
# The price level indexes of a country, each a pli_<component> field.
PLI_COMPONENTS = ("labor", "raw_material", "construction", "electricity")
# The countries.csv fields with a fallback tier, in file order.
RESOLVABLE_FIELDS = tuple(f.key for f in FIELDS if f.fallback)

# pass/fail lines collected by tests/test_acceptance.py, printed in the summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def dataset():
    """The bundled 178-country dataset."""
    return load_dataset(DATA_DIR)


def renamed_copies_of(dataset):
    """Three renamed copies of the countries of ``dataset`` in one table."""
    rows = country_rows(dataset.countries)
    return dataset._replace(countries=make_table(
        r._replace(name=f"{r.name} #{i}") for i in range(3) for r in rows))


def dense_copy_of(dataset):
    """300 synthetic countries with every field set, under the config of ``dataset``."""
    rng = random.Random(3)
    rows = [r._replace(values={**r.values, **{f"dmr_{c}": rng.uniform(0.3, 1.0) for c in CROPS}})
            for r in synthetic_market_profiles(rng, 300)]
    return make_dataset(rows, config=dataset.config)


@pytest.fixture(scope="session")
def renamed_copies(dataset):
    """Three renamed copies of the bundled countries in one table (534 rows)."""
    return renamed_copies_of(dataset)


@pytest.fixture(scope="session")
def dense_dataset(dataset):
    """300 synthetic countries with every field set, under the bundled config."""
    return dense_copy_of(dataset)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def copy_data(copy: Path, edits=()) -> Path:
    """A copy of the bundled data in the new directory ``copy``, with each
    ``(file, old, new)`` text replaced."""
    copy.mkdir()
    for path in DATA_DIR.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    for name, old, new in edits:
        text = (copy / name).read_text(encoding="utf-8")
        assert old in text
        (copy / name).write_text(text.replace(old, new), encoding="utf-8")
    return copy


# Argentina's labor index raised to 1e302: its plant's OPEX stays finite, but
# its break-even price overflows to infinity
INFINITE_PRICE = ("countries.csv", ",1.1490870763477612,1.1490870763477612,0.5432570779968319,",
                  ",1e302,1.1490870763477612,0.5432570779968319,")


def write_config(path: Path, **changes) -> Path:
    """The bundled config.json with some keys changed, written to ``path``."""
    config = json.loads((DATA_DIR / "config.json").read_text(encoding="utf-8"))
    path.write_text(json.dumps({**config, **changes}), encoding="utf-8")
    return path


class Row(NamedTuple):
    """One country as the tests build it: a row of a ``Dataset.countries`` table."""

    name: str
    continent: str
    values: dict  # FIELDS key -> float, None where the cell is empty


def make_table(rows) -> dict:
    """The ``Dataset.countries`` table of ``rows``, in their order."""
    rows = list(rows)
    return {"country": tuple(r.name for r in rows), "continent": tuple(r.continent for r in rows),
            **{f.key: tuple(r.values[f.key] for r in rows) for f in FIELDS}}


def country_rows(table: dict) -> list:
    """The rows of a ``Dataset.countries`` table, in its order."""
    return [Row(name, continent, dict(zip(COUNTRIES_KEYS[2:], values)))
            for name, continent, *values in zip(*(table[key] for key in COUNTRIES_KEYS))]


def make_profile(name="Testland", continent="Testia", production=None, dmr=None,
                 livestock=None, bagasse=0.0, other=0.0, pli=None,
                 discount_rate=0.08, tax_rate=0.25, prices=None, consumption=None):
    """A ``Row`` with sane defaults for synthetic datasets; unset fields are None."""
    if pli is None:
        pli = 1.0
    if isinstance(pli, (int, float)):
        pli = dict.fromkeys(PLI_COMPONENTS, float(pli))
    values = dict.fromkeys(f.key for f in FIELDS)
    values.update({f"prod_{c}": v for c, v in (production or {}).items()})
    values.update({f"dmr_{c}": v for c, v in (dmr or {}).items()})
    values.update(livestock or {})
    values.update({f"pli_{p}": v for p, v in pli.items()})
    values.update({f"price_{f}": v for f, v in (prices or {}).items()})
    values.update({f"cons_{f}": v for f, v in (consumption or {}).items()})
    values.update(bagasse_bioenergy=bagasse, other_bioenergy=other,
                  discount_rate=discount_rate, tax_rate=tax_rate)
    assert len(values) == len(FIELDS), "unknown field"
    return Row(name, continent, values)


def make_dataset(rows, config=None, pellet_ef=151.0):
    return Dataset(
        crops=default_crops(),
        countries=make_table(rows),
        fuel_properties=default_fuel_properties(),
        pellet_ef=pellet_ef,
        config=config or ModelConfig(),
    )


def synthetic_market_profiles(rng, count):
    """Complete synthetic countries (residues, finances, fuel markets)."""
    continents = ("K", "L", "M")
    profiles = []
    for i in range(count):
        profiles.append(make_profile(
            name=f"Mkt{i:02d}",
            continent=continents[i % len(continents)],
            production={c: rng.uniform(0.0, 4e7) for c in CROPS},
            livestock={a: rng.uniform(0.0, 1.5e7) for a in ANIMALS},
            bagasse=rng.uniform(0.0, 1e6),
            other=rng.uniform(0.0, 3e6),
            pli={k: rng.uniform(0.5, 2.0) for k in PLI_COMPONENTS},
            discount_rate=rng.uniform(0.03, 0.15),
            tax_rate=rng.uniform(0.10, 0.40),
            prices={"coal": rng.uniform(60.0, 160.0),
                    "oil": rng.uniform(350.0, 750.0),
                    "natural_gas": rng.uniform(200.0, 900.0)},
            consumption={f: rng.uniform(1e4, 5e6) for f in FUELS},
        ))
    return profiles


def random_break_even_inputs(rng):
    """Valid solver inputs of the reference plant drawn from realistic ranges."""
    from oracles import BreakEvenInputs

    capex = rng.uniform(5e5, 5e7)
    return BreakEvenInputs(
        capex=capex,
        opex=rng.uniform(1e5, 2e7),
        q=OUTPUT_REF,
        n=rng.randint(1, 40),
        r=rng.uniform(0.0, 0.3),
        tr=rng.uniform(0.0, 0.6),
        salvage_rate=rng.uniform(0.0, 0.95),
        tfc=capex * rng.uniform(0.5, 1.0),
    )


def one_row(columns: dict) -> dict:
    """The values of columns that hold one row each."""
    return {name: col[0] for name, col in columns.items()}


def assert_same_files(out1, out2):
    """The two output directories hold the same files with the same bytes; their names."""
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    return names


# rtp, srr and dmr of 1: each crop's production is its removable dry tonnage, exactly
UNIT_CROPS = {c: CropCoefficients(1.0, 1.0, 1.0, crop.lhv) for c, crop in default_crops().items()}


def assess_row(crops=UNIT_CROPS, production=None, livestock=None, bagasse=0.0,
               other=0.0) -> tuple:
    """``assess_columns`` on one country, each dry matter fraction the crop's
    default: its residue columns and its final tonnage per crop.  A missing
    amount reads as 0.0, as the pipeline reads it."""
    inputs = {f.key: [0.0] for f in FIELDS if f.stage is None}  # every amount
    inputs.update({f"prod_{c}": [v] for c, v in (production or {}).items()})
    inputs.update({a: [v or 0.0] for a, v in (livestock or {}).items()})
    inputs.update(bagasse_bioenergy=[bagasse], other_bioenergy=[other])
    inputs.update({f"dmr_{c}": [crops[c].dmr_default] for c in CROPS})
    columns, by_crop = assess_columns(crops, inputs)
    return one_row(columns), one_row(by_crop)


def cost_row(labor=1.0, raw_material=1.0, electricity=1.0, construction=1.0) -> dict:
    """``cost_columns`` on one country's price level indexes."""
    pli = {"labor": labor, "raw_material": raw_material, "electricity": electricity,
           "construction": construction}
    return one_row(cost_columns({f"pli_{p}": [index] for p, index in pli.items()}))


def msp_row(inputs, weighted_lhv=None) -> dict:
    """``msp_columns`` on one plant's ``BreakEvenInputs``, with the pellets'
    heating value (MJ/kg) for the price per TJ.  The plant is the reference
    plant: the solver prices no other output."""
    assert inputs.q == OUTPUT_REF, inputs.q
    columns = {"capex_usd": [inputs.capex], "opex_usd_per_y": [inputs.opex],
               "discount_rate": [inputs.r], "tax_rate": [inputs.tr], "tfc_usd": [inputs.tfc],
               "weighted_lhv_mj_per_kg": [weighted_lhv]}
    return one_row(msp_columns(columns, inputs.n, inputs.salvage_rate))


def plan_row(pellet_energy, consumption, prices, props, pellet_lcoe, weighted_lhv, pellet_ef,
             scenario, carbon_tax=0.0) -> tuple:
    """``plan_columns`` on one country: its plan's values, and its ranking as
    ``[(fuel, score)]`` best first.  ``consumption`` and ``prices`` ($/t) map
    each fuel to its value, ``props`` to its ``FuelProperties``; the pellet
    LCOE is in $/TJ, as the msp stage's ``msp_usd_per_tj``, and the pellets'
    heating value ``weighted_lhv`` in MJ/kg."""
    columns = {**{f"price_{f}": [prices[f]] for f in FUELS}, "msp_usd_per_tj": [pellet_lcoe],
               "weighted_lhv_mj_per_kg": [weighted_lhv], "pellet_energy_tj": [pellet_energy]}
    plan, scores = plan_columns(columns, {f: [consumption[f]] for f in FUELS}, props,
                                pellet_ef, scenario, carbon_tax)
    plan = one_row(plan)
    return plan, [(plan[f"rank_{i}"], score) for i, (score,) in enumerate(scores, start=1)]


def csv_table(path: Path) -> tuple:
    """``(header, {country: {column: cell}})`` of a per-country CSV."""
    with path.open(newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    return header, {row[0]: dict(zip(header, row)) for row in rows}


def assert_stage_agrees_with_report(stage_csv: Path, report_csv: Path) -> int:
    """Every column that a stage's CSV shares with report's countries.csv
    holds the same cell in both, for each country both keep; returns the
    number of shared columns."""
    header, stage = csv_table(stage_csv)
    report_header, report = csv_table(report_csv)
    shared = [column for column in header if column in report_header]
    for country in stage.keys() & report.keys():
        assert ([stage[country][column] for column in shared]
                == [report[country][column] for column in shared]), country
    return len(shared)
