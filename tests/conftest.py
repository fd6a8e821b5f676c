from pathlib import Path

import pytest

from agripellet.dataio import (
    ANIMALS,
    CROPS,
    FUELS,
    PLI_COMPONENTS,
    FIELDS,
    CountryProfile,
    Dataset,
    LivestockRates,
    ModelConfig,
    default_crops,
    default_fuel_properties,
    load_dataset,
)

DATA_DIR = Path(__file__).parent / "data"

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


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def make_profile(name="Testland", continent="Testia", production=None, dmr=None,
                 livestock=None, bagasse=0.0, other=0.0, pli=None,
                 discount_rate=0.08, tax_rate=0.25, prices=None, consumption=None):
    """CountryProfile with sane defaults for synthetic datasets; unset fields are None."""
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
    return CountryProfile(name, continent, values)


def make_dataset(profiles, config=None, pellet_ef=151.0):
    return Dataset(
        crops=default_crops(),
        livestock_rates=LivestockRates(),
        countries=tuple(profiles),
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
    """Valid solver inputs drawn from realistic plant ranges."""
    from agripellet.pricing import BreakEvenInputs

    capex = rng.uniform(5e5, 5e7)
    return BreakEvenInputs(
        capex=capex,
        opex=rng.uniform(1e5, 2e7),
        q=rng.uniform(1e3, 2e5),
        n=rng.randint(1, 40),
        r=rng.uniform(0.0, 0.3),
        tr=rng.uniform(0.0, 0.6),
        salvage_rate=rng.uniform(0.0, 0.95),
        tfc=capex * rng.uniform(0.5, 1.0),
    )
