import csv

import pytest

from agripellet.costs import (
    ADDITIONAL_REF,
    DIRECT_FACTOR,
    EPC_REF,
    INDIRECT_FACTOR,
    INSURANCE_TAX_REF,
    MISC_FACTOR,
    cost_columns,
    cost_failures,
)
from agripellet.dataio import PLI_COMPONENTS, ModelConfig
from conftest import cost_row


def capital_costs(construction_index):
    """(equipment purchase cost, CAPEX) of one country."""
    row = cost_row(construction=construction_index)
    return row["epc_usd"], row["capex_usd"]


def operating_costs(labor, raw_material, electricity, construction):
    """Annual OPEX of one country, $/y."""
    return cost_row(labor, raw_material, electricity, construction)["opex_usd_per_y"]


def test_reference_identity_capex():
    epc, capex = capital_costs(1.0)
    assert epc == EPC_REF == 1_249_570.0
    assert capex * ModelConfig().tfc_capex_ratio == pytest.approx(5_450_000.0, abs=1.0)
    assert capex == pytest.approx(6_540_000.0, abs=1.0)


def test_reference_identity_opex():
    total = operating_costs(1.0, 1.0, 1.0, 1.0)
    assert total == pytest.approx(2_540_000.0, abs=1e-6)
    # all three labor lines scale together; insurance/tax and additional do not scale
    assert operating_costs(2.0, 1.0, 1.0, 1.0) - total == 812_800.0 + 558_800.0 + 152_400.0
    assert (INSURANCE_TAX_REF, ADDITIONAL_REF) == (101_600.0, 76_200.0)


def test_capex_linear_in_index():
    assert capital_costs(0.5)[1] == pytest.approx(3_270_000.0, abs=1.0)


def test_capex_tfc_ratio_fixed():
    # the default tfc_capex_ratio is the cascade's: total fixed capital
    # (direct, indirect, miscellaneous) over CAPEX, at every index
    for idx in (0.2, 0.7, 1.0, 1.9, 3.4):
        epc, capex = capital_costs(idx)
        tfc = DIRECT_FACTOR * epc * (1 + INDIRECT_FACTOR) * (1 + MISC_FACTOR)
        assert capex / tfc == pytest.approx(1.2, rel=1e-12)
        assert capex * ModelConfig().tfc_capex_ratio == pytest.approx(tfc, rel=1e-12)


def test_opex_labor_doubles():
    total = operating_costs(2.0, 1.0, 1.0, 1.0)
    assert total == pytest.approx(2_540_000.0 + 1_524_000.0, abs=1e-6)


def test_opex_labor_partial_derivative():
    base = operating_costs(1.0, 1.0, 1.0, 1.0)
    up = operating_costs(2.0, 1.0, 1.0, 1.0)
    assert up - base == pytest.approx(1_524_000.0, abs=1e-6)


def test_opex_unscaled_floor():
    eps = 1e-9
    total = operating_costs(eps, eps, eps, eps)
    assert total == pytest.approx(177_800.0, abs=1.0)


def test_opex_affine_in_each_index():
    base = operating_costs(1.0, 1.0, 1.0, 1.0)
    for pos, coeff in enumerate([1_524_000.0, 482_600.0, 203_200.0, 152_400.0]):
        args = [1.0, 1.0, 1.0, 1.0]
        args[pos] = 3.0
        bumped = operating_costs(*args)
        assert bumped - base == pytest.approx(2.0 * coeff, rel=1e-12)


def test_nonpositive_index_rejected():
    def failures(labor, raw_material, electricity, construction):
        pli = {"labor": labor, "raw_material": raw_material, "electricity": electricity,
               "construction": construction}
        return cost_failures({f"pli_{p}": [index] for p, index in pli.items()})

    assert failures(1.0, 1.0, 1.0, 0.0) == {0: "construction index must be > 0, got 0.0"}
    assert failures(1.0, -1.0, 1.0, 1.0) == {0: "raw material index must be > 0, got -1.0"}
    # the indexes are checked in the order construction, labor, raw material, electricity
    assert failures(-1.0, 0.0, -2.0, -3.0) == {0: "construction index must be > 0, got -3.0"}
    assert failures(-1.0, 0.0, -2.0, 1.0) == {0: "labor index must be > 0, got -1.0"}
    assert failures(1.0, 1.0, -2.0, 1.0) == {0: "electricity index must be > 0, got -2.0"}
    # each failing row by its index in the columns
    columns = {"pli_labor": [1.0, 0.0, 2.0, -1.0], "pli_raw_material": [1.0] * 4,
               "pli_electricity": [1.0] * 4, "pli_construction": [1.0, 1.0, 1.0, 0.0]}
    assert cost_failures(columns) == {1: "labor index must be > 0, got 0.0",
                                      3: "construction index must be > 0, got 0.0"}
    assert cost_failures({f"pli_{p}": [0.5, 2.0] for p in PLI_COMPONENTS}) == {}


def test_estimate_costs_combines_sides():
    est = cost_row()
    assert est["capex_usd"] == pytest.approx(6_540_000.0, abs=1.0)
    assert est["opex_usd_per_y"] == pytest.approx(2_540_000.0, abs=1e-6)


def test_cost_table_reproduction(dataset, data_dir):
    """Every bundled country's CAPEX/OPEX matches the reference cost table to 0.1%."""
    with (data_dir / "expected_costs.csv").open(newline="", encoding="utf-8") as f:
        expected = {row["country"]: (float(row["capex_usd"]), float(row["opex_usd_per_y"]))
                    for row in csv.DictReader(f)}
    countries = dataset.countries
    assert len(expected) == len(countries["country"])
    est = cost_columns({f"pli_{p}": list(countries[f"pli_{p}"]) for p in PLI_COMPONENTS})
    for name, capex, opex in zip(countries["country"], est["capex_usd"], est["opex_usd_per_y"]):
        exp_capex, exp_opex = expected[name]
        assert capex == pytest.approx(exp_capex, rel=1e-3), name
        assert opex == pytest.approx(exp_opex, rel=1e-3), name
