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
)
from agripellet.dataio import DataError, ModelConfig
from conftest import PLI_COMPONENTS, cost_row, make_dataset, make_profile


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
    """A price level index <= 0 is rejected by the table check when the
    dataset is built, every bad cell by column and row, before any stage."""
    def problems(*pli):
        with pytest.raises(DataError) as raised:
            make_dataset([make_profile(name=f"C{row}", pli=dict(zip(PLI_COMPONENTS, indexes)))
                          for row, indexes in enumerate(pli)])
        return raised.value.problems

    assert problems((1.0, 1.0, 1.0, 0.0)) == [
        "countries column 'pli_electricity' row 0 ('C0'): must be > 0, got 0.0"]
    assert problems((1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0)) == [
        "countries column 'pli_raw_material' row 1 ('C1'): must be > 0, got -1.0"]
    # every bad cell, column by column in table order, rows in order
    assert problems((-1.0, 0.0, 1.0, 1.0), (1.0, 1.0, -2.0, -3.0), (0.5, 0.0, 1.0, 1.0)) == [
        "countries column 'pli_labor' row 0 ('C0'): must be > 0, got -1.0",
        "countries column 'pli_raw_material' row 0 ('C0'): must be > 0, got 0.0",
        "countries column 'pli_raw_material' row 2 ('C2'): must be > 0, got 0.0",
        "countries column 'pli_construction' row 1 ('C1'): must be > 0, got -2.0",
        "countries column 'pli_electricity' row 1 ('C1'): must be > 0, got -3.0"]
    make_dataset([make_profile(pli=dict.fromkeys(PLI_COMPONENTS, 5e-324))])  # > 0 is enough


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
    est = cost_columns({f"pli_{p}": list(countries[f"pli_{p}"]) for p in PLI_COMPONENTS},
                       dataset.config.tfc_capex_ratio)
    for name, capex, opex in zip(countries["country"], est["capex_usd"], est["opex_usd_per_y"]):
        exp_capex, exp_opex = expected[name]
        assert capex == pytest.approx(exp_capex, rel=1e-3), name
        assert opex == pytest.approx(exp_opex, rel=1e-3), name
