"""Acceptance suite: one test per release criterion, each printing a
pass/fail line into the terminal summary (see conftest)."""

import csv
import random
import time

import pytest

from agripellet.costs import OUTPUT_REF
from agripellet.dataio import CROPS, FUELS, FuelProperties
from agripellet.pipeline import run_pipeline
from agripellet.sensitivity import sweep
from conftest import (
    ACCEPTANCE_LINES,
    cost_row,
    make_dataset,
    msp_row,
    plan_row,
    random_break_even_inputs,
    synthetic_market_profiles,
)
from oracles import BreakEvenInputs, left_sum, npv, reports, solve_msp_bisection


def record(number, description, fn):
    try:
        detail = fn()
    except AssertionError as exc:
        first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        ACCEPTANCE_LINES.append(f"criterion {number:2d} FAIL: {description} [{first}]")
        raise
    suffix = f" [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d} PASS: {description}{suffix}")


def test_criterion_01_gross_residue_table(dataset, data_dir):
    def run():
        start = time.perf_counter()
        result = run_pipeline(dataset, through="assess")
        elapsed = time.perf_counter() - start
        assert not result.errors
        totals = {r.country: r.values for r in reports(result)}
        checked = 0
        worst = 0.0
        with (data_dir / "expected_residues_mt.csv").open(newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                for crop in CROPS:
                    cell = row[crop]
                    if cell == "":
                        continue
                    computed_mt = round(totals[row["country"]][f"cr_total_{crop}_t"] / 1e6, 2)
                    diff = abs(computed_mt - float(cell))
                    worst = max(worst, diff)
                    assert diff <= 0.01 + 1e-9, (row["country"], crop, computed_mt, cell)
                    checked += 1
        assert checked > 500
        assert elapsed < 1.0, f"assessment took {elapsed:.3f}s"
        return f"{checked} cells, max diff {worst:.3f} Mt, {elapsed * 1e3:.0f} ms"

    record(1, "gross residue table reproduced to +/-0.01 Mt in under 1 s", run)


def test_criterion_02_global_final_residue(dataset):
    def run():
        result = run_pipeline(dataset, through="assess")
        total = sum(r.values["cr_final_t"] for r in reports(result))
        assert total == pytest.approx(1.44e9, rel=0.03), f"{total / 1e9:.4f} Gt"
        return f"{total / 1e9:.3f} Gt vs 1.44 Gt +/-3%"

    record(2, "global final residue within 3% of 1.44 Gt", run)


def test_criterion_03_global_energy_potential(dataset):
    def run():
        assert dataset.config.pellet_efficiency == 0.95
        result = run_pipeline(dataset, through="assess")
        total = sum(r.values["pellet_energy_tj"] for r in reports(result))
        assert total == pytest.approx(21.9e6, rel=0.05), f"{total / 1e6:.3f} M TJ"
        return f"{total / 1e6:.2f} M TJ vs 21.9 M TJ +/-5% (efficiency 0.95 is calibrated)"

    record(3, "global pellet energy within 5% of 21.9 M TJ", run)


def test_criterion_04_cost_reference_identity():
    def run():
        est = cost_row(labor=1.0, raw_material=1.0, electricity=1.0, construction=1.0)
        capex, opex = est["capex_usd"], est["opex_usd_per_y"]
        assert abs(capex - 6_540_000.0) <= 1.0, capex
        assert abs(opex - 2_540_000.0) <= 1.0, opex
        tfc = est["tfc_usd"]  # the solver's depreciable base
        assert abs(tfc - 5_450_000.0) <= 1.0, tfc
        return f"capex {capex:.2f}, opex {opex:.2f}"

    record(4, "unit indexes give CAPEX 6,540,000 and OPEX 2,540,000 (+/-1)", run)


def test_criterion_05_solver_oracle_equivalence():
    def run():
        rng = random.Random(20_240_601)
        cases = [random_break_even_inputs(rng) for _ in range(1000)]
        start = time.perf_counter()
        worst_gap = 0.0
        worst_npv = 0.0
        for inputs in cases:
            closed = msp_row(inputs)["msp_usd_per_t"]
            iterative = solve_msp_bisection(inputs)
            gap = abs(closed - iterative)
            worst_gap = max(worst_gap, gap)
            for price in (closed, iterative):
                residual = abs(npv(price, inputs))
                worst_npv = max(worst_npv, residual)
                assert residual <= 0.01, residual
            assert gap <= 0.01, gap
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"solves took {elapsed:.3f}s"
        return (f"1000 cases, max price gap {worst_gap:.2e} $/t, "
                f"max |NPV| {worst_npv:.2e} $, {elapsed * 1e3:.0f} ms")

    record(5, "closed-form and bisection break-even prices agree to 0.01 $/t", run)


def test_criterion_06_hand_anchor_and_tax_neutrality():
    def run():
        est = cost_row(labor=1.0, raw_material=1.0, electricity=1.0, construction=1.0)
        anchor = BreakEvenInputs(capex=est["capex_usd"], opex=est["opex_usd_per_y"], q=OUTPUT_REF,
                                 n=20, r=0.0, tr=0.0, salvage_rate=0.10,
                                 tfc=est["tfc_usd"])
        msp = msp_row(anchor)["msp_usd_per_t"]
        assert msp == pytest.approx(70.85, abs=0.01), msp
        # tax neutrality at r = 0 holds in the regime its premise describes:
        # total taxable income over the horizon is zero, i.e. the depreciable
        # base covers the whole capital outlay (tfc = capex)
        neutral = anchor._replace(tfc=anchor.capex)
        msp0 = msp_row(neutral)["msp_usd_per_t"]
        spread = 0.0
        for tr in (0.1, 0.25, 0.4, 0.6, 0.9):
            msp_tr = msp_row(neutral._replace(tr=tr))["msp_usd_per_t"]
            spread = max(spread, abs(msp_tr - msp0) / msp0)
        assert spread <= 1e-6, spread
        return f"msp {msp:.4f} $/t, max tax spread {spread:.1e} (fully depreciated base)"

    record(6, "reference plant break-even 70.85 $/t; zero-discount tax neutrality", run)


def test_criterion_07_ranking_anchor():
    def run():
        props = {
            "coal": FuelProperties(23.9, 2592.0),
            "oil": FuelProperties(42.0, 2977.0),
            "natural_gas": FuelProperties(42.0, 2114.0),
        }
        prices = {
            "coal": 4_403.0 * 23.9e-3,
            "oil": 14_036.0 * 42.0e-3,
            "natural_gas": 13_563.0 * 42.0e-3,
        }
        consumption = dict.fromkeys(FUELS, 0.0)

        def ranking(scenario, carbon_tax=0.0):
            return plan_row(0.0, consumption, prices, props, 6_600.0, 16.0, 151.0,
                            scenario, carbon_tax)[1]

        ranking_a = ranking("A")
        assert [f for f, _ in ranking_a] == ["oil", "natural_gas", "coal"], ranking_a
        assert ranking("C", carbon_tax=0.0) == ranking_a
        return "A ranks [oil, natural_gas, coal]; C at zero tax equals A exactly"

    record(7, "cost-optimized ranking at the global-average energy costs", run)


def test_criterion_08_allocation_property_suite():
    def run():
        rng = random.Random(77_000)
        violations = 0.0
        for _ in range(10_000):
            prices = {f: rng.uniform(5.0, 1000.0) for f in FUELS}
            props = {f: FuelProperties(rng.uniform(8.0, 50.0), rng.uniform(100.0, 4000.0))
                     for f in FUELS}
            pellet = (rng.uniform(500.0, 42_000.0), rng.uniform(12.0, 18.0),
                      rng.uniform(30.0, 600.0))  # LCOE $/TJ, heating value, emission factor
            consumption = {f: rng.uniform(0.0, 1e5) for f in FUELS}
            energy = rng.uniform(0.0, 2.5e5)
            plan_a, _ = plan_row(energy, consumption, prices, props, *pellet, "A")
            plan_b, _ = plan_row(energy, consumption, prices, props, *pellet, "B")
            for plan in (plan_a, plan_b):
                allocation = {f: plan[f"alloc_{f}_tj"] for f in FUELS}
                conserved = sum(allocation.values()) + plan["unused_pellet_tj"]
                tol = 1e-9 * max(energy, 1.0)
                assert abs(conserved - energy) <= tol, (conserved, energy)
                for f in FUELS:
                    assert allocation[f] <= consumption[f] + 1e-9
                    assert allocation[f] >= 0.0
            s_em_a, s_em_b = plan_a["s_em_kgco2e_per_y"], plan_b["s_em_kgco2e_per_y"]
            slack = 1e-9 * max(1.0, abs(s_em_a))
            assert s_em_b >= s_em_a - slack
            violations = max(violations, s_em_a - s_em_b)
        return f"10,000 countries, emissions dominance margin >= {-violations:.2e}"

    record(8, "allocation conservation, caps, and emissions-scenario dominance", run)


def test_criterion_09_sensitivity_monotonicity():
    def run():
        rng = random.Random(2024)
        ds = make_dataset(synthetic_market_profiles(rng, 30))
        grid = sweep(ds)
        rows_with_change = 0
        for m in grid.fossil_multipliers:
            row = [grid.s_ec[(m, p)] for p in grid.pellet_prices]
            assert all(a >= b - 1e-6 for a, b in zip(row, row[1:])), f"row {m}"
            signs = [v >= 0 for v in row]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert changes <= 1, f"row {m} crosses zero {changes} times"
            rows_with_change += 1 if changes == 1 else 0
        for p in grid.pellet_prices:
            col = [grid.s_ec[(m, p)] for m in grid.fossil_multipliers]
            assert all(b >= a - 1e-6 for a, b in zip(col, col[1:])), f"column {p}"
        assert rows_with_change >= 1  # the crossover regime is actually exercised
        return (f"7x11 grid on 30 countries, {rows_with_change} rows cross zero once, "
                f"none twice")

    record(9, "sweep monotone along both axes with single sign changes", run)


def test_criterion_10_global_totals_and_scenario_inequality(dataset):
    def run():
        rng = random.Random(31_337)
        synthetic = make_dataset(synthetic_market_profiles(rng, 40))
        details = []
        for ds, label in ((dataset, "bundled"), (synthetic, "synthetic")):
            result_a = run_pipeline(ds)
            assert not result_a.errors
            g = result_a.global_report
            planned = [r.values for r in reports(result_a) if "rank_1" in r.values]
            assert g.s_ec_usd_per_y == left_sum(v["s_ec_usd_per_y"] for v in planned)
            assert g.s_em_kgco2e_per_y == left_sum(v["s_em_kgco2e_per_y"] for v in planned)
            assert g.cr_final_t == left_sum(r.values["cr_final_t"] for r in reports(result_a))
            result_b = run_pipeline(ds._replace(config=ds.config._replace(scenario="B")))
            assert not result_b.errors
            assert result_b.global_report.s_em_kgco2e_per_y > g.s_em_kgco2e_per_y
            details.append(
                f"{label}: emissions-optimized {result_b.global_report.s_em_kgco2e_per_y:.3e} > "
                f"cost-optimized {g.s_em_kgco2e_per_y:.3e} kgCO2e/y"
            )
        return "; ".join(details)

    record(10, "global totals are exact sums; emissions scenario saves more CO2e", run)