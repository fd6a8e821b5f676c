"""Deterministic CSV/JSON serialization of pipeline results.

Column sets are fixed: adding countries never changes the schema, and two
runs over identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .dataio import CROPS, FUELS, PLI_COMPONENTS, RESOLVABLE_FIELDS
from .pipeline import PipelineResult
from .sensitivity import SensitivityGrid, grid_rows_long, grid_rows_wide

SRC_COLUMNS = tuple(f"src_{name}" for name in RESOLVABLE_FIELDS)

ASSESS_COLUMNS = (
    ("country", "continent")
    + tuple(f"cr_total_{c}_t" for c in CROPS)
    + tuple(f"cr_removable_dry_{c}_t" for c in CROPS)
    + ("feed_bedding_use_t", "bagasse_bioenergy_use_t", "other_bioenergy_attributed_t",
       "cr_final_t", "use_saturated",
       "weighted_lhv_mj_per_kg", "pellet_mass_t", "pellet_energy_tj")
    + tuple(f"src_dmr_{c}" for c in CROPS)
)

MSP_COLUMNS = (
    ("country", "continent", "epc_usd", "tfc_usd", "capex_usd", "opex_usd_per_y",
     "discount_rate", "tax_rate", "msp_usd_per_t", "msp_usd_per_tj", "npv_at_msp_usd")
    + tuple(f"src_pli_{p}" for p in PLI_COMPONENTS)
    + ("src_discount_rate", "src_tax_rate")
)

RECOP_COLUMNS = (
    ("country", "continent", "scenario", "carbon_tax_usd_per_tco2e", "pellet_energy_tj",
     "rank_1", "rank_2", "rank_3")
    + tuple(f"alloc_{f}_tj" for f in FUELS)
    + tuple(f"replaced_{f}_frac" for f in FUELS)
    + ("replaced_overall_frac", "unused_pellet_tj", "s_ec_usd_per_y", "s_em_kgco2e_per_y")
    + tuple(f"src_price_{f}" for f in FUELS)
)

REPORT_COLUMNS = (
    ("country", "continent")
    + tuple(f"cr_total_{c}_t" for c in CROPS)
    + ("cr_removable_dry_t", "feed_bedding_use_t", "bagasse_bioenergy_use_t",
       "other_bioenergy_attributed_t", "cr_final_t", "use_saturated",
       "weighted_lhv_mj_per_kg", "pellet_mass_t", "pellet_energy_tj",
       "capex_usd", "opex_usd_per_y", "tfc_usd",
       "msp_usd_per_t", "msp_usd_per_tj", "npv_at_msp_usd",
       "scenario", "rank_1", "rank_2", "rank_3")
    + tuple(f"alloc_{f}_tj" for f in FUELS)
    + tuple(f"replaced_{f}_frac" for f in FUELS)
    + ("replaced_overall_frac", "unused_pellet_tj", "s_ec_usd_per_y", "s_em_kgco2e_per_y")
    + SRC_COLUMNS
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rank_names(plan):
    if plan is None:
        return [None, None, None]
    return [fuel for fuel, _ in plan.ranking]


def assess_rows(result: PipelineResult) -> list:
    rows = [list(ASSESS_COLUMNS)]
    for r in result.reports:
        a = r.assessment
        rows.append([_cell(v) for v in (
            [r.country, r.continent]
            + [a.cr_total[c] for c in CROPS]
            + [a.cr_removable_dry[c] for c in CROPS]
            + [a.feed_bedding_use, a.bioenergy_use_bagasse,
               a.bioenergy_use_other_attributed, a.cr_final, a.use_saturated,
               r.energy.weighted_lhv, r.energy.pellet_mass, r.energy.pellet_energy]
            + [r.provenance.get(f"dmr_{c}") for c in CROPS]
        )])
    return rows


def msp_rows(result: PipelineResult) -> list:
    rows = [list(MSP_COLUMNS)]
    for r in result.reports:
        rows.append([_cell(v) for v in (
            [r.country, r.continent,
             r.cost.epc, r.cost.tfc, r.cost.capex, r.cost.opex_total,
             r.resolved.get("discount_rate"), r.resolved.get("tax_rate"),
             r.msp.msp, r.msp.msp_per_tj, r.msp.npv_at_msp]
            + [r.provenance.get(f"pli_{p}") for p in PLI_COMPONENTS]
            + [r.provenance.get("discount_rate"), r.provenance.get("tax_rate")]
        )])
    return rows


def recop_rows(result: PipelineResult) -> list:
    rows = [list(RECOP_COLUMNS)]
    for r in result.reports:
        plan = r.plan
        ranks = _rank_names(plan)
        rows.append([_cell(v) for v in (
            [r.country, r.continent,
             plan.scenario if plan else None,
             plan.carbon_tax if plan else None,
             r.energy.pellet_energy] + ranks
            + [plan.allocation[f] if plan else None for f in FUELS]
            + [plan.replaced_fraction[f] if plan else None for f in FUELS]
            + [plan.replaced_fraction_overall if plan else None,
               plan.unused_pellet_energy if plan else None,
               plan.s_ec if plan else None,
               plan.s_em if plan else None]
            + [r.provenance.get(f"price_{f}") for f in FUELS]
        )])
    return rows


def report_rows(result: PipelineResult) -> list:
    rows = [list(REPORT_COLUMNS)]
    for r in result.reports:
        a = r.assessment
        plan = r.plan
        ranks = _rank_names(plan)
        rows.append([_cell(v) for v in (
            [r.country, r.continent]
            + [a.cr_total[c] for c in CROPS]
            + [a.total_removable_dry, a.feed_bedding_use, a.bioenergy_use_bagasse,
               a.bioenergy_use_other_attributed, a.cr_final, a.use_saturated,
               r.energy.weighted_lhv, r.energy.pellet_mass, r.energy.pellet_energy,
               r.cost.capex, r.cost.opex_total, r.cost.tfc,
               r.msp.msp, r.msp.msp_per_tj, r.msp.npv_at_msp,
               plan.scenario if plan else None] + ranks
            + [plan.allocation[f] if plan else None for f in FUELS]
            + [plan.replaced_fraction[f] if plan else None for f in FUELS]
            + [plan.replaced_fraction_overall if plan else None,
               plan.unused_pellet_energy if plan else None,
               plan.s_ec if plan else None,
               plan.s_em if plan else None]
            + [r.provenance.get(name) for name in RESOLVABLE_FIELDS]
        )])
    return rows


# ---------------------------------------------------------------------------
# Nested JSON payloads

def _assessment_payload(r):
    a = r.assessment
    return {
        "cr_total_t": {c: a.cr_total[c] for c in CROPS},
        "cr_removable_dry_t": {c: a.cr_removable_dry[c] for c in CROPS},
        "feed_bedding_use_t": a.feed_bedding_use,
        "bagasse_bioenergy_use_t": a.bioenergy_use_bagasse,
        "other_bioenergy_attributed_t": a.bioenergy_use_other_attributed,
        "cr_final_t": a.cr_final,
        "cr_final_by_crop_t": {c: a.cr_final_by_crop[c] for c in CROPS},
        "use_saturated": a.use_saturated,
    }


def _energy_payload(r):
    return {
        "weighted_lhv_mj_per_kg": r.energy.weighted_lhv,
        "pellet_mass_t": r.energy.pellet_mass,
        "pellet_energy_tj": r.energy.pellet_energy,
    }


def _cost_payload(r):
    if r.cost is None:
        return None
    return {
        "epc_usd": r.cost.epc,
        "direct_usd": r.cost.direct,
        "indirect_usd": r.cost.indirect,
        "misc_usd": r.cost.misc,
        "tfc_usd": r.cost.tfc,
        "working_capital_usd": r.cost.working_capital,
        "startup_usd": r.cost.startup,
        "capex_usd": r.cost.capex,
        "opex_usd_per_y": r.cost.opex_total,
        "opex_parts_usd_per_y": dict(r.cost.opex_parts),
    }


def _msp_payload(r):
    if r.msp is None:
        return None
    return {
        "msp_usd_per_t": r.msp.msp,
        "msp_usd_per_tj": r.msp.msp_per_tj,
        "npv_at_msp_usd": r.msp.npv_at_msp,
        "annual_trace": [
            {"year": t.year, "revenue": t.revenue, "tax": t.tax,
             "cash_flow": t.cash_flow, "discounted_cash_flow": t.discounted_cash_flow}
            for t in r.msp.annual_trace
        ],
    }


def _plan_payload(r):
    if r.plan is None:
        return None
    plan = r.plan
    return {
        "scenario": plan.scenario,
        "carbon_tax_usd_per_tco2e": plan.carbon_tax,
        "ranking": [{"fuel": f, "score_per_tj": s} for f, s in plan.ranking],
        "allocation_tj": dict(plan.allocation),
        "replaced_fraction": dict(plan.replaced_fraction),
        "replaced_fraction_overall": plan.replaced_fraction_overall,
        "unused_pellet_energy_tj": plan.unused_pellet_energy,
        "s_ec_usd_per_y": plan.s_ec,
        "s_em_kgco2e_per_y": plan.s_em,
    }


def country_payload(r) -> dict:
    return {
        "country": r.country,
        "continent": r.continent,
        "residues": _assessment_payload(r),
        "energy": _energy_payload(r),
        "costs": _cost_payload(r),
        "break_even": _msp_payload(r),
        "replacement": _plan_payload(r),
        "resolved_inputs": dict(sorted(r.resolved.items())),
        "provenance": dict(sorted(r.provenance.items())),
    }


def global_payload(result: PipelineResult) -> dict:
    g = result.global_report
    return {
        "global": {
            "countries_evaluated": g.countries_evaluated,
            "countries_failed": g.countries_failed,
            "cr_final_t": g.total_cr_final,
            "pellet_energy_tj": g.total_pellet_energy,
            "s_ec_usd_per_y": g.total_s_ec,
            "s_em_kgco2e_per_y": g.total_s_em,
            "fossil_consumption_tj": g.total_fossil_consumption,
            "replaced_fraction_overall": g.replaced_fraction_overall,
            "rank_first_counts": dict(g.rank_first_counts),
        },
        "countries": [country_payload(r) for r in result.reports],
        "errors": [{"country": name, "message": msg} for name, msg in result.errors],
    }


# ---------------------------------------------------------------------------
# File writers

def write_csv(path: str | Path, rows: list) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)


def write_json(path: str | Path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_errors_txt(path: str | Path, result: PipelineResult) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{name}: {message}" for name, message in result.errors]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_report_files(out_dir: str | Path, result: PipelineResult) -> None:
    """The full fixed output set: wide CSV, nested JSON, errors, plot files."""
    out_dir = Path(out_dir)
    write_csv(out_dir / "countries.csv", report_rows(result))
    write_json(out_dir / "global.json", global_payload(result))
    write_errors_txt(out_dir / "errors.txt", result)
    write_csv(out_dir / "energy_by_country.csv",
              [["country", "pellet_energy_tj"]]
              + [[r.country, _cell(r.energy.pellet_energy)] for r in result.reports])
    write_csv(out_dir / "replacement_by_country.csv",
              [["country", "top_fuel", "replaced_overall_frac"]]
              + [[r.country,
                  _cell(r.plan.ranking[0][0] if r.plan else None),
                  _cell(r.plan.replaced_fraction_overall if r.plan else None)]
                 for r in result.reports])
    write_csv(out_dir / "savings_by_country.csv",
              [["country", "s_ec_usd_per_y", "s_em_kgco2e_per_y"]]
              + [[r.country,
                  _cell(r.plan.s_ec if r.plan else None),
                  _cell(r.plan.s_em if r.plan else None)]
                 for r in result.reports])


def write_sensitivity_files(out_dir: str | Path, grid: SensitivityGrid) -> None:
    out_dir = Path(out_dir)
    write_csv(out_dir / "sensitivity.csv", grid_rows_wide(grid))
    write_csv(out_dir / "sensitivity_long.csv", grid_rows_long(grid))


def sensitivity_payload(grid: SensitivityGrid) -> dict:
    return {
        "fossil_multipliers": list(grid.fossil_multipliers),
        "pellet_prices_usd_per_t": list(grid.pellet_prices),
        "baseline": {"s_ec_usd_per_y": grid.baseline.global_report.total_s_ec,
                     "s_em_kgco2e_per_y": grid.baseline.global_report.total_s_em},
        "cells": [
            {"fossil_multiplier": m, "pellet_price_usd_t": p,
             "s_ec_usd_per_y": grid.s_ec[(m, p)], "s_em_kgco2e_per_y": grid.s_em[(m, p)]}
            for m in grid.fossil_multipliers for p in grid.pellet_prices
        ],
    }


def growth_payload(result) -> dict:
    return {
        "pairs": [{"year_from": p.year_from, "year_to": p.year_to, "growth": p.growth}
                  for p in result.pairs],
        "average": result.average,
    }
