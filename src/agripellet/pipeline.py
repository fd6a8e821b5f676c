"""End-to-end per-country evaluation and global aggregation.

Countries are evaluated independently and failures are isolated: one country
with unresolvable data lands in the error list without aborting the rest.
Output ordering is by country name, so repeated runs over the same inputs are
byte-identical downstream.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from . import costs, energy, pricing, replacement, residues
from .dataio import CROPS, FUELS, PLI_COMPONENTS, CountryProfile, DataError, Dataset, resolve

STAGE_ASSESS = "assess"
STAGE_MSP = "msp"
STAGE_PLAN = "plan"
_STAGE_ORDER = (STAGE_ASSESS, STAGE_MSP, STAGE_PLAN)


class CountryReport(NamedTuple):
    country: str
    values: dict  # output column name -> typed value, for each column its stage computes


class GlobalReport(NamedTuple):
    """The ``global`` object of ``global.json``, its fields named as its keys."""

    countries_evaluated: int
    countries_failed: int
    cr_final_t: float
    pellet_energy_tj: float
    s_ec_usd_per_y: float
    s_em_kgco2e_per_y: float
    fossil_consumption_tj: float  # over evaluated countries
    replaced_fraction_overall: float
    rank_first_counts: dict       # fuel -> number of countries ranking it first


class PipelineResult(NamedTuple):
    reports: tuple       # CountryReport, sorted by country name
    global_report: GlobalReport
    errors: tuple        # (country, message), sorted by country name


def evaluate_country(dataset: Dataset, profile: CountryProfile,
                     through: str = STAGE_PLAN) -> CountryReport:
    """Evaluate one country up to the requested stage.

    ``assess`` stops after residues and energy, ``msp`` adds plant costs and
    the break-even price, ``plan`` adds the fuel replacement plan.  Later
    stages resolve more input fields and so can fail on sparser datasets.
    Each resolved input is recorded as its value ``X`` and fallback tier
    ``src_X``; a country without residue gets no plan columns.  A NaN or
    infinite number among the values or the plan's ranking scores raises a
    ``DataError``.
    """
    if through not in _STAGE_ORDER:
        raise ValueError(f"unknown stage {through!r}")
    depth = _STAGE_ORDER.index(through)
    cfg = dataset.config
    resolved = {}

    def field(name):
        resolved[name], resolved[f"src_{name}"] = resolve(dataset, profile, name)
        return resolved[name]

    assessment = residues.assess_country(dataset, profile,
                                         {c: field(f"dmr_{c}") for c in CROPS})
    potential = energy.energy_for(assessment, dataset.crops, cfg.pellet_efficiency)
    values = {
        "country": profile.name,
        "continent": profile.continent,
        **{f"cr_total_{c}_t": assessment.cr_total[c] for c in CROPS},
        **{f"cr_removable_dry_{c}_t": assessment.cr_removable_dry[c] for c in CROPS},
        "cr_removable_dry_t": assessment.total_removable_dry,
        "feed_bedding_use_t": assessment.feed_bedding_use,
        "bagasse_bioenergy_use_t": assessment.bioenergy_use_bagasse,
        "other_bioenergy_attributed_t": assessment.bioenergy_use_other_attributed,
        "cr_final_t": assessment.cr_final,
        "use_saturated": assessment.use_saturated,
        "weighted_lhv_mj_per_kg": potential.weighted_lhv,
        "pellet_mass_t": potential.pellet_mass,
        "pellet_energy_tj": potential.pellet_energy,
    }
    scores = ()
    if depth >= 1:
        cost = costs.estimate_costs({p: field(f"pli_{p}") for p in PLI_COMPONENTS})
        inputs = pricing.BreakEvenInputs(
            capex=cost.capex,
            opex=cost.opex_total,
            q=cfg.plant_capacity,
            n=cfg.horizon_years,
            r=field("discount_rate"),
            tr=field("tax_rate"),
            salvage_rate=cfg.salvage_rate,
            tfc=cost.capex * cfg.tfc_capex_ratio,
        )
        msp = pricing.solve_msp(inputs, weighted_lhv=potential.weighted_lhv)
        trace = msp.annual_trace
        values.update({
            "epc_usd": cost.epc,
            "tfc_usd": inputs.tfc,
            "capex_usd": cost.capex,
            "opex_usd_per_y": cost.opex_total,
            "msp_usd_per_t": msp.msp,
            "msp_usd_per_tj": msp.msp_per_tj,
            "npv_at_msp_usd": msp.npv_at_msp,
            "revenue_usd_per_y": trace.revenue,
            "tax_usd_per_y": trace.tax,
            "cash_flow_usd_per_y": trace.cash_flow,
            "annuity_factor": trace.annuity_factor,
        })
    if depth >= 2:
        prices = {f: field(f"price_{f}") for f in FUELS}
        if potential.weighted_lhv is not None:  # no residue, no pellet heating value: no plan
            econ = replacement.build_economics(
                prices,
                dataset.fuel_properties,
                msp.msp,
                potential.weighted_lhv,
                dataset.pellet_ef,
            )
            plan = replacement.build_plan(
                potential.pellet_energy,
                {f: profile.amount(f"cons_{f}") for f in FUELS},
                econ,
                cfg.scenario,
                cfg.carbon_tax,
            )
            values.update({
                "scenario": plan.scenario,
                "carbon_tax_usd_per_tco2e": plan.carbon_tax,
                **{f"rank_{i}": f for i, (f, _) in enumerate(plan.ranking, start=1)},
                **{f"alloc_{f}_tj": plan.allocation[f] for f in FUELS},
                **{f"replaced_{f}_frac": plan.replaced_fraction[f] for f in FUELS},
                "replaced_overall_frac": plan.replaced_fraction_overall,
                "unused_pellet_tj": plan.unused_pellet_energy,
                "s_ec_usd_per_y": plan.s_ec,
                "s_em_kgco2e_per_y": plan.s_em,
            })
            # the scores order rank_1..3 without being columns, and can overflow alone
            scores = [(f"score_{f}", score) for f, score in plan.ranking]
    values.update(resolved)
    bad = _non_finite(chain(values.items(), scores))
    if bad:
        raise DataError(f"non-finite {bad} for {profile.name!r}")
    return CountryReport(profile.name, values)


def _non_finite(items) -> str | None:
    """The name of the first NaN or infinite float among ``(name, value)`` pairs, or None.

    Finite inputs can still overflow (a production of 1e308 t), so every
    number a report carries is checked before it can reach an output file;
    the message names the number but not its value, so that ``errors.txt``
    never holds ``nan`` or ``inf`` either.
    """
    for name, value in items:
        if type(value) is float and not math.isfinite(value):
            return name
    return None


def run_pipeline(dataset: Dataset, through: str = STAGE_PLAN,
                 countries=None) -> PipelineResult:
    """Evaluate every country (or the named subset), collecting failures.

    Evaluation order and output order are by country name.
    """
    selected = sorted(dataset.countries, key=lambda c: c.name)
    if countries is not None:
        wanted = set(countries)
        unknown = wanted - {c.name for c in selected}
        if unknown:
            raise DataError(f"unknown countries requested: {sorted(unknown)}")
        selected = [c for c in selected if c.name in wanted]

    reports = []
    errors = []
    for profile in selected:
        try:
            reports.append(evaluate_country(dataset, profile, through))
        except (DataError, ValueError) as exc:
            errors.append((profile.name, str(exc)))

    evaluated_names = {r.country for r in reports}
    total_cons = sum(
        c.amount(f"cons_{f}")
        for c in selected if c.name in evaluated_names
        for f in FUELS
    )
    planned = [r.values for r in reports if "rank_1" in r.values]
    total_alloc = sum(v[f"alloc_{f}_tj"] for v in planned for f in FUELS)
    rank_first = {f: 0 for f in FUELS}
    for v in planned:
        rank_first[v["rank_1"]] += 1

    global_report = GlobalReport(
        countries_evaluated=len(reports),
        countries_failed=len(errors),
        cr_final_t=sum(r.values["cr_final_t"] for r in reports),
        pellet_energy_tj=sum(r.values["pellet_energy_tj"] for r in reports),
        s_ec_usd_per_y=sum(v["s_ec_usd_per_y"] for v in planned),
        s_em_kgco2e_per_y=sum(v["s_em_kgco2e_per_y"] for v in planned),
        fossil_consumption_tj=total_cons,
        replaced_fraction_overall=total_alloc / total_cons if total_cons > 0 else 0.0,
        rank_first_counts=rank_first,
    )
    bad = _non_finite(global_report._asdict().items())
    if bad:
        raise DataError(f"non-finite global total {bad}")
    return PipelineResult(reports=tuple(reports), global_report=global_report,
                          errors=tuple(errors))


# ---------------------------------------------------------------------------
# Year-on-year production growth (reporting statistic)

class GrowthPair(NamedTuple):
    year_from: int
    year_to: int
    growth: float | None  # None when the base year is zero


class GrowthResult(NamedTuple):
    pairs: tuple
    average: float  # mean growth over pairs with a nonzero base year


def yoy_growth(series) -> GrowthResult:
    """Year-on-year growth fractions for a consecutive annual series.

    ``series`` is an iterable of (year, value).  Pairs with a zero base year
    carry no growth figure and are excluded from the average.  A growth or an
    average beyond the float range raises a ``DataError``.
    """
    points = sorted((int(y), float(v)) for y, v in series)
    if len(points) < 2:
        raise DataError("series must contain at least two years")
    years = [y for y, _ in points]
    if len(set(years)) != len(years):
        raise DataError("duplicate years in series")
    if any(b - a != 1 for a, b in zip(years, years[1:])):
        raise DataError("series years must be consecutive")
    pairs = []
    rates = []
    for (y0, v0), (y1, v1) in zip(points, points[1:]):
        if v0 > 0:
            rate = (v1 - v0) / v0
            rates.append(rate)
        else:
            rate = None
        pairs.append(GrowthPair(y0, y1, rate))
    if not rates:
        raise DataError("every base year is zero; growth is undefined")
    average = sum(rates) / len(rates)
    if not math.isfinite(average):  # an infinite rate (each is >= -1) or an overflowing sum
        raise DataError("growth is not a finite number")  # no value named: no output holds inf
    return GrowthResult(pairs=tuple(pairs), average=average)
