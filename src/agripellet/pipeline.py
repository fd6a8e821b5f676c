"""End-to-end per-country evaluation and global aggregation.

Countries are evaluated independently and failures are isolated: one country
with unresolvable data lands in the error list without aborting the rest.
Output ordering is by country name, so repeated runs over the same inputs are
byte-identical downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import costs, energy, pricing, replacement, residues
from .dataio import CROPS, FUELS, PLI_COMPONENTS, CountryProfile, DataError, Dataset, resolve

STAGE_ASSESS = "assess"
STAGE_MSP = "msp"
STAGE_PLAN = "plan"
_STAGE_ORDER = (STAGE_ASSESS, STAGE_MSP, STAGE_PLAN)


@dataclass(frozen=True)
class CountryReport:
    country: str
    continent: str
    assessment: residues.ResidueAssessment
    energy: energy.EnergyPotential
    cost: costs.CostEstimate | None
    msp: pricing.MspResult | None
    plan: replacement.ReplacementPlan | None
    resolved: dict    # resolved field name -> value used
    provenance: dict  # resolved field name -> fallback tier tag


@dataclass(frozen=True)
class GlobalReport:
    countries_evaluated: int
    countries_failed: int
    total_cr_final: float         # t/y
    total_pellet_energy: float    # TJ/y
    total_s_ec: float             # $/y
    total_s_em: float             # kgCO2e/y
    total_fossil_consumption: float  # TJ/y over evaluated countries
    replaced_fraction_overall: float
    rank_first_counts: dict       # fuel -> number of countries ranking it first


@dataclass(frozen=True)
class PipelineResult:
    reports: tuple       # CountryReport, sorted by country name
    global_report: GlobalReport
    errors: tuple        # (country, message), sorted by country name


def evaluate_country(dataset: Dataset, profile: CountryProfile,
                     through: str = STAGE_PLAN) -> CountryReport:
    """Evaluate one country up to the requested stage.

    ``assess`` stops after residues and energy, ``msp`` adds plant costs and
    the break-even price, ``plan`` adds the fuel replacement plan.  Later
    stages resolve more input fields and so can fail on sparser datasets.
    A report holding a NaN or infinite number raises a ``DataError``.
    """
    if through not in _STAGE_ORDER:
        raise ValueError(f"unknown stage {through!r}")
    depth = _STAGE_ORDER.index(through)
    cfg = dataset.config
    tags = {}
    resolved = {}

    def field(name):
        resolved[name], tags[name] = resolve(dataset, profile, name)
        return resolved[name]

    assessment = residues.assess_country(
        dataset, profile, {c: field(f"dmr_{c}") for c in CROPS}
    )
    potential = energy.energy_for(assessment, dataset.crops, cfg.pellet_efficiency)

    cost = msp = plan = None
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
    if depth >= 2:
        prices = {f: field(f"price_{f}") for f in FUELS}
        if potential.weighted_lhv is not None:
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
        # no residue -> no pellet heating value; leave the plan empty

    report = CountryReport(
        country=profile.name,
        continent=profile.continent,
        assessment=assessment,
        energy=potential,
        cost=cost,
        msp=msp,
        plan=plan,
        resolved=resolved,
        provenance=tags,
    )
    bad = _non_finite(report)
    if bad:
        raise DataError(f"non-finite {bad} for {profile.name!r}")
    return report


_SCALARS = (str, bool, int, type(None))


def _non_finite(value, prefix=""):
    """``"path = value"`` for the first NaN or infinite float inside a report, or None.

    Finite inputs can still overflow (a production of 1e308 t), so every
    number a report carries is checked before it can reach an output file.
    """
    if type(value) is dict:
        items = value.items()
    elif type(value) is tuple:
        items = enumerate(value)
    else:
        items = vars(value).items()  # one of the report's frozen dataclasses
    for key, item in items:
        if type(item) is float:
            if not math.isfinite(item):
                return f"{prefix}{key} = {item!r}"
        elif type(item) not in _SCALARS:
            found = _non_finite(item, f"{prefix}{key}.")
            if found:
                return found
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
    total_alloc = sum(
        r.plan.allocation[f] for r in reports if r.plan is not None for f in FUELS
    )
    rank_first = {f: 0 for f in FUELS}
    for r in reports:
        if r.plan is not None and r.plan.ranking:
            rank_first[r.plan.ranking[0][0]] += 1

    global_report = GlobalReport(
        countries_evaluated=len(reports),
        countries_failed=len(errors),
        total_cr_final=sum(r.assessment.cr_final for r in reports),
        total_pellet_energy=sum(r.energy.pellet_energy for r in reports),
        total_s_ec=sum(r.plan.s_ec for r in reports if r.plan is not None),
        total_s_em=sum(r.plan.s_em for r in reports if r.plan is not None),
        total_fossil_consumption=total_cons,
        replaced_fraction_overall=total_alloc / total_cons if total_cons > 0 else 0.0,
        rank_first_counts=rank_first,
    )
    bad = _non_finite(global_report)
    if bad:
        raise DataError(f"non-finite global total {bad}")
    return PipelineResult(reports=tuple(reports), global_report=global_report,
                          errors=tuple(errors))


# ---------------------------------------------------------------------------
# Year-on-year production growth (reporting statistic)

@dataclass(frozen=True)
class GrowthPair:
    year_from: int
    year_to: int
    growth: float | None  # None when the base year is zero


@dataclass(frozen=True)
class GrowthResult:
    pairs: tuple
    average: float  # mean growth over pairs with a nonzero base year


def yoy_growth(series) -> GrowthResult:
    """Year-on-year growth fractions for a consecutive annual series.

    ``series`` is an iterable of (year, value).  Pairs with a zero base year
    carry no growth figure and are excluded from the average.
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
    return GrowthResult(pairs=tuple(pairs), average=sum(rates) / len(rates))
