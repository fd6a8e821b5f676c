"""Per-country residue accounting: gross residue, removable dry tonnage,
competing uses, and the tonnage left over for pelletization."""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .dataio import ANIMALS, CROPS, CountryProfile, Dataset, LivestockRates

# Share of "other vegetal" bioenergy attributed to maize/rice/wheat residues:
# cereals are 31.3% of primary crop output and these three are 91% of cereals.
CEREAL_SHARE = 0.313
BIG_THREE_CEREAL_SHARE = 0.91
OTHER_BIOENERGY_ATTRIBUTION = CEREAL_SHARE * BIG_THREE_CEREAL_SHARE

DAYS_PER_YEAR = 365.0

# The countries.csv amounts the residue accounting reads (a missing value is 0.0).
INPUT_KEYS = (*(f"prod_{c}" for c in CROPS), *ANIMALS, "bagasse_bioenergy", "other_bioenergy")


class ResidueAssessment(NamedTuple):
    country: str
    cr_total: dict            # t/y fresh residue per crop
    cr_removable_dry: dict    # t/y dry removable per crop
    feed_bedding_use: float   # t/y
    bioenergy_use_bagasse: float            # t/y
    bioenergy_use_other_attributed: float   # t/y
    cr_final: float           # t/y available for pelletization, clamped at 0
    cr_final_by_crop: dict    # t/y, pro rata to removable share
    use_saturated: bool       # competing uses consumed the whole removable pool

    @property
    def total_removable_dry(self) -> float:
        return sum(self.cr_removable_dry.values())


def total_residue(production: float, rtp: float) -> float:
    """Gross residue tonnage from production and the residue-to-production ratio."""
    return production * rtp


def removable_dry_residue(cr_total: float, srr: float, dmr: float) -> float:
    """Dry tonnage that can leave the field without degrading soil."""
    return cr_total * srr * dmr


def _feed_column(heads: dict, rates: LivestockRates) -> list:
    """Each row's annual residue demand (t/y) of its herd (``heads``: animal -> list)."""
    demand = []
    for a in ANIMALS:
        rate = rates.rate(a)
        demand.append([n * rate * DAYS_PER_YEAR / 1000.0 for n in heads[a]])
    return list(map(sum, zip(*demand)))


def feed_bedding_use(livestock: dict, rates: LivestockRates) -> float:
    """Annual residue demand (t/y) of the reported livestock herd.

    ``livestock`` maps each animal to its head count or None, as a
    ``CountryProfile.values`` does.
    """
    return _feed_column({a: [livestock[a] or 0.0] for a in ANIMALS}, rates)[0]


def _attributed_column(other: list) -> list:
    """The share of each row's other vegetal bioenergy attributed to these crops."""
    return [o * OTHER_BIOENERGY_ATTRIBUTION for o in other]


def bioenergy_use(bagasse: float, other: float) -> tuple:
    """(bagasse passthrough, share of other vegetal bioenergy attributed here)."""
    return bagasse, _attributed_column([other])[0]


def _final_columns(removable: dict, feed: list, bagasse: list, attributed: list) -> tuple:
    """(removable total, final tonnage, saturated flag, final tonnage per crop) columns.

    Competing uses are subtracted from each row's removable pool (``removable``:
    crop -> list) at the country aggregate, clamping at zero; the per-crop final
    split is pro rata to each crop's removable share (needed downstream only
    for the heating-value weighting).
    """
    total = list(map(sum, zip(*(removable[c] for c in CROPS))))
    final = [max(0.0, t - (f + b + a)) for t, f, b, a in zip(total, feed, bagasse, attributed)]
    saturated = [t > 0 and c == 0.0 for t, c in zip(total, final)]
    by_crop = {c: [f * r / t if f > 0 and t > 0 else 0.0
                   for f, r, t in zip(final, removable[c], total)] for c in CROPS}
    return total, final, saturated, by_crop


def final_residue(country: str, cr_total: dict, cr_removable_dry: dict,
                  feed_bedding: float, bagasse_use: float, attributed_other: float,
                  ) -> ResidueAssessment:
    """Subtract competing uses from the removable pool, clamping at zero."""
    _, (final,), (saturated,), by_crop = _final_columns(
        {c: [cr_removable_dry[c]] for c in CROPS}, [feed_bedding], [bagasse_use],
        [attributed_other])
    return ResidueAssessment(
        country=country,
        cr_total=cr_total,
        cr_removable_dry=cr_removable_dry,
        feed_bedding_use=feed_bedding,
        bioenergy_use_bagasse=bagasse_use,
        bioenergy_use_other_attributed=attributed_other,
        cr_final=final,
        cr_final_by_crop={c: by_crop[c][0] for c in CROPS},
        use_saturated=saturated,
    )


def assess_columns(crops: dict, rates: LivestockRates, inputs: dict) -> tuple:
    """The assess stage's residue columns, and each row's final tonnage per crop.

    ``inputs`` holds one list per key, a row per country: the amounts
    ``prod_<crop>``, the head count of each animal, ``bagasse_bioenergy`` and
    ``other_bioenergy`` (a missing value read as 0.0) and the resolved
    ``dmr_<crop>``.  Returns the columns ``cr_total_<crop>_t`` through
    ``use_saturated`` and ``{crop: list}`` of the final tonnage split.
    """
    cr_total = {c: list(map(total_residue, inputs[f"prod_{c}"], repeat(crops[c].rtp)))
                for c in CROPS}
    removable = {c: list(map(removable_dry_residue, cr_total[c], repeat(crops[c].srr),
                             inputs[f"dmr_{c}"])) for c in CROPS}
    feed = _feed_column(inputs, rates)
    bagasse, attributed = inputs["bagasse_bioenergy"], _attributed_column(inputs["other_bioenergy"])
    total, final, saturated, by_crop = _final_columns(removable, feed, bagasse, attributed)
    return {
        **{f"cr_total_{c}_t": cr_total[c] for c in CROPS},
        **{f"cr_removable_dry_{c}_t": removable[c] for c in CROPS},
        "cr_removable_dry_t": total,
        "feed_bedding_use_t": feed,
        "bagasse_bioenergy_use_t": bagasse,
        "other_bioenergy_attributed_t": attributed,
        "cr_final_t": final,
        "use_saturated": saturated,
    }, by_crop


def assess_country(dataset: Dataset, profile: CountryProfile, dmr: dict) -> ResidueAssessment:
    """Full residue assessment for one country.

    ``dmr`` carries the resolved dry matter fraction per crop (see
    ``dataio.resolve``); everything else comes from the profile.
    """
    inputs = {key: [profile.values[key] or 0.0] for key in INPUT_KEYS}
    inputs.update({f"dmr_{c}": [dmr[c]] for c in CROPS})
    columns, by_crop = assess_columns(dataset.crops, dataset.livestock_rates, inputs)
    return ResidueAssessment(
        country=profile.name,
        cr_total={c: columns[f"cr_total_{c}_t"][0] for c in CROPS},
        cr_removable_dry={c: columns[f"cr_removable_dry_{c}_t"][0] for c in CROPS},
        feed_bedding_use=columns["feed_bedding_use_t"][0],
        bioenergy_use_bagasse=columns["bagasse_bioenergy_use_t"][0],
        bioenergy_use_other_attributed=columns["other_bioenergy_attributed_t"][0],
        cr_final=columns["cr_final_t"][0],
        cr_final_by_crop={c: by_crop[c][0] for c in CROPS},
        use_saturated=columns["use_saturated"][0],
    )
