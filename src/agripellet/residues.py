"""Per-country residue accounting: gross residue, removable dry tonnage,
competing uses, and the tonnage left over for pelletization."""

from __future__ import annotations

from typing import NamedTuple

from .dataio import ANIMALS, CROPS, CountryProfile, Dataset, LivestockRates

# Share of "other vegetal" bioenergy attributed to maize/rice/wheat residues:
# cereals are 31.3% of primary crop output and these three are 91% of cereals.
CEREAL_SHARE = 0.313
BIG_THREE_CEREAL_SHARE = 0.91
OTHER_BIOENERGY_ATTRIBUTION = CEREAL_SHARE * BIG_THREE_CEREAL_SHARE

DAYS_PER_YEAR = 365.0


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


def feed_bedding_use(livestock: dict, rates: LivestockRates) -> float:
    """Annual residue demand (t/y) of the reported livestock herd.

    ``livestock`` maps each animal to its head count or None, as a
    ``CountryProfile.values`` does.
    """
    return sum(
        (livestock[a] or 0.0) * rates.rate(a) * DAYS_PER_YEAR / 1000.0
        for a in ANIMALS
    )


def bioenergy_use(bagasse: float, other: float) -> tuple:
    """(bagasse passthrough, share of other vegetal bioenergy attributed here)."""
    return bagasse, other * OTHER_BIOENERGY_ATTRIBUTION


def final_residue(country: str, cr_total: dict, cr_removable_dry: dict,
                  feed_bedding: float, bagasse_use: float, attributed_other: float,
                  ) -> ResidueAssessment:
    """Subtract competing uses from the removable pool, clamping at zero.

    Uses are subtracted at the country aggregate; the per-crop final split is
    pro rata to each crop's removable share (needed downstream only for the
    heating-value weighting).
    """
    removable = sum(cr_removable_dry.values())
    uses = feed_bedding + bagasse_use + attributed_other
    cr_final = max(0.0, removable - uses)
    saturated = removable > 0 and cr_final == 0.0
    if cr_final > 0 and removable > 0:
        by_crop = {c: cr_final * cr_removable_dry[c] / removable for c in CROPS}
    else:
        by_crop = {c: 0.0 for c in CROPS}
    return ResidueAssessment(
        country=country,
        cr_total=cr_total,
        cr_removable_dry=cr_removable_dry,
        feed_bedding_use=feed_bedding,
        bioenergy_use_bagasse=bagasse_use,
        bioenergy_use_other_attributed=attributed_other,
        cr_final=cr_final,
        cr_final_by_crop=by_crop,
        use_saturated=saturated,
    )


def assess_country(dataset: Dataset, profile: CountryProfile, dmr: dict) -> ResidueAssessment:
    """Full residue assessment for one country.

    ``dmr`` carries the resolved dry matter fraction per crop (see
    ``dataio.resolve``); everything else comes from the profile.
    """
    cr_total = {c: total_residue(profile.amount(f"prod_{c}"), dataset.crops[c].rtp)
                for c in CROPS}
    cr_removable = {
        c: removable_dry_residue(cr_total[c], dataset.crops[c].srr, dmr[c])
        for c in CROPS
    }
    feed = feed_bedding_use(profile.values, dataset.livestock_rates)
    bagasse_use, attributed = bioenergy_use(
        profile.amount("bagasse_bioenergy"), profile.amount("other_bioenergy")
    )
    return final_residue(profile.name, cr_total, cr_removable, feed, bagasse_use, attributed)
