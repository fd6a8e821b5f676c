"""Residue accounting, one row per country: gross residue, removable dry
tonnage, competing uses, and the tonnage left over for pelletization."""

from __future__ import annotations

from itertools import repeat

from .dataio import CROPS, add_rows

# Share of "other vegetal" bioenergy attributed to maize/rice/wheat residues:
# cereals are 31.3% of primary crop output and these three are 91% of cereals.
CEREAL_SHARE = 0.313
BIG_THREE_CEREAL_SHARE = 0.91
OTHER_BIOENERGY_ATTRIBUTION = CEREAL_SHARE * BIG_THREE_CEREAL_SHARE

DAYS_PER_YEAR = 365.0
# Residue used per head for feed and bedding, kg/day, in ANIMALS order.
LIVESTOCK_RATES = {"cattle": 0.375, "horses": 1.500, "sheep": 0.100, "swine": 0.063}


def total_residue(production: float, rtp: float) -> float:
    """Gross residue tonnage from production and the residue-to-production ratio."""
    return production * rtp


def removable_dry_residue(cr_total: float, srr: float, dmr: float) -> float:
    """Dry tonnage that can leave the field without degrading soil."""
    return cr_total * srr * dmr


# The assess stage's residue columns, in output order.
RESIDUE_COLUMNS = (
    *(f"cr_total_{c}_t" for c in CROPS), *(f"cr_removable_dry_{c}_t" for c in CROPS),
    "cr_removable_dry_t", "feed_bedding_use_t", "bagasse_bioenergy_use_t",
    "other_bioenergy_attributed_t", "cr_final_t", "use_saturated",
)


def assess_columns(crops: dict, inputs: dict) -> tuple:
    """The assess stage's residue columns, and each row's final tonnage per crop.

    ``inputs`` holds one list per key, a row per country: the amounts
    ``prod_<crop>``, the head count of each animal, ``bagasse_bioenergy`` and
    ``other_bioenergy`` (a missing value read as 0.0) and the resolved
    ``dmr_<crop>``.  Returns the ``RESIDUE_COLUMNS`` and ``{crop: list}`` of
    the final tonnage split.

    Competing uses (the herd's feed and bedding, bagasse bioenergy and the
    attributed share of other vegetal bioenergy) are subtracted from each
    row's removable pool at the country aggregate, clamping at zero; the
    per-crop final split is pro rata to each crop's removable share (needed
    downstream only for the heating-value weighting).
    """
    cr_total = [list(map(total_residue, inputs[f"prod_{c}"], repeat(crops[c].rtp)))
                for c in CROPS]
    removable = [list(map(removable_dry_residue, col, repeat(crops[c].srr), inputs[f"dmr_{c}"]))
                 for c, col in zip(CROPS, cr_total)]
    demand = ([n * rate * DAYS_PER_YEAR / 1000.0 for n in inputs[a]]
              for a, rate in LIVESTOCK_RATES.items())
    feed = add_rows(demand)
    bagasse = inputs["bagasse_bioenergy"]
    attributed = [o * OTHER_BIOENERGY_ATTRIBUTION for o in inputs["other_bioenergy"]]
    total = add_rows(removable)
    final = [max(0.0, t - (f + b + a)) for t, f, b, a in zip(total, feed, bagasse, attributed)]
    saturated = [t > 0 and c == 0.0 for t, c in zip(total, final)]
    by_crop = {c: [f * r / t if f > 0 and t > 0 else 0.0 for f, r, t in zip(final, col, total)]
               for c, col in zip(CROPS, removable)}
    values = (*cr_total, *removable, total, feed, bagasse, attributed, final, saturated)
    return dict(zip(RESIDUE_COLUMNS, values, strict=True)), by_crop
