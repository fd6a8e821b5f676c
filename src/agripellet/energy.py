"""Pellet energy potential from final residue tonnage and crop heating values."""

from __future__ import annotations

import math
from typing import NamedTuple

from .dataio import CROPS
from .residues import ResidueAssessment


class EnergyPotential(NamedTuple):
    weighted_lhv: float | None  # MJ/kg, None when there is no residue at all
    pellet_mass: float          # t/y surviving pelletization
    pellet_energy: float        # TJ/y


def per_tj(value: float, lhv: float) -> float:
    """A per-ton quantity as per TJ, for a heating value in MJ/kg.

    A ton at ``lhv`` MJ/kg holds ``lhv * 1e-3`` TJ.  A heating value so small
    that this rounds to zero gives infinity, a non-finite value the pipeline
    rejects like any other.
    """
    tj_per_t = lhv * 1e-3
    return value / tj_per_t if tj_per_t else math.inf


def _weighted_lhv(shares: dict, crops: dict) -> list:
    """Each row's mean crop heating value weighted by its per-crop tonnage
    (``shares``: crop -> list), None for a row without residue."""
    totals = map(sum, zip(*(shares[c] for c in CROPS)))
    weighted = map(sum, zip(*([s * crops[c].lhv for s in shares[c]] for c in CROPS)))
    return [None if total <= 0 else w / total for total, w in zip(totals, weighted)]


def _pellet_columns(cr_final: list, lhv: list, efficiency: float) -> dict:
    """Deliverable pellet mass and energy after pelletization losses; zero
    for a row without a heating value.

    Mass in tons and LHV in MJ/kg make mass*lhv GJ/y; the 1e-3 factor yields TJ/y.
    """
    mass = [0.0 if w is None else c * efficiency for c, w in zip(cr_final, lhv)]
    return {
        "weighted_lhv_mj_per_kg": lhv,
        "pellet_mass_t": mass,
        "pellet_energy_tj": [0.0 if w is None else m * w * 1e-3 for m, w in zip(mass, lhv)],
    }


def energy_columns(by_crop: dict, cr_final: list, crops: dict, efficiency: float) -> dict:
    """The assess stage's energy columns, ``weighted_lhv_mj_per_kg``,
    ``pellet_mass_t`` and ``pellet_energy_tj``, from each row's final tonnage
    ``cr_final`` and its split ``by_crop`` (crop -> list)."""
    return _pellet_columns(cr_final, _weighted_lhv(by_crop, crops), efficiency)


def weighted_lhv(shares: dict, crops: dict) -> float | None:
    """Mean crop heating value (MJ/kg) weighted by each crop's tonnage share.

    None when every share is zero: there is no residue to weight.
    """
    return _weighted_lhv({c: [shares.get(c, 0.0)] for c in CROPS}, crops)[0]


def pellet_energy(cr_final: float, lhv: float, efficiency: float) -> EnergyPotential:
    """Deliverable pellet mass and energy of one country's final tonnage."""
    return EnergyPotential(*(col[0] for col in _pellet_columns([cr_final], [lhv],
                                                                efficiency).values()))


def energy_for(assessment: ResidueAssessment, crops: dict, efficiency: float) -> EnergyPotential:
    """EnergyPotential for one assessed country; no residue maps to zero energy."""
    by_crop = {c: [assessment.cr_final_by_crop[c]] for c in CROPS}
    columns = energy_columns(by_crop, [assessment.cr_final], crops, efficiency)
    return EnergyPotential(*(col[0] for col in columns.values()))
