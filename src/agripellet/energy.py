"""Pellet energy potential from final residue tonnage and crop heating values."""

from __future__ import annotations

from typing import NamedTuple

from .dataio import CROPS
from .residues import ResidueAssessment


class EnergyPotential(NamedTuple):
    weighted_lhv: float | None  # MJ/kg, None when there is no residue at all
    pellet_mass: float          # t/y surviving pelletization
    pellet_energy: float        # TJ/y


def weighted_lhv(shares: dict, crops: dict) -> float | None:
    """Mean crop heating value (MJ/kg) weighted by each crop's tonnage share.

    None when every share is zero: there is no residue to weight.
    """
    total = sum(shares.get(c, 0.0) for c in CROPS)
    if total <= 0:
        return None
    return sum(shares.get(c, 0.0) * crops[c].lhv for c in CROPS) / total


def pellet_energy(cr_final: float, lhv: float, efficiency: float) -> EnergyPotential:
    """Deliverable pellet mass and energy after pelletization losses.

    Mass in tons and LHV in MJ/kg make mass*lhv GJ/y; the 1e-3 factor yields TJ/y.
    """
    mass = cr_final * efficiency
    return EnergyPotential(
        weighted_lhv=lhv,
        pellet_mass=mass,
        pellet_energy=mass * lhv * 1e-3,
    )


def energy_for(assessment: ResidueAssessment, crops: dict, efficiency: float) -> EnergyPotential:
    """EnergyPotential for one assessed country; no residue maps to zero energy."""
    lhv = weighted_lhv(assessment.cr_final_by_crop, crops)
    if lhv is None:
        return EnergyPotential(weighted_lhv=None, pellet_mass=0.0, pellet_energy=0.0)
    return pellet_energy(assessment.cr_final, lhv, efficiency)
