"""Pellet energy potential, one row per country, from the final residue
tonnage and the crop heating values."""

from __future__ import annotations

import math

from .dataio import CROPS, add_rows


def per_tj(value: float, lhv: float) -> float:
    """A per-ton quantity as per TJ, for a heating value in MJ/kg.

    A ton at ``lhv`` MJ/kg holds ``lhv * 1e-3`` TJ.  A heating value so small
    that this rounds to zero gives infinity, a non-finite value the pipeline
    rejects like any other.
    """
    tj_per_t = lhv * 1e-3
    return value / tj_per_t if tj_per_t else math.inf


def energy_columns(by_crop: dict, cr_final: list, crops: dict, efficiency: float) -> dict:
    """The assess stage's energy columns, ``weighted_lhv_mj_per_kg``,
    ``pellet_mass_t`` and ``pellet_energy_tj``, from each row's final tonnage
    ``cr_final`` and its split ``by_crop`` (crop -> list).

    The heating value is each row's crop heating values weighted by its
    per-crop tonnage, None for a row without residue.  The pellet mass and
    energy are what survives pelletization, zero for a row without a heating
    value; mass in tons and LHV in MJ/kg make mass*lhv GJ/y, and the 1e-3
    factor yields TJ/y.
    """
    totals = add_rows(by_crop[c] for c in CROPS)
    weighted = add_rows([s * crops[c].lhv for s in by_crop[c]] for c in CROPS)
    lhv = [None if total <= 0 else w / total for total, w in zip(totals, weighted)]
    mass = [0.0 if w is None else c * efficiency for c, w in zip(cr_final, lhv)]
    return {
        "weighted_lhv_mj_per_kg": lhv,
        "pellet_mass_t": mass,
        "pellet_energy_tj": [0.0 if w is None else m * w * 1e-3 for m, w in zip(mass, lhv)],
    }
