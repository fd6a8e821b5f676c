import random

import pytest

from agripellet.dataio import CROPS, default_crops
from agripellet.energy import energy_for, pellet_energy, weighted_lhv
from agripellet.residues import final_residue

CROP_TABLE = default_crops()


def test_weighted_lhv_single_crop():
    shares = {"maize": 0.0, "rice": 2.5e6, "sugarcane": 0.0, "wheat": 0.0}
    assert weighted_lhv(shares, CROP_TABLE) == 14.6


def test_weighted_lhv_equal_values():
    shares = {"maize": 1e6, "rice": 0.0, "sugarcane": 1e6, "wheat": 0.0}
    assert weighted_lhv(shares, CROP_TABLE) == pytest.approx(17.3)


def test_weighted_lhv_mean_of_two():
    shares = {"maize": 0.0, "rice": 1e6, "sugarcane": 0.0, "wheat": 1e6}
    assert weighted_lhv(shares, CROP_TABLE) == pytest.approx(15.9)


def test_weighted_lhv_bounds():
    rng = random.Random(3)
    lhvs = [CROP_TABLE[c].lhv for c in CROPS]
    for _ in range(100):
        shares = {c: rng.uniform(0, 1e7) for c in CROPS}
        w = weighted_lhv(shares, CROP_TABLE)
        present = [CROP_TABLE[c].lhv for c in CROPS if shares[c] > 0]
        assert min(present) <= w <= max(present)
        assert min(lhvs) <= w <= max(lhvs)


def test_weighted_lhv_no_residue():
    assert weighted_lhv({c: 0.0 for c in CROPS}, CROP_TABLE) is None


def test_pellet_energy_rice_unit_conversion():
    # 1 Mt of rice residue at 14.6 MJ/kg with no losses -> 14,600 TJ
    pe = pellet_energy(1_000_000.0, 14.6, 1.0)
    assert pe.pellet_energy == pytest.approx(14_600.0)
    assert pe.pellet_mass == 1_000_000.0


def test_pellet_energy_zero():
    pe = pellet_energy(0.0, 16.0, 0.95)
    assert pe.pellet_energy == 0.0
    assert pe.pellet_mass == 0.0


def test_pellet_energy_identity_invariant():
    rng = random.Random(5)
    for _ in range(100):
        mass_in = rng.uniform(0, 1e8)
        lhv = rng.uniform(10, 20)
        eff = rng.uniform(0.5, 1.0)
        pe = pellet_energy(mass_in, lhv, eff)
        assert pe.pellet_energy == pytest.approx(pe.pellet_mass * lhv * 1e-3, rel=1e-15)


def test_energy_homogeneity():
    rng = random.Random(9)
    shares = {c: rng.uniform(1e5, 1e7) for c in CROPS}
    removable = dict(shares)
    a1 = final_residue("X", dict.fromkeys(CROPS, 0.0), removable, 0.0, 0.0, 0.0)
    a2 = final_residue("X", dict.fromkeys(CROPS, 0.0),
                       {c: 2 * v for c, v in removable.items()}, 0.0, 0.0, 0.0)
    e1 = energy_for(a1, CROP_TABLE, 0.95)
    e2 = energy_for(a2, CROP_TABLE, 0.95)
    assert e2.weighted_lhv == pytest.approx(e1.weighted_lhv, rel=1e-12)
    assert e2.pellet_energy == pytest.approx(2 * e1.pellet_energy, rel=1e-12)


def test_energy_upper_bound():
    rng = random.Random(13)
    max_lhv = max(CROP_TABLE[c].lhv for c in CROPS)
    for _ in range(50):
        removable = {c: rng.uniform(0, 1e7) for c in CROPS}
        a = final_residue("X", dict.fromkeys(CROPS, 0.0), removable,
                          rng.uniform(0, 5e6), 0.0, 0.0)
        e = energy_for(a, CROP_TABLE, rng.uniform(0.5, 1.0))
        assert e.pellet_energy <= a.cr_final * max_lhv * 1e-3 + 1e-9


def test_energy_for_no_residue_maps_to_zero():
    a = final_residue("X", dict.fromkeys(CROPS, 0.0), dict.fromkeys(CROPS, 0.0), 0.0, 0.0, 0.0)
    e = energy_for(a, CROP_TABLE, 0.95)
    assert e.weighted_lhv is None
    assert e.pellet_mass == 0.0
    assert e.pellet_energy == 0.0
