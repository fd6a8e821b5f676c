import random

import pytest

from agripellet.dataio import CROPS, CropCoefficients, default_crops
from agripellet.energy import energy_columns
from conftest import assess_row, one_row

CROP_TABLE = default_crops()


def weighted_lhv(shares):
    """The heating value ``energy_columns`` weights from one country's final
    tonnage per crop."""
    return energy_columns({c: [shares[c]] for c in CROPS}, [0.0], CROP_TABLE,
                          1.0)["weighted_lhv_mj_per_kg"][0]


def pellet_row(cr_final, lhv, efficiency):
    """``energy_columns`` on one country whose final residue all has heating value ``lhv``."""
    crops = {c: CropCoefficients(1.0, 1.0, 1.0, lhv) for c in CROPS}
    shares = {c: [1.0 if c == CROPS[0] else 0.0] for c in CROPS}
    return one_row(energy_columns(shares, [cr_final], crops, efficiency))


def energy_row(removable, uses, efficiency):
    """One country's final residue (``removable`` dry tonnage per crop less
    ``uses``) and the pellet energy of it."""
    assessed, by_crop = assess_row(production=removable, bagasse=uses)
    energy = energy_columns({c: [by_crop[c]] for c in CROPS}, [assessed["cr_final_t"]],
                            CROP_TABLE, efficiency)
    return assessed, one_row(energy)


def test_weighted_lhv_single_crop():
    shares = {"maize": 0.0, "rice": 2.5e6, "sugarcane": 0.0, "wheat": 0.0}
    assert weighted_lhv(shares) == 14.6


def test_weighted_lhv_equal_values():
    shares = {"maize": 1e6, "rice": 0.0, "sugarcane": 1e6, "wheat": 0.0}
    assert weighted_lhv(shares) == pytest.approx(17.3)


def test_weighted_lhv_mean_of_two():
    shares = {"maize": 0.0, "rice": 1e6, "sugarcane": 0.0, "wheat": 1e6}
    assert weighted_lhv(shares) == pytest.approx(15.9)


def test_weighted_lhv_bounds():
    rng = random.Random(3)
    lhvs = [CROP_TABLE[c].lhv for c in CROPS]
    for _ in range(100):
        shares = {c: rng.uniform(0, 1e7) for c in CROPS}
        w = weighted_lhv(shares)
        present = [CROP_TABLE[c].lhv for c in CROPS if shares[c] > 0]
        assert min(present) <= w <= max(present)
        assert min(lhvs) <= w <= max(lhvs)


def test_weighted_lhv_no_residue():
    assert weighted_lhv({c: 0.0 for c in CROPS}) is None


def test_pellet_energy_rice_unit_conversion():
    # 1 Mt of rice residue at 14.6 MJ/kg with no losses -> 14,600 TJ
    pe = pellet_row(1_000_000.0, 14.6, 1.0)
    assert pe["weighted_lhv_mj_per_kg"] == 14.6
    assert pe["pellet_energy_tj"] == pytest.approx(14_600.0)
    assert pe["pellet_mass_t"] == 1_000_000.0


def test_pellet_energy_zero():
    pe = pellet_row(0.0, 16.0, 0.95)
    assert pe["pellet_energy_tj"] == 0.0
    assert pe["pellet_mass_t"] == 0.0


def test_pellet_energy_identity_invariant():
    rng = random.Random(5)
    for _ in range(100):
        mass_in = rng.uniform(0, 1e8)
        lhv = rng.uniform(10, 20)
        eff = rng.uniform(0.5, 1.0)
        pe = pellet_row(mass_in, lhv, eff)
        assert pe["weighted_lhv_mj_per_kg"] == lhv
        assert pe["pellet_energy_tj"] == pytest.approx(pe["pellet_mass_t"] * lhv * 1e-3,
                                                       rel=1e-15)


def test_energy_homogeneity():
    rng = random.Random(9)
    shares = {c: rng.uniform(1e5, 1e7) for c in CROPS}
    removable = dict(shares)
    _, e1 = energy_row(removable, 0.0, 0.95)
    _, e2 = energy_row({c: 2 * v for c, v in removable.items()}, 0.0, 0.95)
    assert e2["weighted_lhv_mj_per_kg"] == pytest.approx(e1["weighted_lhv_mj_per_kg"],
                                                         rel=1e-12)
    assert e2["pellet_energy_tj"] == pytest.approx(2 * e1["pellet_energy_tj"], rel=1e-12)


def test_energy_upper_bound():
    rng = random.Random(13)
    max_lhv = max(CROP_TABLE[c].lhv for c in CROPS)
    for _ in range(50):
        removable = {c: rng.uniform(0, 1e7) for c in CROPS}
        uses = rng.uniform(0, 5e6)
        a, e = energy_row(removable, uses, rng.uniform(0.5, 1.0))
        assert e["pellet_energy_tj"] <= a["cr_final_t"] * max_lhv * 1e-3 + 1e-9


def test_energy_for_no_residue_maps_to_zero():
    _, e = energy_row(dict.fromkeys(CROPS, 0.0), 0.0, 0.95)
    assert e["weighted_lhv_mj_per_kg"] is None
    assert e["pellet_mass_t"] == 0.0
    assert e["pellet_energy_tj"] == 0.0
