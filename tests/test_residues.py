import random

import pytest

from agripellet.dataio import CROPS, default_crops
from agripellet.pipeline import run_pipeline
from agripellet.residues import OTHER_BIOENERGY_ATTRIBUTION, removable_dry_residue, total_residue
from conftest import assess_row, make_dataset, make_profile
from oracles import reports


def test_total_residue_wheat_anchor():
    # 3.90 Mt wheat production at ratio 1.30
    assert total_residue(3.90e6, 1.30) == pytest.approx(5.07e6)


def test_total_residue_zero_production():
    assert total_residue(0.0, 1.3) == 0.0


def test_total_residue_identity_ratio():
    assert total_residue(12.75e6, 1.00) == 12.75e6


def test_total_residue_linear():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.uniform(0, 1e8)
        k = rng.uniform(0, 10)
        assert total_residue(k * p, 1.4) == pytest.approx(k * total_residue(p, 1.4), rel=1e-12)


def test_removable_dry_wheat_anchor():
    # 5.07 Mt gross wheat residue, 40% removable, 86.27% dry matter
    assert removable_dry_residue(5.07e6, 0.40, 0.8627) == pytest.approx(1_749_555.6, abs=1.0)


def test_removable_dry_identity():
    assert removable_dry_residue(123.0, 1.0, 1.0) == 123.0


def test_feed_bedding_afghanistan_anchor():
    # cattle 5.12M, horses 0.02M, sheep 13.53M: 700,800 + 10,950 + 493,845
    livestock = {"cattle": 5.12e6, "horses": 0.02e6, "sheep": 13.53e6, "swine": None}
    row, _ = assess_row(livestock=livestock)
    assert row["feed_bedding_use_t"] == pytest.approx(1_205_595.0)


def test_feed_bedding_zero():
    livestock = {a: 0.0 for a in ("cattle", "horses", "sheep", "swine")}
    row, _ = assess_row(livestock=livestock)
    assert row["feed_bedding_use_t"] == 0.0


def bioenergy_row(bagasse, other):
    """(bagasse passthrough, share of other vegetal bioenergy attributed here)."""
    row, _ = assess_row(bagasse=bagasse, other=other)
    return row["bagasse_bioenergy_use_t"], row["other_bioenergy_attributed_t"]


def test_bioenergy_attribution():
    bagasse, attributed = bioenergy_row(0.0, 1_000_000.0)
    assert bagasse == 0.0
    assert attributed == pytest.approx(284_830.0, rel=1e-12)
    assert OTHER_BIOENERGY_ATTRIBUTION == pytest.approx(0.28483, rel=1e-12)


def test_bioenergy_bagasse_passthrough():
    assert bioenergy_row(500.0, 0.0) == (500.0, 0.0)
    assert bioenergy_row(0.0, 0.0) == (0.0, 0.0)


def final_row(removable, uses):
    """One country with ``removable`` dry tonnage per crop and ``uses`` t/y
    of competing uses, entered as bagasse bioenergy (which passes through
    unchanged): its residue columns and final tonnage per crop."""
    return assess_row(production=removable, bagasse=uses)


def test_final_residue_simple_subtraction():
    removable = {"maize": 4e6, "rice": 3e6, "sugarcane": 2e6, "wheat": 1e6}
    # feed 2 Mt, bagasse 0.5 Mt and attributed other bioenergy 0.5 Mt
    a, by_crop = final_row(removable, 2e6 + 0.5e6 + 0.5e6)
    assert a["cr_final_t"] == 7e6
    assert not a["use_saturated"]
    assert sum(by_crop.values()) == pytest.approx(7e6)
    # pro rata split follows removable shares
    assert by_crop["maize"] == pytest.approx(7e6 * 0.4)


def test_final_residue_under_one_ton_is_split():
    """A country with 1 t of removable residue and 0.5 t left after its uses:
    the split is pro rata, not zero, at tonnages in (0, 1]."""
    a, by_crop = final_row({"maize": 0.75, "rice": 0.25, "sugarcane": 0.0, "wheat": 0.0}, 0.5)
    assert (a["cr_removable_dry_t"], a["cr_final_t"]) == (1.0, 0.5)
    assert by_crop == {"maize": 0.375, "rice": 0.125, "sugarcane": 0.0, "wheat": 0.0}


def test_final_residue_clamped_and_flagged():
    removable = {"maize": 1e6, "rice": 0.0, "sugarcane": 0.0, "wheat": 0.0}
    a, by_crop = final_row(removable, 2e6)
    assert a["cr_final_t"] == 0.0
    assert a["use_saturated"]
    assert all(v == 0.0 for v in by_crop.values())


def test_final_residue_no_residue_not_flagged():
    a, _ = final_row(dict.fromkeys(CROPS, 0.0), 0.0)
    assert a["cr_final_t"] == 0.0
    assert not a["use_saturated"]


def test_more_use_never_raises_final():
    rng = random.Random(11)
    removable = {c: rng.uniform(0, 5e6) for c in CROPS}
    last = None
    for feed in [0.0, 1e6, 3e6, 8e6, 2e7]:
        a, _ = final_row(removable, feed)
        assert a["cr_final_t"] >= 0.0
        if last is not None:
            assert a["cr_final_t"] <= last
        last = a["cr_final_t"]


def test_assessment_invariants_random():
    rng = random.Random(23)
    for _ in range(200):
        prod = {c: rng.uniform(0, 5e7) for c in CROPS}
        livestock = {a: rng.uniform(0, 2e7) for a in ("cattle", "horses", "sheep", "swine")}
        a, _ = assess_row(default_crops(), production=prod, livestock=livestock,
                          bagasse=rng.uniform(0, 5e6), other=rng.uniform(0, 5e6))
        for c in CROPS:
            assert 0.0 <= a[f"cr_removable_dry_{c}_t"] <= a[f"cr_total_{c}_t"] + 1e-9
        assert a["cr_final_t"] >= 0.0
        assert a["cr_final_t"] <= a["cr_removable_dry_t"] + 1e-6


def test_brute_force_equivalence_ten_countries():
    """Pipeline output equals a straight-line recomputation of the residue math."""
    rng = random.Random(42)
    rtp = {"maize": 1.00, "rice": 1.40, "sugarcane": 1.00, "wheat": 1.30}
    srr = {"maize": 0.50, "rice": 0.60, "sugarcane": 0.875, "wheat": 0.40}
    rates = {"cattle": 0.375, "horses": 1.500, "sheep": 0.100, "swine": 0.063}
    profiles = []
    for i in range(10):
        profiles.append(make_profile(
            name=f"Synth{i:02d}",
            production={c: rng.uniform(0, 3e7) for c in CROPS},
            dmr={c: rng.uniform(0.3, 0.95) for c in CROPS},
            livestock={a: rng.uniform(0, 1e7) for a in rates},
            bagasse=rng.uniform(0, 2e6),
            other=rng.uniform(0, 6e6),
        ))
    ds = make_dataset(profiles)
    result = run_pipeline(ds, through="assess")
    assert not result.errors
    for report, p in zip(reports(result), sorted(profiles, key=lambda x: x.name)):
        removable_sum = 0.0
        for c in CROPS:
            gross = p.values[f"prod_{c}"] * rtp[c]
            assert report.values[f"cr_total_{c}_t"] == pytest.approx(gross, rel=1e-9)
            removable = gross * srr[c] * p.values[f"dmr_{c}"]
            assert report.values[f"cr_removable_dry_{c}_t"] == pytest.approx(removable, rel=1e-9)
            removable_sum += removable
        feed = sum(p.values[a] * rates[a] * 365.0 / 1000.0 for a in rates)
        uses = feed + p.values["bagasse_bioenergy"] + p.values["other_bioenergy"] * 0.313 * 0.91
        expected_final = max(0.0, removable_sum - uses)
        assert report.values["cr_final_t"] == pytest.approx(expected_final, rel=1e-9)


def test_world_feed_use_near_reported_total(dataset):
    result = run_pipeline(dataset, through="assess")
    total_feed = sum(r.values["feed_bedding_use_t"] for r in reports(result))
    assert total_feed == pytest.approx(311.4e6, rel=0.03)


def test_world_removable_consistency(dataset):
    result = run_pipeline(dataset, through="assess")
    removable = sum(r.values["cr_removable_dry_t"] for r in reports(result))
    assert removable == pytest.approx(2.09e9, rel=0.02)
