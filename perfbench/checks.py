"""Output checks run after every timed run.

Each check reads the files the CLI wrote and returns a list of problems; an
empty list means the outputs are correct.  Tolerances are fixed here and are
the same on every workload and seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REL_TOL = 1e-9
# The paper's global final residue (t/y) and the tolerance it is quoted with.
PAPER_CR_FINAL = 1.44e9
PAPER_CR_FINAL_REL = 0.03
NPV_TOL_USD = 0.01
# Named alike in global.json's "global" object and as countries.csv columns.
TOTAL_KEYS = ("cr_final_t", "pellet_energy_tj", "s_ec_usd_per_y", "s_em_kgco2e_per_y")
FUELS = ("coal", "oil", "natural_gas")
CONSUMPTION_COLUMN = {"coal": "cons_coal_tj", "oil": "cons_oil_tj",
                      "natural_gas": "cons_gas_tj"}
MAX_PROBLEMS = 10


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def read_rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def output_digest(out_dir: Path) -> dict:
    """SHA-256 of every file the run wrote, for the byte-identity check."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _report_basics(out_dir: Path, expected: int, problems: list) -> tuple:
    """Shared report checks; returns (global.json payload, countries.csv rows)."""
    errors = (out_dir / "errors.txt").read_text(encoding="utf-8")
    if errors:
        problems.append(f"errors.txt lists {len(errors.splitlines())} failed countries")
    payload = json.loads((out_dir / "global.json").read_text(encoding="utf-8"))
    rows = read_rows(out_dir / "countries.csv")
    evaluated = payload["global"]["countries_evaluated"]
    if evaluated != expected or len(rows) != expected:
        problems.append(f"expected {expected} countries, global.json has {evaluated}, "
                        f"countries.csv has {len(rows)}")
    return payload, rows


def bundle_reference(out_dir: Path) -> dict:
    """Totals and per-country MSP of a report on the bundled countries."""
    payload = json.loads((out_dir / "global.json").read_text(encoding="utf-8"))
    return {
        "totals": {key: payload["global"][key] for key in TOTAL_KEYS},
        "msp": {r["country"]: float(r["msp_usd_per_t"])
                for r in read_rows(out_dir / "countries.csv")},
    }


def check_bundle_reference(reference: dict) -> list:
    total = reference["totals"]["cr_final_t"]
    if abs(total - PAPER_CR_FINAL) > PAPER_CR_FINAL_REL * PAPER_CR_FINAL:
        return [f"bundled cr_final {total:.4e} t/y is outside 1.44 Gt +/- 3%"]
    return []


def check_sparse(out_dir: Path, factors: list, reference: dict) -> list:
    """Scaled copies: totals are sum(s_j) x bundled totals, MSP unchanged per copy."""
    problems = []
    payload, rows = _report_basics(out_dir, len(factors) * len(reference["msp"]), problems)
    scale = sum(factors)
    for key in TOTAL_KEYS:
        got = payload["global"][key]
        want = scale * reference["totals"][key]
        if not close(got, want):
            problems.append(f"global {key} {got!r} != sum(s_j) x bundled = {want!r}")
    for r in rows:
        base = r["country"].rsplit(" #", 1)[0]
        want = reference["msp"].get(base)
        got = float(r["msp_usd_per_t"])
        if want is None or not close(got, want):
            problems.append(f"{r['country']}: msp {got!r} != bundled {base} msp {want!r}")
    return problems[:MAX_PROBLEMS]


def check_dense(out_dir: Path, consumption: dict) -> list:
    """Per-country conservation, caps, ranges, NPV; global totals = column sums."""
    problems = []
    payload, rows = _report_basics(out_dir, len(consumption), problems)
    for r in rows:
        name = r["country"]
        if abs(float(r["npv_at_msp_usd"])) > NPV_TOL_USD:
            problems.append(f"{name}: |npv_at_msp_usd| {r['npv_at_msp_usd']} > 0.01")
        if r["unused_pellet_tj"] == "":
            continue  # no residue, so no plan to check
        energy = float(r["pellet_energy_tj"])
        alloc = {f: float(r[f"alloc_{f}_tj"]) for f in FUELS}
        if abs(sum(alloc.values()) + float(r["unused_pellet_tj"]) - energy) \
                > REL_TOL * max(energy, 1.0):
            problems.append(f"{name}: allocation + unused != pellet energy {energy!r}")
        for f in FUELS:
            if alloc[f] > consumption[name][CONSUMPTION_COLUMN[f]]:
                problems.append(f"{name}: {f} allocation {alloc[f]!r} exceeds consumption")
        for col in [f"replaced_{f}_frac" for f in FUELS] + ["replaced_overall_frac"]:
            if not 0.0 <= float(r[col]) <= 1.0:
                problems.append(f"{name}: {col} {r[col]} outside [0, 1]")
    for key in TOTAL_KEYS:
        column_sum = sum(v for v in (_num(r[key]) for r in rows) if v is not None)
        if not close(payload["global"][key], column_sum):
            problems.append(f"global {key} {payload['global'][key]!r} != "
                            f"countries.csv column sum {column_sum!r}")
    return problems[:MAX_PROBLEMS]


def check_sweep(out_dir: Path, config: dict) -> list:
    """Grid monotone in both axes, s_em constant, s_ec affine in (m, p)."""
    ms = config["fossil_multipliers"]
    ps = config["pellet_prices"]
    rows = read_rows(out_dir / "sensitivity_long.csv")
    cells = {(float(r["fossil_multiplier"]), float(r["pellet_price_usd_t"])):
             (float(r["s_ec_usd_per_y"]), float(r["s_em_kgco2e_per_y"])) for r in rows}
    if set(cells) != {(m, p) for m in ms for p in ps} or len(rows) != len(cells):
        return [f"sensitivity_long.csv does not hold exactly the {len(ms)}x{len(ps)} grid"]
    problems = []
    ec = {k: v[0] for k, v in cells.items()}
    em = {k: v[1] for k, v in cells.items()}
    for p in ps:
        for m0, m1 in zip(ms, ms[1:]):
            if not ec[(m1, p)] > ec[(m0, p)]:
                problems.append(f"s_ec does not rise from m={m0} to m={m1} at p={p}")
    for m in ms:
        for p0, p1 in zip(ps, ps[1:]):
            if not ec[(m, p1)] < ec[(m, p0)]:
                problems.append(f"s_ec does not fall from p={p0} to p={p1} at m={m}")
    first = em[(ms[0], ps[0])]
    if not all(close(v, first) for v in em.values()):
        problems.append("s_em differs between grid cells")
    # affine: s_ec(m, p) = s00 + a (m - m0) + b (p - p0), fitted on the corners
    s00 = ec[(ms[0], ps[0])]
    a = (ec[(ms[-1], ps[0])] - s00) / (ms[-1] - ms[0])
    b = (ec[(ms[0], ps[-1])] - s00) / (ps[-1] - ps[0])
    scale = max(abs(v) for v in ec.values())
    for (m, p), v in ec.items():
        if abs(v - (s00 + a * (m - ms[0]) + b * (p - ps[0]))) > REL_TOL * scale:
            problems.append(f"s_ec at (m={m}, p={p}) is off the affine grid")
    return problems[:MAX_PROBLEMS]
