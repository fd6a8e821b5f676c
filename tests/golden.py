"""Golden output digests: the SHA-256 of each file that a fixed set of CLI
runs writes, with each run's exit code and stderr lines.

``tests/test_golden.py`` makes the runs again and compares them with
``tests/golden.json``.  A change meant to change an output rewrites that file
with ``python tests/golden.py`` and names each changed file and its reason.

Each run calls ``cli.main`` in-process, with the working directory set to a
fresh directory that holds its inputs, so every path it prints is relative:
- ``assess``, ``msp``, ``recop --scenario C --carbon-tax 50``, ``sweep`` and
  ``yoy``, each in CSV and JSON, and ``report``, on the bundled data;
- ``report`` on ``conftest``'s renamed copies (534 rows) and dense dataset
  (300 rows, every field set), and on the bundled data with every
  ``tax_rate`` empty, which fails each country (exit 1), each written out as
  a data directory by ``oracles.save_dataset``;
- ``report`` on a copy of the bundled data with bad cells in three files,
  which is a ``DataError`` (exit 2).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from agripellet.cli import main
from agripellet.dataio import load_dataset
from conftest import DATA_DIR, copy_data, dense_copy_of, renamed_copies_of
from oracles import save_dataset

GOLDEN = Path(__file__).with_name("golden.json")

RUNS = {
    "assess-csv": ("assess", "--data", "data"),
    "assess-json": ("assess", "--data", "data", "--format", "json"),
    "msp-csv": ("msp", "--data", "data"),
    "msp-json": ("msp", "--data", "data", "--format", "json"),
    "recop-csv": ("recop", "--data", "data", "--scenario", "C", "--carbon-tax", "50"),
    "recop-json": ("recop", "--data", "data", "--scenario", "C", "--carbon-tax", "50",
                   "--format", "json"),
    "sweep-csv": ("sweep", "--data", "data"),
    "sweep-json": ("sweep", "--data", "data", "--format", "json"),
    "yoy-csv": ("yoy", "data/production_series.csv"),
    "yoy-json": ("yoy", "data/production_series.csv", "--format", "json"),
    "report": ("report", "--data", "data"),
    "report-renamed": ("report", "--data", "renamed"),
    "report-dense": ("report", "--data", "dense"),
    "report-untaxed": ("report", "--data", "untaxed"),
    "report-bad-data": ("report", "--data", "bad"),
}


def write_inputs(work: Path) -> None:
    """The data directories of ``RUNS``, under ``work``."""
    copy_data(work / "data")
    bundled = load_dataset(DATA_DIR)
    untaxed = bundled._replace(countries={**bundled.countries,
                                          "tax_rate": (None,) * len(bundled.countries["country"])})
    for name, copy in (("renamed", renamed_copies_of(bundled)), ("dense", dense_copy_of(bundled)),
                       ("untaxed", untaxed)):
        save_dataset(copy, work / name)
    copy_data(work / "bad", [("countries.csv", "Afghanistan,Asia,180000.0,",
                              "Afghanistan,Asia,-180000.0,"),
                             ("crops.csv", "maize,1.0,0.5,", "maize,1.0,1.5,"),
                             ("config.json", '"scenario": "A"', '"scenario": "Z"')])


def run(name: str, args: tuple) -> dict:
    """One run of ``RUNS`` in the working directory: its exit code, stderr
    lines and the digest of each file it wrote, by name."""
    out = Path("out", name)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*args, "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {"exit": code, "stderr": stderr.getvalue().splitlines(),
            "files": {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}}


def digests(work: Path) -> dict:
    """Every run of ``RUNS``, by name, made in the empty directory ``work``."""
    write_inputs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {name: run(name, args) for name, args in RUNS.items()}
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
