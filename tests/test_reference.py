"""The 6 h demo run against stored numbers.

``data/demo_6h.json`` holds the gauge series of nodes 31 and 59 and the
final snapshot's eta, u1 and u2 of ``swsplit run -c demo/tidal.txt
--set duration=21600``.  A change to the solver's arithmetic shows here
even when the run stays self-consistent.
"""
import csv
import json
from pathlib import Path

import numpy as np

from swsplit.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "tests" / "data" / "demo_6h.json").read_text())
ATOL = 1e-12   # m and m/s


def read_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {key: [float(row[key]) for row in rows] for key in rows[0]}


def test_demo_6h_matches_reference(tmp_path):
    out = tmp_path / "out"
    overrides = [arg for pair in REFERENCE["overrides"] for arg in ("--set", pair)]
    assert main(["run", "-c", str(ROOT / REFERENCE["config"]), *overrides,
                 "--set", f"out_dir={out}"]) == 0
    for gid, want in REFERENCE["gauges"].items():
        got = read_columns(out / f"gauge_{gid}.csv")
        assert got["t"] == want["t"]
        np.testing.assert_allclose(got["eta"], want["eta"], rtol=0.0, atol=ATOL)
    final = read_columns(out / REFERENCE["final"]["snapshot"])
    for key in ("eta", "u1", "u2"):
        np.testing.assert_allclose(final[key], REFERENCE["final"][key], rtol=0.0, atol=ATOL)
