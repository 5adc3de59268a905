"""Regenerate reference.json: elevation extremes and gauge series per seed.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py [SEED ...]      (default: seeds 0-9)

Each workload is run twice per seed (one untraced and one traced run,
which must agree byte for byte) and must pass every other check of
run.py before its values are stored.  The demo inputs do not depend on
the seed, so the demo is stored once, for every seed.  Regenerate only when
a change is meant to alter the results, and say why in the change.
"""
from __future__ import annotations

import json
import os
import sys
import time

import run

SEEDS = range(10)


def main(argv):
    seeds = [int(s) for s in argv] or list(SEEDS)
    root = os.getcwd()
    path = os.path.join(run.HERE, "reference.json")
    with open(path) as fh:
        cases = json.load(fh)["cases"]
    for workload in sorted(run.inputs.WORKLOADS):
        for seed in seeds:
            case, result, error = run.run_workload(root, workload, seed, 0.0, 1,
                                                   time.monotonic())
            if error:
                raise SystemExit(f"{workload} seed {seed}: {error}")
            full = [r for r in result["records"] if r["mode"] != "setup"]
            for r in full:
                why = run.failures(r, case, None, full[0]["digest"])
                if why:
                    raise SystemExit(f"{workload} seed {seed}: " + "; ".join(why))
            summary = full[0]["summary"]
            cases[run.reference_key(workload, seed, case)] = {
                "eta_min": float(summary["eta_min"]),
                "eta_max": float(summary["eta_max"]),
                "gauges": full[0]["gauges"],
            }
            print(f"{workload} seed {seed}: stored", flush=True)
            if not case.seeded:
                break
    with open(path, "w") as fh:
        json.dump({"cases": dict(sorted(cases.items()))}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
