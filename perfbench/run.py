"""swsplit benchmark: `swsplit run` on generated workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload channel_tide --seed 0 --seconds 30 --trace 0

The inputs of a workload are generated from ``--seed`` (see inputs.py)
into a scratch directory of the checkout, then a child process
(child.py) runs ``swsplit.cli.main(["run", ...])`` on them again and
again for ``--seconds`` seconds, one run at a time, with BLAS pinned to
one thread.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` untraced and traced runs alternate and the per-layer
metrics of the traced runs are reported, with the tracing overhead.

Every run is checked: it must complete with no gate violation, the
closed basin must conserve mass to 1e-6, all runs of one invocation
must write byte-identical snapshots and gauges, and where reference.json
holds values for the workload and seed (any seed, for the demo, whose
inputs do not depend on it), the elevation extremes and the
gauge series must match them.  A failed run counts all its outer steps
as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(and, when tracing, the spans) is written to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# the child inherits these; they must be set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

# set-up-only runs before the measured ones: at least PROBES_MIN, and
# more while they take less than PROBES_S, up to PROBES_MAX
PROBES_MIN, PROBES_MAX, PROBES_S = 3, 15, 5.0
MIN_ITERATIONS = 2        # two runs of one seed are compared byte for byte
DEADLINE_S = 170.0        # the whole invocation must end within 180 s
MASS_DRIFT_MAX = 1e-6     # closed basin, relative
REFERENCE_TOL_M = 1e-7    # elevation extremes and gauge series, metres
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
OUT_DIR = ".perfbench-out"


def tail_percentile(n_samples):
    """Highest listed percentile with at least ten samples beyond it."""
    return max(p for p in TAIL_PERCENTILES if n_samples * (1.0 - p / 100.0) >= 10.0)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def reference_key(workload, seed, case):
    return f"{workload}/{seed}" if case.seeded else workload


def failures(record, case, reference, first_digest):
    """Reasons this full run fails its checks (empty when it passes)."""
    why = []
    summary = record.get("summary", {})
    if record["rc"] != 0:
        why.append(f"exit code {record['rc']}")
    if summary.get("completed") != "true" or summary.get("steps") != str(case.n_steps):
        why.append(f"not completed ({summary.get('steps')} of {case.n_steps} steps)")
    if summary.get("gate_violations") != "0":
        why.append(f"gate_violations={summary.get('gate_violations')}")
    extremes = [float(summary.get(key, "nan")) for key in ("eta_min", "eta_max")]
    if not all(math.isfinite(v) for v in extremes):
        why.append("non-finite elevation")
    if case.closed and not float(summary.get("mass_drift_rel", "inf")) <= MASS_DRIFT_MAX:
        why.append(f"mass_drift_rel={summary.get('mass_drift_rel')} > {MASS_DRIFT_MAX}")
    if first_digest is not None and record.get("digest") != first_digest:
        why.append("outputs differ from the first run of this seed")
    if reference is not None and not why:
        for key, got in zip(("eta_min", "eta_max"), extremes):
            if abs(got - reference[key]) > REFERENCE_TOL_M:
                why.append(f"{key}={got!r}, reference {reference[key]!r}")
        for gid, series in reference["gauges"].items():
            got = record["gauges"].get(gid, [])
            if len(got) != len(series) or any(
                    abs(a - b) > REFERENCE_TOL_M for a, b in zip(got, series)):
                why.append(f"gauge {gid} differs from the reference")
    return why


def end_to_end(full, case, result):
    # outer steps in CPU seconds: the hypervisor's preemption bursts,
    # which are not the program's, fall outside them
    steps = [s for r in full for s in r["step_cpu_s"]]
    p_tail = tail_percentile(MIN_ITERATIONS * case.n_steps)
    sim_s = case.n_steps * case.tau_tilde
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in result["records"]
                                     if "setup_s" in r),
        "wall_s": statistics.median(r["wall_s"] for r in full),
        "sim_speed": statistics.median(sim_s / sum(r["step_s"]) for r in full),
        "step_s_p50": statistics.median(steps),
        "step_s_tail": percentile(steps, p_tail),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    notes = {"step_s_tail": f"p{p_tail:g} of {len(steps)} outer steps, CPU time"}
    return values, notes


def per_layer(full):
    traced = [r["layers"] for r in full if r["mode"] == "traced"]
    # median_low: a count stays a count, and every value is one measured
    values = {name: statistics.median_low(layer[name] for layer in traced)
              for name in traced[0]}
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in full if r["mode"] == "traced")
        - statistics.median(r["wall_s"] for r in full if r["mode"] == "plain"))
    return values


def run_workload(root, workload, seed, seconds, trace, started):
    """Generate the case and measure it in a child.

    Returns (case, result, error); result is None when the child failed."""
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        case = inputs.WORKLOADS[workload](workdir, seed, os.path.join(root, "demo"))
        spec = {
            "argv_tail": list(case.argv_tail), "workdir": workdir,
            "seconds": seconds, "trace": trace,
            "probes_min": PROBES_MIN, "probes_max": PROBES_MAX, "probes_s": PROBES_S,
            "min_iterations": MIN_ITERATIONS,
            "budget_s": DEADLINE_S - 20.0 - (time.monotonic() - started),
            "spans_path": os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz"),
        }
        spec_path = os.path.join(workdir, "spec.json")
        result_path = os.path.join(workdir, "result.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                cwd=root, capture_output=True, text=True,
                timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            return case, None, f"no result within {DEADLINE_S:g} s"
        if proc.returncode != 0 or not os.path.exists(result_path):
            return case, None, (f"measuring process exited with code {proc.returncode}: "
                                + proc.stderr.strip()[-2000:])
        with open(result_path) as fh:
            return case, json.load(fh), None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    for needed in ("src/swsplit/cli.py", "demo/tidal.txt", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit(f"perfbench: {needed} not found; run from the root "
                             "of a swsplit checkout")

    case, result, error = run_workload(root, args.workload, args.seed, args.seconds,
                                       args.trace, started)
    if result is None:
        # the program under test broke the measuring process: every planned
        # step of the guaranteed runs counts as failed
        result = {"records": [], "measure_s": time.monotonic() - started, "env": {}}
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["cases"].get(reference_key(args.workload, args.seed, case))
    full = [r for r in result["records"] if r["mode"] != "setup"]
    first_digest = next((r["digest"] for r in full if r.get("digest")), None)
    attempted = failed = 0
    problems = [error] if error else []
    if error:
        attempted = failed = MIN_ITERATIONS * case.n_steps
    for r in result["records"]:
        why = (failures(r, case, reference, first_digest) if r["mode"] != "setup"
               else [f"exit code {r['rc']}"] if r["rc"] != 0 else [])
        if r["mode"] != "setup" or why:
            attempted += case.n_steps
        if why:
            failed += case.n_steps
            problems.append(f"{r['mode']} run: " + "; ".join(why))
    correct = failed == 0

    # timings need whole runs; the checks above decide correctness
    timed = [r for r in full if r["rc"] == 0 and len(r["step_s"]) == case.n_steps]
    values, notes = {}, {}
    if args.trace and {r["mode"] for r in timed} == {"plain", "traced"}:
        values = per_layer(timed)
    elif not args.trace and timed:
        values, notes = end_to_end(timed, case, result)
    # BENCHMARK.json names the metrics of each mode and their units
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed} if values else {}

    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(full)} runs of {case.n_steps} outer steps in {result['measure_s']:.1f} s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " blas_threads=1")
    for name, metric in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {metric['value']!r} {metric['unit']}{extra}")
    print(f"  {'fail_rate':34s} {failed / attempted!r}  ({failed} of {attempted} outer steps)")
    print(f"  {'reference check':34s} "
          + ("applied" if reference is not None else "no reference for this seed"))
    self_s = next((r["self_s"] for r in reversed(timed) if "self_s" in r), {})
    if self_s:
        total = sum(self_s.values())
        print(f"  self time by layer, last traced run ({total:.3f} s in all):")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"    {name:32s} {value:10.4f} s {100.0 * value / total:6.2f} %")
    for line in problems:
        print(f"  FAILED {line}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, "env": env, "notes": notes, "self_s": self_s,
              "metrics": metrics,
              "runs": [{k: r.get(k) for k in ("mode", "rc", "wall_s", "setup_s")}
                       for r in result["records"]]}
    with open(os.path.join(root, OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                                          f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
