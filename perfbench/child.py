"""One workload's measurements, run in a process of its own.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

The spec (written by run.py) names the `swsplit run` arguments of the
generated case and how long to measure.  Each iteration calls
``swsplit.cli.main(["run", ...])`` in this process, with outputs in a
fresh directory that is read back and removed afterwards.  Untraced
iterations carry two timestamp hooks only (entry into ``simulator.run``
and each ``OutputWriter.gauges`` call, which happens once before the
loop and once per outer step and also reads the process's CPU clock);
traced ones carry every probe of
``spans.install_probes``.  Set-up probes are iterations that stop at the
entry into ``simulator.run``, so set-up time is sampled more often than
a whole run fits in the window.
"""
from __future__ import annotations

import gc
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from swsplit import cli  # noqa: E402
from swsplit.simulator import OutputWriter  # noqa: E402

from spans import Patches, Recorder, install_probes, layer_metrics, perf  # noqa: E402


# Runs are bound to the CPUs in turn: on a shared host each CPU has slow
# and fast spells of its own, and a run's numbers should not depend on
# which CPU the scheduler happened to keep it on.  (Moving to the other
# CPU at every outer step instead made the demo 40 % slower.)
CPUS = sorted(os.sched_getaffinity(0))


class SetupDone(BaseException):
    """Ends a set-up probe at the entry into simulator.run.

    A BaseException, so the CLI's own fault handling lets it through."""


def read_outputs(out_dir):
    """Summary, a digest of every output file, their size and the gauges."""
    summary = {}
    path = os.path.join(out_dir, "summary.txt")
    if os.path.exists(path):
        with open(path) as fh:
            summary = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    digest = hashlib.sha256()
    size = 0
    gauges = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        if name.startswith(("snap_", "gauge_")):
            digest.update(name.encode() + b"\0" + data)
        if name.startswith("gauge_"):
            rows = data.decode().splitlines()[1:]
            gauges[name[6:-4]] = [float(row.split(",")[1]) for row in rows]
    return summary, digest.hexdigest(), size, gauges


def iteration(spec, k, mode, rec, turn):
    """Run ``swsplit run`` once; ``mode`` is "setup", "plain" or "traced"."""
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
    out_dir = os.path.join(spec["workdir"], f"out{k}")
    argv = ["run", *spec["argv_tail"], "--set", f"out_dir={out_dir}"]
    stamps = {"run": None, "gauges": [], "cpu": []}
    patches = Patches()
    main = cli.main
    if mode == "traced":
        rec.begin(k)
        first = len(rec.spans)
        install_probes(rec, patches)
        main = rec.wrap("cli.main", cli.main)
    else:
        run, gauges = cli.run, OutputWriter.gauges

        def run_hook(*args, **kwargs):
            stamps["run"] = perf()
            if mode == "setup":
                kwargs["sinks"].close()
                raise SetupDone
            return run(*args, **kwargs)

        def gauges_hook(self, state):
            stamps["gauges"].append(perf())
            stamps["cpu"].append(time.process_time())
            return gauges(self, state)

        patches.set(cli, "run", run_hook)
        patches.set(OutputWriter, "gauges", gauges_hook)
    gc.collect()          # each run starts without the last one's garbage
    start = perf()
    try:
        rc = main(argv)
    except SetupDone:
        rc = 0
    finally:
        end = perf()
        patches.restore()

    record = {"mode": mode, "rc": rc, "wall_s": end - start}
    if mode == "traced":
        mine = rec.spans[first:]
        stamps["run"] = next((s[1] for s in mine if s[0] == "simulator.run"), None)
        stamps["gauges"] = [s[1] for s in mine if s[0] == "simulator.gauges"]
        if rc == 0:
            record["layers"], record["self_s"] = layer_metrics(rec, first)
    if stamps["run"] is not None:
        record["setup_s"] = stamps["run"] - start
    marks = stamps["gauges"]
    record["step_s"] = [b - a for a, b in zip(marks, marks[1:])]
    cpu = stamps["cpu"]
    record["step_cpu_s"] = [b - a for a, b in zip(cpu, cpu[1:])]
    if os.path.isdir(out_dir):
        summary, digest, size, gauges = read_outputs(out_dir)
        shutil.rmtree(out_dir)
        if mode != "setup":
            record.update(summary=summary, digest=digest, gauges=gauges)
            if "layers" in record:
                record["layers"]["simulator.output_bytes"] = size
    return record


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    rec = Recorder()
    t0 = perf()
    records = []
    while len(records) < spec["probes_min"] or (
            len(records) < spec["probes_max"] and perf() - t0 < spec["probes_s"]):
        k = len(records)
        records.append(iteration(spec, k, "setup", rec, k))
    modes = ("plain", "traced") if spec["trace"] else ("plain",)
    limit = min(spec["seconds"], spec["budget_s"])
    walls = []
    while True:
        # start a run only if it is expected to end inside the window
        expected = statistics.median(walls) if walls else 0.0
        if len(walls) >= spec["min_iterations"] and perf() - t0 + expected > limit:
            break
        # an untraced run and its traced twin share a CPU
        j, mode = divmod(len(walls), len(modes))
        record = iteration(spec, len(records), modes[mode], rec, j)
        records.append(record)
        walls.append(record["wall_s"])

    if spec["trace"]:
        with gzip.open(spec["spans_path"], "wt") as fh:
            for name, start, end, parent, run_id in rec.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")
    result = {
        "records": records,
        "measure_s": perf() - t0,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {"nproc": len(CPUS), "python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "threads": {key: os.environ.get(key) for key in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
