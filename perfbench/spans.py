"""In-memory spans and counts recorded around calls into swsplit.

The probes are installed from the benchmark's side only: they replace
the names that ``swsplit.cli`` and ``swsplit.simulator`` look up at call
time (plus ``conjugate_gradient`` in ``swsplit.implicit_step`` and a few
methods of ``Forcings`` and ``OutputWriter``) with wrappers, and put the
originals back afterwards.  Nothing inside the package changes.

A span is ``(name, start, end, parent, run_id)``; ``parent`` is the
index of the enclosing span, or -1.  Layer names follow the package's
module names, so ``implicit_step.cg`` is time spent in
``swsplit.implicit_step.conjugate_gradient``.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Recorder:
    """Spans, counts and values extracted from return values."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.values = defaultdict(list)
        self.run_id = 0
        self._stack = []

    def wrap(self, name, fn, extract=None):
        spans, stack, values = self.spans, self._stack, self.values[name]

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if extract is not None:
                values.append(extract(result))
            return result
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def begin(self, run_id):
        """Start a traced iteration: later spans carry ``run_id``."""
        self.run_id = run_id
        self.counts.clear()
        for values in self.values.values():   # the wrappers hold these lists
            values.clear()


def install_probes(rec: Recorder, patches: Patches):
    """Wrap every traced layer boundary of ``swsplit run``."""
    from swsplit import cli, implicit_step, simulator
    from swsplit.forcing import Forcings
    from swsplit.simulator import OutputWriter

    def mesh_size(mesh):
        return mesh.n_nodes, mesh.n_triangles

    def cg_stats(result):
        return result[1].iterations, result[1].residual

    def gate_margin(verdict):
        return verdict.min_tau_c / verdict.tau

    for owner, attr, name, extract in (
            (cli, "load_config", "config.load", None),
            (cli, "apply_overrides", "config.load", None),
            (cli, "load_mesh", "mesh.load", mesh_size),
            (cli, "load_tide", "forcing.load", None),
            (cli, "load_wind", "forcing.load", None),
            (cli, "load_snapshot", "simulator.restart_load", None),
            (cli, "initial_state", "state.initial", None),
            (cli, "assemble", "fem.assemble", None),
            (cli, "OutputWriter", "simulator.output_open", None),
            (cli, "run", "simulator.run", None),
            (simulator, "step", "simulator.step", None),
            (simulator, "stability_gate", "stability.gate", gate_margin),
            (simulator, "taylor_galerkin_increment", "explicit_step.substep", None),
            (simulator, "helmholtz_matrix", "fem.helmholtz", None),
            (simulator, "elevation_rhs", "implicit_step.rhs", None),
            (simulator, "solve_elevation", "implicit_step.solve", None),
            (implicit_step, "conjugate_gradient", "implicit_step.cg", cg_stats),
            (simulator, "velocity_correction", "implicit_step.correction", None),
            (simulator, "apply_boundaries", "implicit_step.boundary", None),
            (Forcings, "wind_at", "forcing.lookup", None),
            (Forcings, "tide_at", "forcing.lookup", None),
            (OutputWriter, "snapshot", "simulator.snapshot", None),
            (OutputWriter, "gauges", "simulator.gauges", None),
            (OutputWriter, "log_step", "simulator.log_step", None),
            (OutputWriter, "close", "simulator.output_close", None)):
        patches.set(owner, attr, rec.wrap(name, getattr(owner, attr), extract))
    # a span per call would inflate the gate it sits in, so only count
    patches.set(simulator, "critical_time_step_for_drag",
                rec.count("stability.tau_c_evals", simulator.critical_time_step_for_drag))


OUTPUT_SPANS = ("simulator.output_open", "simulator.snapshot", "simulator.gauges",
                "simulator.log_step", "simulator.output_close")


def layer_metrics(rec: Recorder, first):
    """Per-layer metrics and self time by layer of one traced iteration.

    The iteration's spans are ``rec.spans[first:]``.  A span's self time
    is its duration minus the durations of its direct children (children
    never overlap: the program is single-threaded).
    """
    spans = rec.spans[first:]
    durations = defaultdict(list)
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def total(name):
        return sum(durations[name], 0.0)

    def calls(name):
        return len(durations[name])

    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans, start=first):
        self_time[name] += (end - start) - child_time[i]

    mesh_nodes, mesh_tris = rec.values["mesh.load"][-1]
    cg = rec.values["implicit_step.cg"]
    substeps = durations["explicit_step.substep"]
    metrics = {
        "mesh.load_s": total("mesh.load"),
        "mesh.nodes": mesh_nodes,
        "mesh.triangles": mesh_tris,
        "config.load_s": total("config.load"),
        "forcing.load_s": total("forcing.load"),
        "simulator.restart_load_s": total("simulator.restart_load"),
        "fem.assemble_s": total("fem.assemble"),
        "explicit_step.substep_s": total("explicit_step.substep"),
        "explicit_step.substeps": calls("explicit_step.substep"),
        "explicit_step.substep_us_p50": statistics.median(substeps) * 1e6 if substeps else 0.0,
        "forcing.lookups": calls("forcing.lookup"),
        "forcing.lookup_s": total("forcing.lookup"),
        "stability.gate_s": total("stability.gate"),
        "stability.gate_calls": calls("stability.gate"),
        "stability.tau_c_evals": rec.counts["stability.tau_c_evals"],
        "stability.gate_margin_min": min(rec.values["stability.gate"], default=0.0),
        "implicit_step.cg_s": total("implicit_step.cg"),
        "implicit_step.cg_solves": calls("implicit_step.cg"),
        "implicit_step.cg_iters_total": sum(it for it, _ in cg),
        "implicit_step.cg_iters_p50": statistics.median(it for it, _ in cg) if cg else 0,
        "implicit_step.cg_residual_max": max((res for _, res in cg), default=0.0),
        "implicit_step.solve_self_s": self_time["implicit_step.solve"],
        "implicit_step.rhs_s": total("implicit_step.rhs"),
        "implicit_step.correction_s": total("implicit_step.correction"),
        "implicit_step.boundary_s": total("implicit_step.boundary"),
        "fem.helmholtz_s": total("fem.helmholtz"),
        "fem.helmholtz_calls": calls("fem.helmholtz"),
        "simulator.step_self_s": self_time["simulator.step"],
        "simulator.run_s": total("simulator.run"),
        "simulator.run_self_s": self_time["simulator.run"],
        "simulator.output_s": sum(total(name) for name in OUTPUT_SPANS),
        "simulator.snapshot_s": total("simulator.snapshot"),
        "trace.spans": len(spans),
    }
    return metrics, dict(self_time)
