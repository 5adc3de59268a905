"""Time loop: gated explicit sub-cycling, implicit wave solve, output.

One outer step of length tau_tilde runs n_sub = tau_tilde / tau explicit
sub-steps that accumulate the source increment, solves the elevation
system, back-substitutes the velocity increments and applies boundary
data, so end-of-step states honor the boundary conditions exactly at
output times.  A stability gate checks tau against the critical step of
the worst node before every outer step.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .explicit_step import frozen_coefficients, sub_cycle_work, taylor_galerkin_increment
from .fem import FemMatrices, helmholtz_matrix
from .forcing import Forcings
from .implicit_step import (ElevationSolver, LinearSolveStats, apply_boundaries,
                            elevation_rhs, project_land_velocity, solve_elevation,
                            velocity_correction)
from .mesh import Mesh, is_data_line, parse_number, parse_rows
from .stability import PhysicalParams, critical_time_step_for_drag
from .state import State, require_finite

log = logging.getLogger(__name__)

GATE_MODES = ("enforce", "warn", "off")

# floor on |u| inside the gate only: a quiescent start has zero drag and
# the undamped recursion never converges, so the gate rates tau against
# a minimal drag instead of refusing everything
U_FLOOR = 1e-3  # m/s

# a snapshot's first line gives its time, its column line follows
CLOCK_PREFIX = "# t="
SNAPSHOT_HEADER = "node,x1,x2,eta,u1,u2"


def format_value(value) -> str:
    """The one rendering of a value in every key=value output: booleans
    lower-case, floats by ``repr`` (shortest round-trip, ``nan``, ``inf``),
    anything else by ``str``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))   # numpy 2's repr of np.float64 names the type
    return str(value)


def key_value_lines(items):
    """``key=value`` strings of (key, value) items, each value by :func:`format_value`."""
    return [f"{key}={format_value(value)}" for key, value in items]


class GateError(RuntimeError):
    """Stability gate refused the configured explicit step."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


def _is_multiple(x, step):
    """Whether ``x`` is a finite integer multiple of ``step``, to 1e-9 relative (never of 0)."""
    ratio = x / step if step > 0 else math.inf
    return math.isfinite(ratio) and abs(round(ratio) * step - x) <= 1e-9 * max(abs(x), step)


@dataclass(frozen=True)
class RunConfig:
    """Splitting steps, theta weights and outer-loop settings.

    Every rule on these values is checked once, at construction.
    """

    tau: float = 3.0
    tau_tilde: float = 300.0
    theta1: float = 0.5
    theta2: float = 0.5
    duration: float = 0.0
    snapshot_interval: float = 0.0   # 0: initial and final snapshot only
    gate_mode: str = "enforce"
    n_sub: int = field(init=False, repr=False)   # tau_tilde / tau

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf and 0.0 < self.tau_tilde < math.inf):
            raise ValueError("tau and tau_tilde must be positive and finite")
        if not (_is_multiple(self.tau_tilde, self.tau)
                and round(self.tau_tilde / self.tau) >= 1):
            raise ValueError(
                f"tau_tilde={self.tau_tilde:g} is not an integer multiple of tau={self.tau:g}")
        object.__setattr__(self, "n_sub", round(self.tau_tilde / self.tau))
        if not (0.0 <= self.theta1 <= 1.0 and 0.0 <= self.theta2 <= 1.0):
            raise ValueError("theta1 and theta2 must lie in [0, 1]")
        for name in ("duration", "snapshot_interval"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
            if value and not _is_multiple(value, self.tau_tilde):
                raise ValueError(f"{name}={value:g} must be a multiple of "
                                 f"tau_tilde={self.tau_tilde:g}")
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"gate_mode must be one of {GATE_MODES}")

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.tau_tilde)


@dataclass(frozen=True)
class GateVerdict:
    passed: bool
    tau: float
    min_tau_c: float
    worst_node: int
    worst_drag: float
    floor_active: bool


@dataclass
class RunSummary:
    """Diagnostics of a run; the fields, in order, are the keys of
    ``summary.txt``."""

    steps: int = 0
    completed: bool = False
    eta_min: float = np.inf
    eta_max: float = -np.inf
    mass_initial: float = 0.0
    mass_final: float = 0.0
    mass_drift_rel: float = 0.0
    cg_worst_iterations: int = 0
    cg_worst_residual: float = 0.0
    gate_violations: int = 0
    clamped_nodes_max: int = 0


@dataclass
class StepInfo:
    """Diagnostics of one outer step."""

    cg: LinearSolveStats
    gate: GateVerdict
    clamped_nodes: int      # H + eta < h_min at the step start: drag and wind read h_min


def stability_gate(state: State, frozen, params: PhysicalParams, tau) -> GateVerdict:
    """Rate ``tau`` against the critical step of the worst node.

    ``frozen`` is the sub-cycle's :func:`frozen_coefficients` pair; the
    nodal drag rate is its first factor times the speed floored at
    U_FLOOR, and the verdict is tau < min over nodes of tau_c.  tau_c is
    evaluated at every node in one array call (it is not assumed monotone
    in the drag); ties go to the lowest node index.
    """
    nodal_speed = np.sqrt(np.square(state.u.real) + np.square(state.u.imag))
    floor_active = bool((nodal_speed < U_FLOOR).any())
    drag = frozen[0] * np.maximum(nodal_speed, U_FLOOR)

    tau_c = critical_time_step_for_drag(params.k0, drag)
    worst = int(np.argmin(tau_c))
    min_tau_c = float(tau_c[worst])
    return GateVerdict(passed=bool(tau < min_tau_c), tau=tau,
                       min_tau_c=min_tau_c, worst_node=worst,
                       worst_drag=float(drag[worst]), floor_active=floor_active)


def elevation_solver(matrices: FemMatrices, mesh: Mesh, cfg: RunConfig, g) -> ElevationSolver:
    """The run's elevation system: Helmholtz matrix, Dirichlet blocks and
    multigrid hierarchy, all fixed while H, tau_tilde, theta and the open
    nodes are."""
    A = helmholtz_matrix(matrices, cfg.tau_tilde, cfg.theta1, cfg.theta2, g)
    return ElevationSolver(A, mesh.open_nodes)


def step(state: State, mesh: Mesh, matrices: FemMatrices, params: PhysicalParams,
         cfg: RunConfig, forcings: Forcings, solver: ElevationSolver):
    """Advance one outer step of tau_tilde seconds.

    ``solver`` is the run's :func:`elevation_solver`, built once by
    :func:`run`.  Returns (new_state, StepInfo).  Raises
    :class:`GateError` in enforce mode when the gate fails and
    FloatingPointError when the sub-cycle's increment is not finite;
    solver faults propagate.
    """
    # eta is fixed over the sub-cycle; the gate and every sub-step read this pair
    frozen = frozen_coefficients(state.eta, mesh, params)
    verdict = None
    if cfg.gate_mode != "off":
        verdict = stability_gate(state, frozen, params, cfg.tau)
        if not verdict.passed:
            msg = (f"stability gate: tau={cfg.tau:g} s >= critical step "
                   f"tau_c={verdict.min_tau_c:.4g} s at node {verdict.worst_node} "
                   f"(drag rate {verdict.worst_drag:.4g} 1/s)")
            if cfg.gate_mode == "enforce":
                raise GateError(msg, verdict=verdict)
            log.warning(msg)

    # the sub-cycle advances w in place; its constants and work arrays are made once
    w = state.u.copy()
    work = sub_cycle_work(frozen, params, cfg.tau)
    # the wind at every sub-step start, in one read
    for wind in forcings.wind_at(state.t + cfg.tau * np.arange(cfg.n_sub)).tolist():
        w += taylor_galerkin_increment(w, wind, matrices, work=work)
    d_star = w   # w becomes the source increment, in place
    d_star -= state.u
    # one scan per outer step, before the right side and the solve are
    # formed; only a failure rescans, to name the node and the component
    if not np.isfinite(d_star).all():
        require_finite(d_u1=d_star.real, d_u2=d_star.imag)
    # the wall constraint acts on the source increment where it couples to
    # the wave step: without this the flux H (u + theta1 du*) pushes water
    # through closed boundaries and the basin mass drifts
    project_land_velocity(d_star, mesh)

    t_next = state.t + cfg.tau_tilde
    rhs = elevation_rhs(state, d_star, matrices, mesh, cfg, params.g)
    # the one tide read of the step (a closed basin reads none)
    eta_open = forcings.tide_at(t_next) if solver.open_nodes.size else 0.0
    d_eta, cg_stats = solve_elevation(solver, rhs, eta_open - state.eta[solver.open_nodes])
    d_u = velocity_correction(state, d_eta, matrices, cfg, params.g)

    new_state = State(eta=state.eta + d_eta, u=state.u + d_star + d_u, t=t_next)
    apply_boundaries(new_state, mesh, eta_open)
    new_state.check()
    clamped = int(np.count_nonzero(mesh.depth + state.eta < params.h_min))
    return new_state, StepInfo(cg=cg_stats, gate=verdict, clamped_nodes=clamped)


def mass_integral(eta, matrices: FemMatrices) -> float:
    """Lumped-mass integral of the elevation (conserved in closed basins)."""
    return float(matrices.M_L @ eta)


def run(state: State, mesh: Mesh, matrices: FemMatrices, params: PhysicalParams,
        cfg: RunConfig, forcings: Forcings, sinks=None) -> RunSummary:
    """Advance duration / tau_tilde outer steps, tracking diagnostics.

    Steps are numbered on from round(state.t / tau_tilde), so a restart
    names its snapshots and log lines as the unbroken run would;
    ``summary.steps`` counts this run's steps.  ``sinks`` is an optional
    :class:`OutputWriter`; it receives the summary, complete or
    partial, when the run ends.  On a gate refusal or solver fault the
    partial summary is also attached to the raised exception.  The
    elevation solver is built once, after the initial output, so its
    cost falls in the first step's interval and a run with no steps
    never builds it.  The mass drift is relative to
    |initial mass|, or, when that is 0, to the largest |mass| of the run
    (1 if the mass never leaves 0).
    """
    summary = RunSummary()
    summary.mass_initial = mass_integral(state.eta, matrices)
    mass0 = summary.mass_initial
    drift_scale = abs(mass0)
    drift_max = 0.0

    def track(st):
        summary.eta_min = min(summary.eta_min, float(st.eta.min()))
        summary.eta_max = max(summary.eta_max, float(st.eta.max()))

    track(state)
    summary.mass_final = mass0
    try:
        check_forcing_coverage(state.t, mesh, cfg, forcings)
        k0 = round(state.t / cfg.tau_tilde)
        if sinks is not None:
            sinks.snapshot(k0, state)
            sinks.gauges(state)
        if cfg.n_steps:
            solver = elevation_solver(matrices, mesh, cfg, params.g)
        for k in range(k0 + 1, k0 + cfg.n_steps + 1):
            state, info = step(state, mesh, matrices, params, cfg, forcings, solver)
            summary.steps = k - k0
            track(state)
            if info.gate is not None and not info.gate.passed:
                summary.gate_violations += 1
            summary.clamped_nodes_max = max(summary.clamped_nodes_max, info.clamped_nodes)
            if info.cg.iterations >= summary.cg_worst_iterations:
                summary.cg_worst_iterations = info.cg.iterations
                summary.cg_worst_residual = info.cg.residual
            mass = mass_integral(state.eta, matrices)
            summary.mass_final = mass
            drift_max = max(drift_max, abs(mass - mass0))
            if mass0 == 0.0:
                drift_scale = max(drift_scale, abs(mass))
            summary.mass_drift_rel = drift_max / (drift_scale or 1.0)
            if sinks is not None:
                sinks.log_step(k, state.t, mass, info)
                sinks.gauges(state)
                if k == k0 + cfg.n_steps or _is_multiple(state.t, cfg.snapshot_interval):
                    sinks.snapshot(k, state)
        summary.completed = True
    except Exception as exc:
        # partial summary travels with the fault
        exc.run_summary = summary
        raise
    finally:
        if sinks is not None:
            sinks.summary(summary)
            sinks.close()
    return summary


def check_forcing_coverage(t0, mesh: Mesh, cfg: RunConfig, forcings: Forcings):
    """Raise ForcingError unless the present series cover every time the run reads.

    The wind is read at each sub-step start, up to t_end - tau, and the
    tide (only with open nodes) at each step end, up to t_end.  Step
    starts are accumulated exactly as :func:`step` advances the clock.
    """
    if cfg.n_steps == 0:
        return
    t_last = t0
    for _ in range(cfg.n_steps - 1):
        t_last += cfg.tau_tilde
    if forcings.wind is not None:
        forcings.wind.at((t0, t_last + (cfg.n_sub - 1) * cfg.tau))
    if mesh.open_nodes.size and forcings.tide is not None:
        forcings.tide.at((t0 + cfg.tau_tilde, t_last + cfg.tau_tilde))


class OutputWriter:
    """CSV snapshot/gauge files, a key=value run log and summary.

    snap_<step>.csv: a ``# t=`` clock line, then node,x1,x2,eta,u1,u2 in
    node order ; gauge_<id>.csv: t,eta ;
    run.log and summary.txt: key=value by :func:`format_value`; all
    floats written with repr for byte-reproducible output.
    """

    def __init__(self, out_dir, mesh: Mesh, gauge_nodes=()):
        self.out_dir = out_dir
        self.mesh = mesh
        self.gauge_nodes = tuple(int(g) for g in gauge_nodes)
        for i, gid in enumerate(self.gauge_nodes):
            if not (0 <= gid < mesh.n_nodes):
                raise ValueError(f"gauge node {gid} outside mesh (n={mesh.n_nodes})")
            if gid in self.gauge_nodes[:i]:   # a second handle on one file would leak
                raise ValueError(f"gauge node {gid} listed twice")
        os.makedirs(out_dir, exist_ok=True)
        with contextlib.ExitStack() as opened:   # a failed open closes the earlier ones
            self._gauge_files = {
                gid: opened.enter_context(open(os.path.join(out_dir, f"gauge_{gid}.csv"), "w"))
                for gid in self.gauge_nodes
            }
            self._log = opened.enter_context(open(os.path.join(out_dir, "run.log"), "w"))
            self._files = opened.pop_all()
        for fh in self._gauge_files.values():
            fh.write("t,eta\n")

    @functools.cached_property
    def _node_fields(self):
        """Leading ``node,x1,x2,`` of every snapshot row (fixed per mesh)."""
        return [f"{i},{x1!r},{x2!r}," for i, (x1, x2) in
                enumerate(np.asarray(self.mesh.coords, dtype=float).tolist())]

    def snapshot(self, step_idx, state: State):
        path = os.path.join(self.out_dir, f"snap_{step_idx}.csv")
        columns = (a.tolist() for a in (state.eta, state.u.real, state.u.imag))
        with open(path, "w") as fh:
            fh.write(f"{CLOCK_PREFIX}{float(state.t)!r}\n{SNAPSHOT_HEADER}\n")
            fh.writelines(f"{head}{eta!r},{u1!r},{u2!r}\n"
                          for head, eta, u1, u2 in zip(self._node_fields, *columns))

    def gauges(self, state: State):
        for gid, fh in self._gauge_files.items():
            fh.write(f"{float(state.t)!r},{float(state.eta[gid])!r}\n")

    def log_step(self, k, t, mass, info: StepInfo):
        items = [("step", k), ("t", t), ("mass", mass),
                 ("cg_iterations", info.cg.iterations), ("cg_residual", info.cg.residual)]
        gate = info.gate
        if gate is not None:
            items += [("gate_passed", gate.passed), ("gate_margin", gate.min_tau_c / gate.tau),
                      ("gate_node", gate.worst_node), ("gate_floor", gate.floor_active)]
        self._log.write(" ".join(key_value_lines(items)) + "\n")

    def summary(self, summary: RunSummary):
        with open(os.path.join(self.out_dir, "summary.txt"), "w") as fh:
            fh.writelines(line + "\n" for line in key_value_lines(asdict(summary).items()))

    def close(self):
        self._files.close()


def load_snapshot(path, mesh: Mesh) -> State:
    """Read a snapshot CSV of ``mesh`` back into a State (restart path).

    A ``# t=`` first line sets the clock (0.0 without one).  The rows, one
    per node in node order, parse as mesh lines do; each x1, x2 must match
    its mesh node to 1e-9 of the domain extent, so a snapshot of another
    mesh is refused even when the node counts agree.
    """
    with open(path) as fh:   # one pass: the clock line, then the data lines
        first = fh.readline()
        lines = [line for line in itertools.chain((first,), fh) if is_data_line(line)]
    text = first[len(CLOCK_PREFIX):].strip() if first.startswith(CLOCK_PREFIX) else "0"
    t = math.nan   # unless the clock parses
    with contextlib.suppress(ValueError):
        t = parse_number(text)
    if not math.isfinite(t):
        raise ValueError(f"{path}:1: bad time {text!r} in snapshot clock line")
    n_nodes = mesh.n_nodes
    if not lines or lines[0].strip() != SNAPSHOT_HEADER:
        raise ValueError(f"{path}: not a snapshot file")
    if len(lines) == 1:
        raise ValueError(f"{path}: no row for node 0")
    rows = parse_rows(path, lines, 1, len(lines) - 1, (int,) + (float,) * 5,
                      "snapshot row", ValueError, delimiter=",")
    ids = rows["f0"]
    wrong = np.flatnonzero(ids != np.arange(ids.size))   # row i holds node i
    i = min(int(wrong[0]) if wrong.size else ids.size, n_nodes)
    if i < ids.size:   # out of node order, or past the last node
        raise ValueError(f"{path}: row {i} holds node {ids[i]}, out of the order 0..{n_nodes - 1}")
    if ids.size < n_nodes:
        raise ValueError(f"{path}: no row for node {ids.size}")
    xy = np.column_stack([rows["f1"], rows["f2"]])
    coords = np.asarray(mesh.coords, dtype=float)
    # off unless within the tolerance: a nan coordinate never is
    off = np.flatnonzero(~np.all(np.abs(xy - coords) <= 1e-9 * np.ptp(coords, axis=0).max(),
                                 axis=1))
    if off.size:
        i = int(off[0])
        raise ValueError(f"{path}: node {i} at {tuple(xy[i].tolist())} is not "
                         f"the mesh node at {tuple(coords[i].tolist())}")
    # part by part: a complex sum of the columns would turn a -0.0 u1 into +0.0
    u = np.empty(n_nodes, dtype=complex)
    u.real, u.imag = rows["f4"], rows["f5"]
    return State(rows["f3"].copy(), u, t).check()
