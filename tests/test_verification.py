"""Verification of the solver against analytic solutions and refinement."""
from pathlib import Path

import numpy as np
import pytest

from helpers import rect_mesh, rect_mesh_arrays
from swsplit.fem import assemble
from swsplit.forcing import Forcings, TimeSeries, load_tide, load_wind
from swsplit.mesh import INTERIOR, LAND, OPEN, build_mesh, load_mesh
from swsplit.simulator import OutputWriter, RunConfig, elevation_solver, run, step
from swsplit.stability import PhysicalParams
from swsplit.state import State, initial_state

DEMO = Path(__file__).resolve().parents[1] / "demo"


def zero_crossings(t, y):
    """Times where y changes sign, linearly interpolated between samples."""
    i = np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)
    return t[i] - y[i] * (t[i + 1] - t[i]) / (y[i + 1] - y[i])


def test_seiche_period_matches_analytic(tmp_path):
    """Fundamental seiche of a closed basin: period 2L / sqrt(gH).

    A land-walled 10 km x 1 km basin, 10 m deep, starts from a 1 cm
    cos(pi x / L) mode at rest.  With no Coriolis force, a negligible
    drag (k1 = 1e4) and no wind the linear wave period is
    2L / sqrt(gH) = 2019.2 s.  The gauge at the west wall is sampled
    every 20 s (about 100 steps per period) over three periods; the
    period from its zero crossings must match to 0.5 %.  It comes out
    0.08 % long here, 0.33 % at half this resolution in space and time
    and 0.02 % at twice it (second order, as P1 dispersion and the
    theta = 0.5 phase error both are).
    """
    L, W, H, amplitude = 10_000.0, 1_000.0, 10.0, 0.01
    params = PhysicalParams(k0=0.0, k1=1e4)
    period = 2.0 * L / np.sqrt(params.g * H)
    mesh = rect_mesh(41, 5, L, W, depth=H)
    n = mesh.n_nodes
    eta0 = amplitude * np.cos(np.pi * mesh.coords[:, 0] / L)
    state = State(eta0, np.zeros(n), np.zeros(n), 0.0)
    gauge = int(np.argmin(np.hypot(mesh.coords[:, 0], mesh.coords[:, 1] - W / 2)))
    cfg = RunConfig(tau=20.0, tau_tilde=20.0, duration=20.0 * 303)
    summary = run(state, mesh, assemble(mesh), params, cfg, Forcings(),
                  OutputWriter(tmp_path, mesh, gauge_nodes=(gauge,)))
    assert summary.completed and summary.gate_violations == 0

    t, eta = np.loadtxt(tmp_path / f"gauge_{gauge}.csv", delimiter=",",
                        skiprows=1, unpack=True)
    assert eta[0] == amplitude and len(t) == 304
    crossings = zero_crossings(t, eta)
    assert len(crossings) == 6                     # three periods
    measured = 2.0 * np.mean(np.diff(crossings))
    assert measured == pytest.approx(period, rel=5e-3)
    # small amplitude and almost no drag: the wave keeps its height
    assert np.max(np.abs(eta[-60:])) > 0.9 * amplitude


def test_sub_cycle_is_first_order_in_tau():
    """Observed time order of the explicit sub-cycle: first order in tau.

    The demo channel with its tide and wind runs 6 outer steps of 300 s
    with the gate off, at tau = 30, 100 and 300 s, against a tau = 3 s
    reference.  The largest nodal velocity difference is 1.30e-4,
    4.74e-4 and 1.52e-3 m/s: observed orders 1.08 and 1.06 (a likely
    cause: both stages use the drag rate D(u_n) of the sub-step start,
    while the drag is nonlinear in u).  The bounds keep the order near
    1, away from 2.
    """
    mesh = load_mesh(DEMO / "channel.mesh")
    matrices = assemble(mesh)
    forcings = Forcings(tide=load_tide(DEMO / "tide.txt"), wind=load_wind(DEMO / "wind.txt"))
    params = PhysicalParams()

    def final_velocity(tau):
        cfg = RunConfig(tau=tau, tau_tilde=300.0, gate_mode="off")
        state = initial_state(mesh.n_nodes)
        solver = elevation_solver(matrices, mesh, cfg, params.g)
        for _ in range(6):
            state, _ = step(state, mesh, matrices, params, cfg, forcings, solver)
        return np.concatenate([state.u1, state.u2])

    reference = final_velocity(3.0)
    taus = np.array([30.0, 100.0, 300.0])
    errors = np.array([np.max(np.abs(final_velocity(tau) - reference)) for tau in taus])
    orders = np.log(errors[1:] / errors[:-1]) / np.log(taus[1:] / taus[:-1])
    assert errors == pytest.approx([1.30e-4, 4.74e-4, 1.52e-3], rel=0.01)
    assert np.all((0.9 < orders) & (orders < 1.2))


class TestInvariance:
    """A whole run is equivariant under the plane's isometries and under
    node renumbering, to rounding.

    A jittered open channel (21 x 6 nodes, 2-5 m deep, west mouth) with a
    tide, a time-varying wind, drag and Coriolis runs 10 outer steps.  It
    has fewer nodes than multigrid's coarsest level, so every elevation
    solve is preconditioned exactly and the runs differ by rounding only
    (0.8-1.7e-14 relative when these cases were first measured).
    """

    N_STEPS = 10
    TOL = 1e-13

    @staticmethod
    def channel():
        rng = np.random.default_rng(11)
        coords, tris, _, tags = rect_mesh_arrays(21, 6, 2000.0, 500.0)
        interior = tags == INTERIOR
        coords[interior] += rng.uniform(-20.0, 20.0, size=(interior.sum(), 2))
        tags[(coords[:, 0] == 0.0) & (tags == LAND)] = OPEN
        depth = 2.0 + 3.0 * rng.random(len(coords))
        w0 = rng.uniform(-0.3, 0.3, len(coords)) + 1j * rng.uniform(-0.3, 0.3, len(coords))
        eta0 = rng.uniform(-0.05, 0.05, len(coords))
        return coords, tris, depth, tags, eta0, w0

    def simulate(self, coords, tris, depth, tags, eta0, w0, wind_rotation=1.0, conjugate=False,
                 k0=1e-4):
        """(eta, u1 + i u2) after N_STEPS outer steps, the wind's (v1 + i v2)
        turned by ``wind_rotation`` (and conjugated first when asked)."""
        mesh = build_mesh(coords, tris, depth, tags)
        times = np.linspace(0.0, 1200.0, 7)
        v = (6.0 + 4.0 * np.cos(times / 300.0)) + 1j * (-3.0 + 5.0 * np.sin(times / 200.0))
        v = (np.conj(v) if conjugate else v) * wind_rotation
        forcings = Forcings(tide=TimeSeries(times, 0.3 * np.sin(times / 400.0)),
                            wind=TimeSeries(times, np.column_stack([v.real, v.imag])))
        params = PhysicalParams(k0=k0)
        cfg = RunConfig(tau=10.0, tau_tilde=100.0, gate_mode="off")
        matrices = assemble(mesh)
        solver = elevation_solver(matrices, mesh, cfg, params.g)
        state = State(eta0.copy(), w0.real.copy(), w0.imag.copy(), 0.0)
        for _ in range(self.N_STEPS):
            state, _ = step(state, mesh, matrices, params, cfg, forcings, solver)
        return state.eta, state.u1 + 1j * state.u2

    def assert_close(self, got, want):
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= self.TOL * np.max(np.abs(w))

    @pytest.mark.parametrize("phi", [0.5 * np.pi, 0.7])
    def test_rotation_rotates_the_velocity(self, phi):
        coords, tris, depth, tags, eta0, w0 = self.channel()
        turn = np.exp(1j * phi)
        z = (coords[:, 0] + 1j * coords[:, 1]) * turn + (350.0 - 1200.0j)
        eta, w = self.simulate(coords, tris, depth, tags, eta0, w0)
        self.assert_close(self.simulate(np.column_stack([z.real, z.imag]), tris, depth, tags,
                                        eta0, w0 * turn, wind_rotation=turn), (eta, w * turn))

    def test_mirror_without_coriolis_mirrors_the_velocity(self):
        coords, tris, depth, tags, eta0, w0 = self.channel()
        mirrored = coords * [1.0, -1.0]
        eta, w = self.simulate(coords, tris, depth, tags, eta0, w0, k0=0.0)
        # reversed vertex order keeps the mirrored triangles counter-clockwise
        self.assert_close(self.simulate(mirrored, tris[:, ::-1], depth, tags, eta0, np.conj(w0),
                                        conjugate=True, k0=0.0), (eta, np.conj(w)))

    def test_renumbering_permutes_the_run(self):
        coords, tris, depth, tags, eta0, w0 = self.channel()
        perm = np.random.default_rng(12).permutation(len(coords))
        inv = np.argsort(perm)
        eta, w = self.simulate(coords, tris, depth, tags, eta0, w0)
        self.assert_close(self.simulate(coords[inv], perm[tris], depth[inv], tags[inv],
                                        eta0[inv], w0[inv]), (eta[inv], w[inv]))
