"""Verification of the solver against analytic solutions and refinement."""
from pathlib import Path

import numpy as np
import pytest

from helpers import (advance, bisect_root, observed_orders, rect_mesh, rect_mesh_arrays,
                     velocity)
from swsplit.fem import assemble
from swsplit.forcing import Forcings, TimeSeries, load_tide, load_wind
from swsplit.mesh import INTERIOR, LAND, OPEN, build_mesh, load_mesh
from swsplit.simulator import OutputWriter, RunConfig, run
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
    state = State(eta0, np.zeros(n, dtype=complex), 0.0)
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
    forcings = Forcings(tide=load_tide(DEMO / "tide.txt"), wind=load_wind(DEMO / "wind.txt"))

    def final_velocity(tau):
        state, _ = advance(mesh, initial_state(mesh.n_nodes), PhysicalParams(),
                           RunConfig(tau=tau, tau_tilde=300.0, gate_mode="off"), forcings, 6)
        return np.concatenate([state.u.real, state.u.imag])

    reference = final_velocity(3.0)
    taus = [30.0, 100.0, 300.0]
    errors = np.array([np.max(np.abs(final_velocity(tau) - reference)) for tau in taus])
    orders = observed_orders(taus, errors)
    assert errors == pytest.approx([1.30e-4, 4.74e-4, 1.52e-3], rel=0.01)
    assert np.all((0.9 < orders) & (orders < 1.2))


def test_wind_set_up_keeps_a_wall_layer_that_falls_with_tau_tilde():
    """A closed basin under steady wind: the exact set-up, and today's wall layer.

    A land-walled 20 km x 2 km basin, 2 m deep, with no Coriolis force,
    k1 = 40 and xi = 3.2e-6 under a steady (10, 0) m/s wind, has the
    steady state u = 0, (H + eta) eta_x = c with c = xi |v| v1 / g, that is
    eta = sqrt(H^2 + 2 c (x - x0)) - H, x0 putting the lumped-mass mean
    of eta at 0.  Started there, with the gate off and tau = tau_tilde / 10,
    it runs one day on 41 and 81 nodes along x (5 across).  A
    characterisation, not a target: the velocity should stay 0, but

    | nodes, tau_tilde | max|u|    | max|u|, 3 < x < 17 km | max|eta - set-up| |
    | 41, 300 s        | 4.61e-2   | 5.20e-3               | 3.36e-3 m         |
    | 81, 300 s        | 4.36e-2   | 1.51e-3               | 2.98e-3 m         |
    | 41, 60 s         | 1.19e-2   | 5.39e-3               | 2.94e-4 m         |

    The peak sits in a layer by the end walls.  It barely falls under
    refinement but falls about 4x with tau_tilde.
    """
    L, H = 20_000.0, 2.0
    params = PhysicalParams(k0=0.0, k1=40.0, xi=3.2e-6)
    c = params.xi * 10.0 * 10.0 / params.g
    wind = Forcings(wind=TimeSeries([0.0, 86_400.0], [[10.0, 0.0], [10.0, 0.0]]))

    def day(nx, tau_tilde):
        """max|u|, its interior part and max|eta - set-up| after one day."""
        mesh = rect_mesh(nx, 5, L, 2_000.0, depth=H)
        x = mesh.coords[:, 0]
        lumped = assemble(mesh).M_L

        def set_up(x0):
            return np.sqrt(H * H + 2.0 * c * (x - x0)) - H

        eta0 = set_up(bisect_root(lambda x0: -float(lumped @ set_up(x0)), 0.0, L))
        n = mesh.n_nodes
        cfg = RunConfig(tau=tau_tilde / 10.0, tau_tilde=tau_tilde, gate_mode="off")
        state, _ = advance(mesh, State(eta0, np.zeros(n, dtype=complex)), params, cfg, wind,
                           round(86_400.0 / tau_tilde))
        speed = np.hypot(state.u.real, state.u.imag)
        return speed.max(), speed[(3_000.0 < x) & (x < 17_000.0)].max(), \
            np.max(np.abs(state.eta - eta0))

    coarse, fine, short = day(41, 300.0), day(81, 300.0), day(41, 60.0)
    assert coarse == pytest.approx([4.61e-2, 5.20e-3, 3.36e-3], rel=0.01)
    assert fine == pytest.approx([4.36e-2, 1.51e-3, 2.98e-3], rel=0.01)
    assert short == pytest.approx([1.19e-2, 5.39e-3, 2.94e-4], rel=0.01)
    assert fine[0] > 0.9 * coarse[0]                   # not a spatial error
    assert 3.5 < coarse[0] / short[0] < 4.5            # about 4x with tau_tilde


def test_balanced_eddy_loses_energy_first_order_in_tau_tilde():
    """A geostrophic eddy, an exact steady state, decays at first order in tau_tilde.

    A land-walled 400 km square, 10 m deep, with k0 = 1e-4, a negligible
    drag (k1 = 1e4) and no wind starts from eta = 5 cm exp(-r^2 / (40 km)^2)
    at its centre and the balanced u = (g / k0) k x grad(eta) (peak
    0.105 m/s).  On 21 x 21 nodes, gate off, tau = tau_tilde / 10, after one
    day, E = 1/2 sum M_L (H |u|^2 + g eta^2) and eta projected on its start
    read

    | tau_tilde | E / E0 | projection |
    | 300 s     | 0.771  | 0.928      |
    | 60 s      | 0.950  | 1.016      |

    so the energy loss is of order 0.95 in tau_tilde.  (max|eta - eta0| is
    not pinned: with R / h = 2 it reads 5.5 % at 300 s but 7.0 % at 60 s.
    On 41 x 41 nodes over two days the 300 s run reads 19.6 %, 0.815 and
    0.615.)  A characterisation, not a target: the exact answer keeps E.
    """
    L, H, A, R = 400_000.0, 10.0, 0.05, 40_000.0
    params = PhysicalParams(k0=1e-4, k1=1e4, xi=0.0)
    mesh = rect_mesh(21, 21, L, L, depth=H)
    x, y = mesh.coords[:, 0] - L / 2.0, mesh.coords[:, 1] - L / 2.0
    eta0 = A * np.exp(-(x * x + y * y) / (R * R))
    # k x grad(eta) = (-eta_y, eta_x), with grad(eta) = -2 (x, y) eta / R^2
    u1, u2 = (params.g / params.k0 * 2.0 / (R * R)) * eta0 * np.array([y, -x])
    assert np.hypot(u1, u2).max() == pytest.approx(0.105, rel=0.01)
    lumped = assemble(mesh).M_L

    def energy(state):
        return 0.5 * float(lumped @ (H * (state.u.real ** 2 + state.u.imag ** 2)
                                     + params.g * state.eta ** 2))

    start = State(eta0, velocity(u1, u2))
    tau_tildes = [60.0, 300.0]
    ends = [advance(mesh, start, params,
                    RunConfig(tau=tau_tilde / 10.0, tau_tilde=tau_tilde, gate_mode="off"),
                    Forcings(), round(86_400.0 / tau_tilde))[0] for tau_tilde in tau_tildes]
    losses = np.array([1.0 - energy(end) / energy(start) for end in ends])
    projections = [float(lumped @ (end.eta * eta0)) / float(lumped @ (eta0 * eta0))
                   for end in ends]
    assert losses == pytest.approx([0.0502, 0.229], rel=0.01)
    assert projections == pytest.approx([1.016, 0.928], abs=1e-3)
    assert 0.85 < observed_orders(tau_tildes, losses)[0] < 1.05


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
        w0 = velocity(rng.uniform(-0.3, 0.3, len(coords)), rng.uniform(-0.3, 0.3, len(coords)))
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
        cfg = RunConfig(tau=10.0, tau_tilde=100.0, gate_mode="off")
        state = State(eta0.copy(), w0.copy(), 0.0)
        state, _ = advance(mesh, state, PhysicalParams(k0=k0), cfg, forcings, self.N_STEPS)
        return state.eta, state.u

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


def windy_basin(n_sub):
    """Sub-cycle stability under wind, with the gate off: the set-up.

    A closed 10 km x 2 km basin, 0.1 m deep on 41 x 9 nodes, starts from
    rest under a steady (15, 0) m/s wind, with tau_tilde = 300 s, tau =
    300 s / n_sub and the default parameters.  Drag balances the wind at
    u_w = 0.343 m/s; at the depth clamp h_min that speed's drag rate is
    D_w = 4.2e-2 1/s, and a first sub-step from rest overshoots the
    balance once tau D_w > sqrt(2), at about 34 s.  The gate, off here,
    puts tau_c at 3.2 s on the state that tau = 30 s reaches.  Returns
    (mesh, state, params, cfg, forcings) for :func:`helpers.advance`.
    """
    mesh = rect_mesh(41, 9, 10_000.0, 2_000.0, depth=0.1)
    wind = Forcings(wind=TimeSeries([0.0, 86_400.0], [[15.0, 0.0], [15.0, 0.0]]))
    cfg = RunConfig(tau=300.0 / n_sub, tau_tilde=300.0, gate_mode="off")
    return mesh, initial_state(mesh.n_nodes), PhysicalParams(), cfg, wind


@pytest.mark.parametrize("n_sub", [10, 9], ids=["tau=30", "tau=33.3"])
def test_sub_cycle_under_wind_runs_below_its_real_limit(n_sub):
    """A characterisation, not a target: 48 steps run and end at
    max|u| = 0.286 m/s, below u_w."""
    mesh, state, params, cfg, wind = windy_basin(n_sub)
    state, _ = advance(mesh, state, params, cfg, wind, 48)
    assert np.hypot(state.u.real, state.u.imag).max() == pytest.approx(0.286, rel=0.01)


def test_sub_cycle_under_wind_diverges_past_its_real_limit():
    """A characterisation, not a target: at tau = 37.5 s the sixth step
    overflows."""
    mesh, state, params, cfg, wind = windy_basin(8)
    state, _ = advance(mesh, state, params, cfg, wind, 5)
    # numpy warns of the overflow before the step's finiteness check raises
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="^non-finite d_u1 at node 0$"):
            advance(mesh, state, params, cfg, wind, 1)
