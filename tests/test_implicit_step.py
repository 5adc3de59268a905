import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (dense_global_oracle, jittered_channel, jittered_mesh, rect_mesh,
                     two_triangle_square, velocity)
from swsplit import simulator
from swsplit.fem import assemble, helmholtz_matrix
from swsplit.forcing import ForcingError, Forcings, TimeSeries, load_tide, load_wind
from swsplit.implicit_step import (CG_TOL, ElevationSolver, LinearSolveStats, SolverError,
                                   apply_boundaries, conjugate_gradient,
                                   elevation_rhs, project_land_velocity,
                                   solve_elevation, velocity_correction)
from swsplit.mesh import LAND, OPEN, build_mesh
from swsplit.simulator import RunConfig
from swsplit.stability import PhysicalParams
from swsplit.state import State, initial_state

DEMO = Path(__file__).resolve().parents[1] / "demo"
G = 9.81


def zero_increment(n):
    return np.zeros(n, dtype=complex)


class TestConjugateGradient:
    def test_manufactured_solution(self, rng):
        mesh = jittered_mesh(6, 6, rng)
        m = assemble(mesh)
        A = helmholtz_matrix(m, 300.0, 0.5, 0.5, G)
        want = rng.standard_normal(mesh.n_nodes)
        b = A @ want
        got, stats = conjugate_gradient(A, b, tol=1e-12)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))
        assert stats.residual <= 1e-12
        assert stats.iterations > 0

    def test_zero_rhs_short_circuits(self):
        A = sp.eye(5, format="csr")
        x, stats = conjugate_gradient(A, np.zeros(5))
        assert np.all(x == 0.0)
        assert stats == LinearSolveStats(0, 0.0)

    def test_indefinite_matrix_faults(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(SolverError, match="positive definite"):
            conjugate_gradient(A, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_faults_before_iterating(self, bad):
        # unchecked, a nan runs all 10 n iterations to a non-convergence
        # fault, and an inf also warns from the curvature product
        n = 2000
        A = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                     format="csr")
        b = np.ones(n)
        b[[1234, 1500]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="not finite at row 1234") as exc:
                conjugate_gradient(A, b)
        assert exc.value.stats.iterations == 0 and np.isnan(exc.value.stats.residual)

    def test_overflowing_rhs_norm_faults_before_iterating(self):
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="norm overflows") as exc:
            conjugate_gradient(sp.eye(4, format="csr"), np.full(4, 1e308))
        assert exc.value.stats.iterations == 0

    def test_nan_curvature_is_a_breakdown(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(SolverError, match="positive definite") as exc:
            conjugate_gradient(A, np.array([1.0, 1.0]))
        assert exc.value.stats.iterations == 1

    @pytest.mark.parametrize("solve", [
        lambda A, b, **kw: conjugate_gradient(A, b, **kw),
        lambda A, b, **kw: solve_elevation(ElevationSolver(A, np.empty(0, dtype=int)), b,
                                           np.empty(0), **kw),
    ], ids=["conjugate_gradient", "solve_elevation"])
    def test_default_tolerance_is_cg_tol(self, rng, solve):
        # every caller that passes no tol= stops at the one module constant;
        # 625 nodes, so the multigrid hierarchy is more than its dense level
        mesh = jittered_mesh(25, 25, rng)
        A = helmholtz_matrix(assemble(mesh), 300.0, 0.5, 0.5, G)
        b = rng.standard_normal(mesh.n_nodes)
        x_default, stats_default = solve(A, b)
        x_explicit, stats_explicit = solve(A, b, tol=CG_TOL)
        assert np.array_equal(x_default, x_explicit) and stats_default == stats_explicit
        assert 0.0 < stats_default.residual <= CG_TOL
        _, tighter = solve(A, b, tol=CG_TOL / 100)
        assert tighter.iterations > stats_default.iterations

    def test_nonconvergence_faults_with_stats(self, rng):
        mesh = jittered_mesh(5, 5, rng)
        A = helmholtz_matrix(assemble(mesh), 300.0, 0.5, 0.5, G)
        b = rng.standard_normal(mesh.n_nodes)
        with pytest.raises(SolverError, match="did not converge") as exc:
            conjugate_gradient(A, b, maxiter=2)
        assert exc.value.stats.iterations == 2
        assert exc.value.stats.residual > 0.0


class TestElevationRhs:
    def test_quiescent_zero(self):
        mesh = two_triangle_square(depth=1.0)
        m = assemble(mesh)
        state = State(np.zeros(4), np.zeros(4, dtype=complex))
        rhs = elevation_rhs(state, zero_increment(4), m, mesh,
                            RunConfig(tau_tilde=300.0), G)
        assert np.all(rhs == 0.0)

    def test_uniform_elevation_flat_bottom_zero(self):
        mesh = two_triangle_square(depth=1.0)
        m = assemble(mesh)
        state = State(np.full(4, 0.37), np.zeros(4, dtype=complex))
        rhs = elevation_rhs(state, zero_increment(4), m, mesh,
                            RunConfig(tau_tilde=300.0, theta1=1.0), G)
        assert np.max(np.abs(rhs)) < 1e-16

    def test_uniform_flux_is_null_vector(self):
        # H * u1 constant over a single element: Q1 @ ones vanishes, so the
        # right side is zero (uniform flux moves no water)
        mesh = build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                          [1.0] * 3, [LAND] * 3)
        m = assemble(mesh)
        state = State(np.zeros(3), velocity(np.ones(3), 0.0))
        rhs = elevation_rhs(state, zero_increment(3), m, mesh,
                            RunConfig(tau=1.0, tau_tilde=1.0, theta1=0.0), G)
        assert np.max(np.abs(rhs)) == 0.0

    def test_matches_dense_oracle(self, rng):
        mesh = jittered_mesh(5, 5, rng)
        n = mesh.n_nodes
        m = assemble(mesh)
        _, S, Q1, Q2 = dense_global_oracle(mesh)
        state = State(rng.uniform(-0.1, 0.1, n),
                      velocity(rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n)))
        d1 = rng.uniform(-0.01, 0.01, n)
        d2 = rng.uniform(-0.01, 0.01, n)
        d_star = velocity(d1, d2)
        cfg = RunConfig(tau_tilde=120.0, theta1=0.8, theta2=0.3)
        got = elevation_rhs(state, d_star, m, mesh, cfg, G)
        h = mesh.depth
        w1 = h * (state.u.real + cfg.theta1 * d1)
        w2 = h * (state.u.imag + cfg.theta1 * d2)
        want = -cfg.tau_tilde * (Q1 @ w1 + Q2 @ w2
                                 + cfg.tau_tilde * cfg.theta1 * G * (S @ state.eta))
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


class TestSolveElevation:
    def test_single_element_manufactured(self, rng):
        # A = M on one element: CG is exact within three iterations
        mesh = build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                          [1.0] * 3, [LAND] * 3)
        m = assemble(mesh)
        want = rng.standard_normal(3)
        got, _ = solve_elevation(ElevationSolver(m.M, np.empty(0, dtype=int)), m.M @ want,
                                 np.empty(0))
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    def test_no_constraints_manufactured(self, rng):
        mesh = jittered_mesh(5, 5, rng)
        m = assemble(mesh)
        want = rng.standard_normal(mesh.n_nodes)
        rhs = m.M @ want
        got, _ = solve_elevation(ElevationSolver(m.M, np.empty(0, dtype=int)), rhs,
                                 np.empty(0), tol=1e-13)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_dirichlet_values_exact(self, rng):
        mesh = rect_mesh(5, 5, 1.0, 1.0, depth=1.0, boundary_tag=OPEN)
        m = assemble(mesh)
        A = helmholtz_matrix(m, 10.0, 0.5, 0.5, G)
        rhs = rng.standard_normal(mesh.n_nodes)
        open_nodes = mesh.open_nodes
        values = rng.uniform(-1.0, 1.0, open_nodes.size)
        d_eta, _ = solve_elevation(ElevationSolver(A, open_nodes), rhs, values, tol=1e-12)
        assert np.array_equal(d_eta[open_nodes], values)

    def test_constrained_manufactured_solution(self, rng):
        mesh = rect_mesh(6, 4, 2.0, 1.0, depth=1.0, boundary_tag=OPEN)
        m = assemble(mesh)
        A = helmholtz_matrix(m, 50.0, 0.7, 0.6, G)
        want = rng.standard_normal(mesh.n_nodes)
        rhs = A @ want
        open_nodes = mesh.open_nodes
        d_eta, _ = solve_elevation(ElevationSolver(A, open_nodes), rhs, want[open_nodes],
                                   tol=1e-13)
        assert np.max(np.abs(d_eta - want)) < 1e-8 * np.max(np.abs(want))

    def test_blocks_are_spmatrix_whatever_the_input(self, rng):
        # solve_elevation multiplies A_fo with *, the spmatrix matrix
        # product; from a csr_array or an ndarray it would be elementwise
        # (or a broadcast), with no error
        mesh = rect_mesh(25, 25, 1.0, 1.0, depth=1.0, boundary_tag=OPEN)
        A = helmholtz_matrix(assemble(mesh), 300.0, 0.5, 0.5, G)
        rhs = rng.standard_normal(mesh.n_nodes)
        values = rng.uniform(-1.0, 1.0, mesh.open_nodes.size)
        want, want_stats = solve_elevation(ElevationSolver(A, mesh.open_nodes), rhs, values)
        for given in (sp.csr_array(A), A.toarray()):
            solver = ElevationSolver(given, mesh.open_nodes)
            assert isinstance(solver.A_ff, sp.spmatrix) and isinstance(solver.A_fo, sp.spmatrix)
            got, stats = solve_elevation(solver, rhs, values)
            assert np.array_equal(got, want)
            assert stats == want_stats

    def test_single_prescribed_node(self, rng):
        mesh = two_triangle_square(depth=1.0, tag=OPEN)
        m = assemble(mesh)
        d_eta, stats = solve_elevation(ElevationSolver(m.M, np.array([2])), np.zeros(4),
                                       np.array([0.25]))
        assert d_eta[2] == 0.25
        assert stats.iterations > 0


class TestVelocityCorrection:
    def test_uniform_target_zero(self):
        mesh = two_triangle_square(depth=1.0)
        m = assemble(mesh)
        state = State(np.full(4, 0.2), np.zeros(4, dtype=complex))
        d_u = velocity_correction(state, np.full(4, 0.1), m, RunConfig(tau_tilde=300.0), G)
        assert np.max(np.abs(d_u.real)) == 0.0 and np.max(np.abs(d_u.imag)) == 0.0

    def test_linear_elevation_slope(self):
        # eta = x1 on a flat interior: du1 = -tau_tilde * g, du2 = 0
        mesh = rect_mesh(6, 6, 1.0, 1.0, depth=1.0)
        m = assemble(mesh)
        n = mesh.n_nodes
        state = State(mesh.coords[:, 0].copy(), np.zeros(n, dtype=complex))
        cfg = RunConfig(tau=1.0, tau_tilde=2.0, theta2=0.0)
        d_u = velocity_correction(state, np.zeros(n), m, cfg, G)
        interior = np.flatnonzero(mesh.tags == 0)
        assert np.allclose(d_u.real[interior], -cfg.tau_tilde * G, rtol=1e-12)
        assert np.max(np.abs(d_u.imag[interior])) < 1e-9

    def test_theta2_zero_ignores_increment(self, rng):
        mesh = jittered_mesh(4, 4, rng)
        m = assemble(mesh)
        n = mesh.n_nodes
        state = State(rng.uniform(-0.1, 0.1, n), np.zeros(n, dtype=complex))
        cfg = RunConfig(tau=1.0, tau_tilde=10.0, theta2=0.0)
        a = velocity_correction(state, np.zeros(n), m, cfg, G)
        b = velocity_correction(state, rng.standard_normal(n), m, cfg, G)
        assert np.array_equal(a.real, b.real) and np.array_equal(a.imag, b.imag)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complex_result_is_two_real_products_bitwise(self, seed):
        # each part is -tau_tilde g Qi (eta + theta2 d_eta) / M_L, evaluated
        # as one real product: no complex arithmetic enters either part
        rng = np.random.default_rng(seed)
        mesh = jittered_mesh(7, 6, rng, scale=1e3)
        m = assemble(mesh)
        n = mesh.n_nodes
        state = State(rng.uniform(-0.1, 0.1, n), np.zeros(n, dtype=complex))
        d_eta = rng.uniform(-0.01, 0.01, n)
        cfg = RunConfig(tau=2.0, tau_tilde=rng.choice([60.0, 300.0]), theta2=rng.uniform())
        d_u = velocity_correction(state, d_eta, m, cfg, G)
        assert d_u.dtype == complex and d_u.shape == (n,)
        target = state.eta + cfg.theta2 * d_eta
        for part, Q in ((d_u.real, m.Q1), (d_u.imag, m.Q2)):
            want = (-cfg.tau_tilde * G * (Q @ target)) / m.M_L
            assert part.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make_mesh", [
        lambda: rect_mesh(6, 5, 1.0, 1.0, depth=1.0),
        lambda: jittered_mesh(7, 7, np.random.default_rng(7)),
    ], ids=["rect", "jittered"])
    def test_lumped_correction_exact_on_linear_fields(self, make_mesh):
        # Q1 @ x1 and Q2 @ x2 equal the lumped mass row by row on any mesh,
        # so eta = a x1 + b x2 + c gives d_u = -tau_tilde g (a, b) at every
        # interior node, to rounding
        mesh = make_mesh()
        m = assemble(mesh)
        n = mesh.n_nodes
        a, b, c = 0.3, -0.7, 0.05
        x1, x2 = mesh.coords[:, 0], mesh.coords[:, 1]
        state = State(a * x1 + b * x2 + c, np.zeros(n, dtype=complex))
        cfg = RunConfig(tau=1.0, tau_tilde=2.0, theta2=0.0)
        d_u = velocity_correction(state, np.zeros(n), m, cfg, G)
        interior = np.flatnonzero(mesh.tags == 0)
        assert np.max(np.abs(d_u.real[interior] + cfg.tau_tilde * G * a)) <= 1e-12
        assert np.max(np.abs(d_u.imag[interior] + cfg.tau_tilde * G * b)) <= 1e-12


class TestLandProjection:
    def test_axis_aligned_wall(self):
        mesh = rect_mesh(5, 5, 1.0, 1.0, depth=1.0)
        u = velocity(np.full(mesh.n_nodes, 0.3), 0.2)
        project_land_velocity(u, mesh)
        u1, u2 = u.real, u.imag
        wall = 1 * 5 + 0   # node (i=1, j=0) on the y=0 wall, normal (0,-1)
        assert u1[wall] == 0.3 and u2[wall] == 0.0
        side = 0 * 5 + 2   # node (i=0, j=2) on the x=0 wall, normal (-1,0)
        assert u1[side] == 0.0 and u2[side] == 0.2

    def test_corner_fully_clamped(self):
        mesh = rect_mesh(5, 5, 1.0, 1.0, depth=1.0)
        u = velocity(np.full(mesh.n_nodes, 0.3), 0.2)
        project_land_velocity(u, mesh)
        assert u[0].real == 0.0 and u[0].imag == 0.0

    @staticmethod
    def project_parts(u1, u2, mesh):
        """The projection on two real arrays, in place: corners zeroed,
        walls lose u . n along n."""
        u1[mesh.corner_nodes] = 0.0
        u2[mesh.corner_nodes] = 0.0
        nx, ny = mesh.wall_normals[:, 0], mesh.wall_normals[:, 1]
        un = u1[mesh.wall_nodes] * nx + u2[mesh.wall_nodes] * ny
        u1[mesh.wall_nodes] -= un * nx
        u2[mesh.wall_nodes] -= un * ny

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_equals_projection_of_real_copies(self, rng, signed_zeros):
        # projecting the complex array writes into it, bitwise as projecting
        # real copies of its parts, signs of zero included
        mesh = jittered_mesh(6, 5, rng)
        assert mesh.wall_nodes.size and mesh.corner_nodes.size
        u1, u2 = rng.standard_normal(mesh.n_nodes), rng.standard_normal(mesh.n_nodes)
        if signed_zeros:   # -0.0 and +0.0 parts on walls, corners and inside
            u1[::3], u2[1::3] = -0.0, -0.0
            u1[1::4], u2[::4] = 0.0, -0.0
        z = velocity(u1, u2)
        before = z.copy()
        self.project_parts(u1, u2, mesh)
        project_land_velocity(z, mesh)
        assert not np.array_equal(z, before)
        assert z.real.tobytes() == u1.tobytes() and z.imag.tobytes() == u2.tobytes()

    def test_interior_untouched(self, rng):
        mesh = rect_mesh(5, 5, 1.0, 1.0, depth=1.0)
        u = velocity(rng.standard_normal(mesh.n_nodes), rng.standard_normal(mesh.n_nodes))
        keep = u.copy()
        project_land_velocity(u, mesh)
        interior = mesh.tags == 0
        assert np.array_equal(u.real[interior], keep.real[interior])
        assert np.array_equal(u.imag[interior], keep.imag[interior])


class TestApplyBoundaries:
    def test_constant_zero_tide(self):
        mesh = rect_mesh(4, 4, 1.0, 1.0, depth=1.0, boundary_tag=OPEN)
        n = mesh.n_nodes
        state = State(np.full(n, 0.5), np.zeros(n, dtype=complex), t=100.0)
        apply_boundaries(state, mesh, Forcings().tide_at(100.0))
        assert np.all(state.eta[mesh.open_nodes] == 0.0)

    def test_linear_interpolation(self):
        mesh = rect_mesh(4, 4, 1.0, 1.0, depth=1.0, boundary_tag=OPEN)
        n = mesh.n_nodes
        tide = TimeSeries([0.0, 3600.0], [[0.0], [1.0]], name="tide")
        state = State(np.zeros(n), np.zeros(n, dtype=complex), t=1800.0)
        apply_boundaries(state, mesh, Forcings(tide=tide).tide_at(1800.0))
        assert np.all(state.eta[mesh.open_nodes] == 0.5)

    def test_out_of_range_faults(self):
        # the step reads the tide once, through Forcings.tide_at, and that
        # read is where a time outside the series faults
        tide = TimeSeries([0.0, 100.0], [[0.0], [1.0]], name="tide")
        with pytest.raises(ForcingError, match="outside"):
            Forcings(tide=tide).tide_at(101.0)


class TestConservationAndRest:
    def test_lake_at_rest_increments_exactly_zero(self):
        mesh = rect_mesh(5, 5, 100.0, 100.0, depth=2.0)
        m = assemble(mesh)
        n = mesh.n_nodes
        state = State(np.zeros(n), np.zeros(n, dtype=complex))
        cfg = RunConfig(tau_tilde=300.0)
        A = helmholtz_matrix(m, cfg.tau_tilde, cfg.theta1, cfg.theta2, G)
        rhs = elevation_rhs(state, zero_increment(n), m, mesh, cfg, G)
        d_eta, stats = solve_elevation(ElevationSolver(A, mesh.open_nodes), rhs, np.empty(0))
        assert np.all(d_eta == 0.0) and stats.iterations == 0
        d_u = velocity_correction(state, d_eta, m, cfg, G)
        assert np.all(d_u.real == 0.0) and np.all(d_u.imag == 0.0)

    def test_closed_basin_mass_per_step(self, rng):
        # wall-compatible random state: lumped-mass integral of the
        # elevation moves by < 1e-8 relative in one implicit step
        mesh = rect_mesh(8, 7, 500.0, 400.0, depth=2.0)
        m = assemble(mesh)
        n = mesh.n_nodes
        u = velocity(rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n))
        project_land_velocity(u, mesh)
        d_star = velocity(rng.uniform(-0.02, 0.02, n), rng.uniform(-0.02, 0.02, n))
        project_land_velocity(d_star, mesh)
        state = State(rng.uniform(-0.05, 0.05, n), u)
        cfg = RunConfig(tau_tilde=300.0)
        A = helmholtz_matrix(m, cfg.tau_tilde, cfg.theta1, cfg.theta2, G)
        rhs = elevation_rhs(state, d_star, m, mesh, cfg, G)
        d_eta, _ = solve_elevation(ElevationSolver(A, mesh.open_nodes), rhs, np.empty(0),
                                   tol=1e-12)
        mass_before = float(m.M_L @ state.eta)
        mass_after = float(m.M_L @ (state.eta + d_eta))
        scale = max(abs(mass_before), float(m.M_L @ np.abs(state.eta)))
        assert abs(mass_after - mass_before) <= 1e-8 * scale

    def test_node_ordering_independence(self, rng):
        mesh = rect_mesh(5, 4, 200.0, 150.0, depth=1.5)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.argsort(perm)
        permuted = build_mesh(mesh.coords[inv], perm[mesh.triangles],
                              mesh.depth[inv], mesh.tags[inv])
        n = mesh.n_nodes
        eta = rng.uniform(-0.05, 0.05, n)
        u1 = rng.uniform(-0.2, 0.2, n)
        u2 = rng.uniform(-0.2, 0.2, n)
        cfg = RunConfig(tau_tilde=60.0, theta1=0.5, theta2=0.5)

        def solve_on(mesh_, eta_, u1_, u2_):
            m_ = assemble(mesh_)
            st = State(eta_.copy(), velocity(u1_, u2_))
            A = helmholtz_matrix(m_, cfg.tau_tilde, cfg.theta1, cfg.theta2, G)
            rhs = elevation_rhs(st, zero_increment(len(eta_)), m_, mesh_, cfg, G)
            d_eta, _ = solve_elevation(ElevationSolver(A, mesh_.open_nodes), rhs,
                                       np.empty(0), tol=1e-13)
            return d_eta

        base = solve_on(mesh, eta, u1, u2)
        shuffled = solve_on(permuted, eta[inv], u1[inv], u2[inv])
        assert np.max(np.abs(shuffled - base[inv])) < 1e-9 * max(1.0, np.max(np.abs(base)))


class EtaRecorder:
    """Stands in for a run's OutputWriter and keeps eta after every step."""

    def __init__(self):
        self.eta = []

    def gauges(self, state):
        self.eta.append(state.eta.copy())

    def snapshot(self, *args):
        pass

    log_step = summary = close = snapshot


class TestStopTolerance:
    """CG_TOL against a tight stop, on whole runs whose CG iterates.

    Both meshes have more than 300 free nodes, so the multigrid
    hierarchy is more than its dense level.  The outer step's own error
    in eta is some 1e-3 m; the stop may move eta by at most 1e-7 m, the
    benchmark's reference tolerance.
    """

    @staticmethod
    def run_eta(monkeypatch, mesh, state, cfg, forcings, tol=None):
        with monkeypatch.context() as patch:
            if tol is not None:
                solve = simulator.solve_elevation
                patch.setattr(simulator, "solve_elevation",
                              lambda *args: solve(*args, tol=tol))
            sink = EtaRecorder()
            summary = simulator.run(state, mesh, assemble(mesh), PhysicalParams(), cfg,
                                    forcings, sink)
        assert summary.completed and summary.gate_violations == 0
        return np.array(sink.eta), summary

    def compare(self, monkeypatch, mesh, state, cfg, forcings):
        eta, chosen = self.run_eta(monkeypatch, mesh, state, cfg, forcings)
        eta_tight, tight = self.run_eta(monkeypatch, mesh, state, cfg, forcings, tol=1e-12)
        assert mesh.n_nodes - mesh.open_nodes.size > 300
        assert 1 < chosen.cg_worst_iterations < tight.cg_worst_iterations
        assert chosen.cg_worst_residual <= CG_TOL and tight.cg_worst_residual <= 1e-12
        assert eta.shape == (cfg.n_steps + 1, mesh.n_nodes)
        assert np.max(np.abs(eta - eta_tight)) <= 1e-7
        return chosen

    def test_open_channel_with_tide_and_wind(self, monkeypatch):
        mesh = jittered_channel(41, 11, 20000.0, 5000.0, np.random.default_rng(3))
        forcings = Forcings(tide=load_tide(DEMO / "tide.txt"), wind=load_wind(DEMO / "wind.txt"))
        cfg = RunConfig(tau=3.0, tau_tilde=300.0, duration=7200.0)
        self.compare(monkeypatch, mesh, initial_state(mesh.n_nodes), cfg, forcings)

    def test_closed_basin_seiche(self, monkeypatch):
        mesh = jittered_mesh(25, 25, np.random.default_rng(4), scale=20000.0, depth=50.0)
        eta = 0.2 + 0.05 * np.cos(np.pi * mesh.coords[:, 0] / 20000.0)
        state = State(eta, np.zeros(mesh.n_nodes, dtype=complex))
        cfg = RunConfig(tau=60.0, tau_tilde=600.0, duration=12000.0)
        summary = self.compare(monkeypatch, mesh, state, cfg, Forcings())
        assert mesh.open_nodes.size == 0
        assert summary.mass_drift_rel <= 1e-8
