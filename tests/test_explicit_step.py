from pathlib import Path

import numpy as np
import pytest

from helpers import (advance, jittered_mesh, real_taylor_galerkin_increment, rect_mesh,
                     source_terms, substep_increment, two_triangle_square, velocity)
from swsplit import implicit_step
from swsplit.explicit_step import (frozen_coefficients, sub_cycle_work,
                                    taylor_galerkin_increment)
from swsplit.fem import assemble
from swsplit.forcing import Forcings
from swsplit.mesh import load_mesh
from swsplit.simulator import RunConfig
from swsplit.stability import PhysicalParams, source_update_matrix
from swsplit.state import State


def uniform_state(mesh, u1, u2, eta=0.0):
    n = mesh.n_nodes
    return State(np.full(n, float(eta)), velocity(np.full(n, float(u1)), float(u2)), 0.0)


class TestSourceTerms:
    def test_quiescent(self, params):
        mesh = two_triangle_square(depth=0.1)
        r1, r2 = source_terms(uniform_state(mesh, 0.0, 0.0), mesh, params)
        assert np.all(r1 == 0.0) and np.all(r2 == 0.0)

    def test_reference_drag_point(self, params):
        # u = (0.1, 0) over H = 0.1: r1 = -D u1, r2 = -k0 u1
        mesh = two_triangle_square(depth=0.1)
        r1, r2 = source_terms(uniform_state(mesh, 0.1, 0.0), mesh, params)
        assert np.allclose(r1, -0.000613125, rtol=1e-12)
        assert np.allclose(r2, -1.0e-5, rtol=1e-12)

    def test_wind_stress(self):
        mesh = two_triangle_square(depth=0.1)
        p = PhysicalParams(xi=3.2e-6)
        r1, r2 = source_terms(uniform_state(mesh, 0.0, 0.0), mesh, p,
                              wind=(10.0, 0.0))
        assert np.allclose(r1, 3.2e-6 * 10.0 * 10.0 / 0.1, rtol=1e-12)
        assert np.all(r2 == 0.0)

    def test_frozen_coefficients_clamp(self, params):
        mesh = two_triangle_square(depth=0.1)
        eta = np.full(mesh.n_nodes, -0.2)   # would drive H + eta negative
        drag_per_speed, wind_factor = frozen_coefficients(eta, mesh, params)
        assert np.all(drag_per_speed == params.g / (params.k1 ** 2 * params.h_min))
        assert np.all(wind_factor == params.xi / params.h_min)


DEMO_MESH = Path(__file__).resolve().parent.parent / "demo" / "channel.mesh"


def random_state(mesh, rng):
    n = mesh.n_nodes
    return State(rng.uniform(-0.2, 0.2, n),
                 velocity(rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n)), 0.0)


class TestRealTwoStageOracle:
    """The complex sub-step against the real two-stage form it rewrites."""

    @staticmethod
    def assert_matches_oracle(mesh, rng, params, wind):
        matrices = assemble(mesh)
        for _ in range(3):
            state = random_state(mesh, rng)
            tau = rng.uniform(0.5, 4.0)
            got = substep_increment(state, wind, matrices, params, tau,
                                    frozen_coefficients(state.eta, mesh, params))
            want = real_taylor_galerkin_increment(state, mesh, params, tau, wind)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("wind", [(0.0, 0.0), (6.0, -3.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_real_form_on_jittered_meshes(self, params, seed, wind):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(4, 30, size=2)
        mesh = jittered_mesh(nx, ny, rng, scale=rng.uniform(1.0, 1e4))
        self.assert_matches_oracle(mesh, rng, params, wind)

    @pytest.mark.parametrize("wind", [(0.0, 0.0), (6.0, -3.0)])
    def test_matches_real_form_on_demo_mesh(self, params, rng, wind):
        self.assert_matches_oracle(load_mesh(DEMO_MESH), rng, params, wind)

    @pytest.mark.parametrize("mesh_name", ["demo", "jittered"])
    def test_sub_cycle_matches_iterated_real_form(self, params, rng, mesh_name):
        # 100 sub-steps through one work, with a wind that turns from one
        # sub-step to the next: the complex form drifts from the real one
        # by rounding only
        mesh = load_mesh(DEMO_MESH) if mesh_name == "demo" else \
            jittered_mesh(13, 9, rng, scale=1e3)
        matrices = assemble(mesh)
        state = random_state(mesh, rng)
        tau, n_sub = 3.0, 100
        frozen = frozen_coefficients(state.eta, mesh, params)
        work = sub_cycle_work(frozen, params, tau)
        w = state.u.copy()
        u1, u2 = state.u.real.copy(), state.u.imag.copy()
        for k in range(n_sub):
            wind = (6.0 * np.cos(0.03 * k), -3.0 + 0.05 * k)
            w += taylor_galerkin_increment(w, wind, matrices, work=work)
            d_u1, d_u2 = real_taylor_galerkin_increment(State(state.eta, velocity(u1, u2)),
                                                        mesh, params, tau, wind)
            u1, u2 = u1 + d_u1, u2 + d_u2
        for got, want in ((w.real, u1), (w.imag, u2)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_paired_product_equals_two_real_products(rng):
    # the sub-step applies the interleaved G = G_s kron I_2 to a float
    # view in one product; it must equal G_s on the real and imaginary
    # parts apart, bitwise
    for mesh in (load_mesh(DEMO_MESH), jittered_mesh(9, 7, rng, scale=1e3)):
        G = assemble(mesh).G
        G_s, G_odd = G[0::2, 0::2], G[1::2, 1::2]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(G_odd, name), getattr(G_s, name)), name
        assert G[0::2, 1::2].nnz == 0 and G[1::2, 0::2].nnz == 0
        x = np.empty(mesh.n_nodes, dtype=complex)
        x.real, x.imag = rng.standard_normal((2, mesh.n_nodes))
        paired = (G @ x.view(float)).view(complex)
        assert paired.real.tobytes() == (G_s @ x.real).tobytes()
        assert paired.imag.tobytes() == (G_s @ x.imag).tobytes()


class TestTaylorGalerkinIncrement:
    def test_quiescent_zero(self, params):
        mesh = rect_mesh(4, 4, 1.0, 1.0, depth=0.5)
        state = uniform_state(mesh, 0.0, 0.0)
        d_u1, d_u2 = substep_increment(state, (0.0, 0.0), assemble(mesh), params, 3.0,
                                       frozen_coefficients(state.eta, mesh, params))
        assert np.all(d_u1 == 0.0) and np.all(d_u2 == 0.0)

    def test_uniform_field_matches_recursion(self, params, rng):
        # any mesh, any uniform state: the sub-step is the 2x2 map
        for mesh in (two_triangle_square(depth=0.1), jittered_mesh(5, 4, rng, depth=0.3)):
            matrices = assemble(mesh)
            for _ in range(20):
                u1, u2 = rng.uniform(-0.3, 0.3, size=2)
                eta = rng.uniform(-0.02, 0.1)
                tau = rng.uniform(0.5, 4.0)
                state = uniform_state(mesh, u1, u2, eta)
                d_u1, d_u2 = substep_increment(
                    state, (0.0, 0.0), matrices, params, tau,
                    frozen_coefficients(state.eta, mesh, params))
                h = max(float(mesh.depth[0]) + eta, params.h_min)
                D = params.g * float(np.hypot(u1, u2)) / (params.k1 ** 2 * h)
                T = source_update_matrix(tau, params.k0, D)
                expected = T @ np.array([u1, u2]) - np.array([u1, u2])
                assert np.max(np.abs(d_u1 - expected[0])) < 1e-12
                assert np.max(np.abs(d_u2 - expected[1])) < 1e-12

    def test_uniform_sources_skip_galerkin_correction(self, params):
        # spatially uniform sources: the increment is the pointwise
        # two-stage value, element means cancel exactly
        mesh = rect_mesh(5, 5, 10.0, 10.0, depth=0.2)
        state = uniform_state(mesh, 0.05, -0.02)
        tau = 2.0
        d_u1, d_u2 = substep_increment(state, (1.0, 2.0), assemble(mesh), params, tau,
                                       frozen_coefficients(state.eta, mesh, params))
        h = 0.2
        speed = np.hypot(0.05, -0.02)
        drag = params.g * speed / (params.k1 ** 2 * h)
        wind_speed = np.hypot(1.0, 2.0)
        w1 = params.xi * wind_speed * 1.0 / h
        w2 = params.xi * wind_speed * 2.0 / h

        def src(u1, u2):
            return (params.k0 * u2 - drag * u1 + w1,
                    -params.k0 * u1 - drag * u2 + w2)

        r1, r2 = src(0.05, -0.02)
        r1h, r2h = src(0.05 + 0.5 * tau * r1, -0.02 + 0.5 * tau * r2)
        assert np.allclose(d_u1, tau * r1h, rtol=0, atol=1e-15)
        assert np.allclose(d_u2, tau * r2h, rtol=0, atol=1e-15)

    def test_wind_enters_with_frozen_height(self, params, rng):
        # uniform state + wind: compare against the affine closed form
        mesh = two_triangle_square(depth=0.4)
        u = np.array([0.1, -0.05])
        wind = (6.0, -3.0)
        tau = 3.0
        state = uniform_state(mesh, *u, eta=0.05)
        d_u1, d_u2 = substep_increment(state, wind, assemble(mesh), params, tau,
                                       frozen_coefficients(state.eta, mesh, params))
        h = 0.45
        D = params.g * float(np.hypot(*u)) / (params.k1 ** 2 * h)
        wspeed = np.hypot(*wind)
        w = params.xi * wspeed * np.array(wind) / h
        G = np.array([[-D, params.k0], [-params.k0, -D]])
        half = u + 0.5 * tau * (G @ u + w)
        expected = tau * (G @ half + w)
        assert np.max(np.abs([d_u1[0], d_u2[0]] - expected)) < 1e-15

    def test_calm_sub_step_gives_no_negative_zero(self, params, rng):
        # snapshots print -0.0 and 0.0 apart: a calm sub-step, at rest or on
        # velocities with +0.0 and -0.0 entries, leaves every zero it gives +0.0
        mesh = load_mesh(DEMO_MESH)
        matrices = assemble(mesh)
        n = mesh.n_nodes
        states = [np.zeros(n, dtype=complex)]
        for _ in range(50):
            w = np.empty(n, dtype=complex)
            w.real, w.imag = np.where(rng.random((2, n)) < 0.8,
                                      rng.choice([0.0, -0.0], size=(2, n)),
                                      rng.uniform(-0.3, 0.3, size=(2, n)))
            states.append(w)
        zeros = 0
        for w in states:
            eta = rng.uniform(-0.2, 0.2, n)
            work = sub_cycle_work(frozen_coefficients(eta, mesh, params), params, 3.0)
            floats = taylor_galerkin_increment(w, (0.0, 0.0), matrices, work=work).view(float)
            zeros += np.count_nonzero(floats == 0.0)
            assert not np.any(np.signbit(floats[floats == 0.0]))
        assert zeros >= 2 * n

    def test_coriolis_only_norm_defect(self, params):
        # drag off (zero speed never happens; emulate with huge k1):
        # one step scales |u|^2 by exactly 1 + tau^4 k0^4 / 4
        p = PhysicalParams(k0=1e-2, k1=1e12)
        mesh = two_triangle_square(depth=1.0)
        tau = 3.0
        matrices = assemble(mesh)
        # one work for all 200 sub-steps: eta never changes
        work = sub_cycle_work(frozen_coefficients(np.zeros(mesh.n_nodes), mesh, p), p, tau)
        w = np.ones(mesh.n_nodes, dtype=complex)
        normsq = [1.0]
        for _ in range(200):
            w += taylor_galerkin_increment(w, (0.0, 0.0), matrices, work=work)
            normsq.append(float(w[0].real ** 2 + w[0].imag ** 2))
        normsq = np.array(normsq)
        growth = normsq[1:] / normsq[:-1]
        assert np.allclose(growth, 1.0 + tau ** 4 * p.k0 ** 4 / 4.0, rtol=1e-10)
        assert np.all(np.diff(normsq) > 0.0)   # monotone divergence

    def test_nonfinite_fault(self, params, monkeypatch):
        # the outer step scans the accumulated increment once, after the
        # sub-cycle, so a NaN never reaches the elevation solve's CG
        mesh = two_triangle_square(depth=0.1)
        state = uniform_state(mesh, 0.1, 0.0)
        state.u.real[1] = np.nan
        calls = []
        monkeypatch.setattr(implicit_step, "conjugate_gradient",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(FloatingPointError, match="non-finite d_u1 at node"):
            advance(mesh, state, params, RunConfig(gate_mode="off"), Forcings(), 1)
        assert calls == []

    def test_elevation_never_touched(self, params):
        # the sub-step reads no elevation and returns velocities only
        mesh = two_triangle_square(depth=0.2)
        state = uniform_state(mesh, 0.2, 0.1)
        d_u1, d_u2 = substep_increment(state, (0.0, 0.0), assemble(mesh), params, 1.0,
                                       frozen_coefficients(state.eta, mesh, params))
        assert d_u1.shape == d_u2.shape == (mesh.n_nodes,)
