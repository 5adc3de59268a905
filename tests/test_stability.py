import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import bisect_root, cubic_value
from swsplit import stability
from swsplit.stability import (PhysicalParams, build_report,
                               coupled_amplification_matrix,
                               critical_time_step, critical_time_step_for_drag,
                               cubic_coefficients, drag_coefficient,
                               is_convergent_cubic, map_cubic_coefficients,
                               source_amplification_matrix,
                               source_update_matrix, step_coefficients,
                               velocity_mode_modulus)

# reference operating point: |u| = 0.1 m/s over H = 0.1 m of water
D_REF = 0.00613125
K0_REF = 1e-4


def modulus_converges(tau, k0, D):
    """The report's modulus verdict: |velocity eigenpair| < 1 (strict)."""
    return velocity_mode_modulus(*step_coefficients(tau, k0, D)) < 1.0


class TestDragCoefficient:
    def test_reference_value(self, params):
        assert drag_coefficient(0.1, 0.1, params) == pytest.approx(D_REF, rel=1e-12)

    def test_zero_speed(self, params):
        assert drag_coefficient(0.0, 0.1, params) == 0.0

    def test_depth_scaling(self, params):
        d1 = drag_coefficient(0.1, 0.1, params)
        d2 = drag_coefficient(0.1, 0.2, params)
        assert d2 == pytest.approx(d1 / 2.0, rel=1e-14)


class TestStepCoefficients:
    def test_zero_step_limit(self):
        for tau in (1e-6, 1e-9):
            alpha, beta = step_coefficients(tau, K0_REF, D_REF)
            assert abs(alpha) < 1e-5 * tau / 1e-6 and abs(beta) < 1e-5

    def test_reference_point(self):
        alpha, beta = step_coefficients(3.0, K0_REF, D_REF)
        assert alpha == pytest.approx(-0.0182246, abs=1e-7)
        assert beta == pytest.approx(-0.0548813, abs=1e-7)

    def test_drag_free(self):
        alpha, beta = step_coefficients(1.0, 1e-4, 0.0)
        assert alpha == pytest.approx(-5e-9, rel=1e-12)
        assert beta == pytest.approx(1e-4, rel=1e-12)


class TestSourceAmplification:
    def test_identity_at_origin(self):
        assert np.array_equal(source_amplification_matrix(0.0, 0.0), np.eye(3))

    def test_collapsed_velocity_block(self):
        eig = np.sort(np.linalg.eigvals(source_amplification_matrix(-1.0, 0.0)).real)
        assert np.allclose(eig, [0.0, 0.0, 1.0], atol=1e-14)

    def test_spectrum_against_eigensolver(self, rng):
        for _ in range(1000):
            alpha, beta = rng.uniform(-2.0, 2.0, size=2)
            J = source_amplification_matrix(alpha, beta)
            computed = np.sort_complex(np.linalg.eigvals(J))
            analytic = np.sort_complex(np.array(
                [1.0, complex(1.0 + alpha, beta), complex(1.0 + alpha, -beta)]))
            assert np.max(np.abs(computed - analytic)) < 1e-12


class TestCoupledAmplification:
    def test_flat_bottom_equals_source_matrix(self, rng):
        alpha, beta = rng.uniform(-1, 1, size=2)
        J2 = coupled_amplification_matrix(alpha, beta, 300.0, 0.7, (0.0, 0.0))
        assert np.array_equal(J2, source_amplification_matrix(alpha, beta))

    def test_theta1_zero_first_row(self):
        J2 = coupled_amplification_matrix(0.3, -0.2, 5.0, 0.0, (0.01, -0.02))
        assert np.allclose(J2[0], [1.0, -5.0 * 0.01, -5.0 * (-0.02)], atol=1e-15)

    def test_velocity_moduli_match_source_matrix(self, rng):
        # also proves the spectrum ignores tau_tilde and theta1
        for _ in range(1000):
            alpha, beta = rng.uniform(-2.0, 2.0, size=2)
            grad_h = rng.uniform(-1.0, 1.0, size=2)
            tau_tilde = rng.uniform(1e-3, 600.0)
            theta1 = rng.uniform(0.0, 1.0)
            J2 = coupled_amplification_matrix(alpha, beta, tau_tilde, theta1, grad_h)
            moduli = np.sort(np.abs(np.linalg.eigvals(J2)))
            rho = velocity_mode_modulus(alpha, beta)
            expected = np.sort([1.0, rho, rho])
            assert np.max(np.abs(moduli - expected)) < 1e-12


class TestVelocityModeModulus:
    def test_neutral(self):
        assert velocity_mode_modulus(0.0, 0.0) == 1.0

    def test_reference_at_critical_step(self):
        alpha, beta = step_coefficients(5.41, K0_REF, D_REF)
        assert alpha == pytest.approx(-0.0326201, abs=1e-7)
        assert beta == pytest.approx(-0.178910, abs=1e-6)
        assert velocity_mode_modulus(alpha, beta) == pytest.approx(0.98379, abs=1e-5)

    def test_pure_rotation_growth(self):
        assert velocity_mode_modulus(0.0, 0.5) == pytest.approx(math.sqrt(1.25), rel=1e-15)


class TestCubicCoefficients:
    def test_drag_free_degenerates(self):
        a, b, c, d = cubic_coefficients(K0_REF, 0.0)
        assert (a, b, c, d) == (K0_REF ** 4, 0.0, 0.0, 0.0)

    def test_reference_point(self):
        a, b, c, d = cubic_coefficients(K0_REF, D_REF)
        assert a == pytest.approx(3.00738e-4, rel=1e-5)
        assert b == pytest.approx(5.82670e-6, rel=1e-5)
        assert c == pytest.approx(3.00738e-4, rel=1e-5)
        assert d == pytest.approx(4.905e-2, rel=1e-10)

    def test_coriolis_free(self):
        assert cubic_coefficients(0.0, 1.0) == (8.0, 4.0, 8.0, 8.0)


class TestCriticalTimeStep:
    def test_reference_point(self):
        tau_c = critical_time_step(*cubic_coefficients(K0_REF, D_REF))
        assert tau_c == pytest.approx(5.41, abs=0.02)

    def test_residual_is_a_root(self):
        a, b, c, d = cubic_coefficients(K0_REF, D_REF)
        tau_c = critical_time_step(a, b, c, d)
        assert abs(cubic_value(a, b, c, d, tau_c)) < 1e-9 * d
        # sign flips across the root
        assert cubic_value(a, b, c, d, tau_c * (1 - 1e-6)) < 0
        assert cubic_value(a, b, c, d, tau_c * (1 + 1e-6)) > 0

    def test_against_bisection(self):
        a, b, c, d = cubic_coefficients(K0_REF, D_REF)
        oracle = bisect_root(lambda t: cubic_value(a, b, c, d, t), 0.0, 100.0)
        assert critical_time_step(a, b, c, d) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("D", [1.2e-7, 1e-6, 1e-5])
    def test_against_bisection_where_p0_is_negative(self, D, monkeypatch):
        # basin_seiche's drag rates (about 1.2e-7 1/s) and up to 1e-5: there
        # the resolvent's p0 = -b^2 + 3ac is negative, the base of its cube;
        # the closed form must give the root without the bisection fallback
        a, b, c, d = cubic_coefficients(K0_REF, D)
        assert -b * b + 3.0 * a * c < 0.0

        def no_fallback(*cubic):
            raise AssertionError(f"bisection fallback taken for {cubic}")

        monkeypatch.setattr(stability, "_bisect_cubic", no_fallback)
        oracle = bisect_root(lambda t: cubic_value(a, b, c, d, t), 0.0, 1e4)
        assert critical_time_step(a, b, c, d) == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert critical_time_step_for_drag(K0_REF, np.array([D]))[0] == \
            pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_triple_root(self):
        assert critical_time_step(1.0, 3.0, 3.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("D", [1e-300, 1e-200])
    def test_underflowed_cubic_raises(self, D):
        # below D_MIN the cubic's terms underflow: at 1e-300 into a false
        # triple root (true root 4.3e-95 s), at 1e-200 into a Cardano root
        # that fails the residual test and a true root (9.3e-62 s) below
        # the bisection's resolution; neither may return a wrong root
        with pytest.raises(ValueError, match="^no positive root resolved") as exc:
            critical_time_step(*cubic_coefficients(K0_REF, D))
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("cubic, root", [
        ((1.0, 1040.5, 40520.0, 20000.0), 0.5),   # roots 0.5, 40 and 1000
        ((1.0, 6.0, 11.0, 6.0), 1.0),             # roots 1, 2 and 3
    ])
    def test_three_real_roots_give_the_smallest(self, cubic, root):
        # the sign of f first changes at the smallest root; past it the
        # explicit update no longer converges
        assert critical_time_step(*cubic) == pytest.approx(root, rel=1e-12)

    def test_drag_free_raises(self):
        with pytest.raises(ValueError, match="no positive root"):
            critical_time_step(*cubic_coefficients(K0_REF, 0.0))
        with pytest.raises(ValueError, match="no positive root"):
            critical_time_step_for_drag(K0_REF, 0.0)

    @pytest.mark.parametrize("cubic, condition", [
        ((-1.0, 1.0, 1.0, 1.0), "a <= 0"),
        ((0.0, 1.0, 1.0, 1.0), "a <= 0"),
        ((1.0, 1.0, 1.0, 0.0), "d <= 0"),
        ((1.0, 1.0, 1.0, -1.0), "d <= 0"),
    ], ids=["a_negative", "a_zero", "d_zero", "d_negative"])
    def test_refusal_names_the_failed_condition(self, cubic, condition):
        with pytest.raises(ValueError, match=f"^no positive root: {condition}, ") as exc:
            critical_time_step(*cubic)
        assert ("drag rate" in str(exc.value)) == (condition == "d <= 0")

    @pytest.mark.parametrize("D", [6.13125e6, 1e7, 6.13125e8])
    def test_root_past_a_million_seconds(self, D):
        # at large D the root lies near D/2; the bisection bracket ends at
        # 1 + (|b| + c + d) / a, past which f > 0, not at a fixed time
        cubic = cubic_coefficients(K0_REF, D)
        tau_c = critical_time_step(*cubic)
        assert tau_c == pytest.approx(D / 2.0, rel=1e-6)
        assert cubic_value(*cubic, tau_c * (1.0 - 1e-9)) < 0.0 < \
            cubic_value(*cubic, tau_c * (1.0 + 1e-9))

    def test_bisection_bracket_straddles_any_root(self):
        # t^3 - 2e18 has no local maximum: its one sign change, at
        # 2^(1/3) 1e6, lies inside the bound 1 + (|b| + c + d) / a
        assert stability._bisect_cubic(1.0, 0.0, 0.0, 2e18) == \
            pytest.approx(2.0 ** (1.0 / 3.0) * 1e6, rel=1e-12)

    def test_monotone_onset(self):
        tau_c = critical_time_step(*cubic_coefficients(K0_REF, D_REF))
        below = np.linspace(1e-3, tau_c - 1e-6, 2000)
        above = np.linspace(tau_c + 1e-6, tau_c + 10.0, 2000)
        assert all(is_convergent_cubic(t, K0_REF, D_REF) for t in below)
        assert not any(is_convergent_cubic(t, K0_REF, D_REF) for t in above)


# physical range of the gate: log-uniform drag rates, Coriolis up to 1e-3
log_drags = st.floats(-7.0, -1.0).map(lambda e: 10.0 ** e)
coriolis = st.floats(0.0, 1e-3)


class TestCriticalTimeStepArrays:
    """The array path of the Cardano evaluation against the scalar one."""

    @settings(max_examples=100, deadline=None)
    @given(drags=arrays(float, st.integers(1, 40), elements=log_drags), k0=coriolis)
    def test_matches_scalar_per_entry(self, drags, k0):
        got = critical_time_step_for_drag(k0, drags)
        want = np.array([critical_time_step_for_drag(k0, float(D)) for D in drags])
        assert got.shape == drags.shape
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=50, deadline=None)
    @given(drags=arrays(float, st.integers(1, 40),
                        elements=st.one_of(st.just(0.0), log_drags)), k0=coriolis)
    def test_zero_drag_entry_raises(self, drags, k0):
        if np.any(drags == 0.0):
            with pytest.raises(ValueError, match="no positive root"):
                critical_time_step_for_drag(k0, drags)
        else:
            assert np.all(critical_time_step_for_drag(k0, drags) > 0.0)

    def test_special_branches_inside_an_array_call(self, monkeypatch):
        bisected = []

        original = stability._bisect_cubic

        def spy(a, b, c, d):
            bisected.append((float(a), float(b), float(c), float(d)))
            return original(a, b, c, d)

        monkeypatch.setattr(stability, "_bisect_cubic", spy)
        ref = cubic_coefficients(K0_REF, D_REF)
        # triple root at 1; three real roots 1, 2, 3; the reference cubic
        cubics = np.array([(1.0, 3.0, 3.0, 1.0), (1.0, 6.0, 11.0, 6.0), ref]).T
        tau_c = critical_time_step(*cubics)
        assert tau_c[0] == 1.0
        assert bisected == [(1.0, 6.0, 11.0, 6.0)]
        assert abs(cubic_value(1.0, 6.0, 11.0, 6.0, tau_c[1])) < 1e-9
        for i in range(3):
            assert tau_c[i] == critical_time_step(*cubics[:, i])

    def test_large_drag_entries(self):
        # one entry at the reference scale and one whose root lies near
        # D/2 = 5e6 s: the array call bisects the second past 1e6 s
        drags = np.array([1e-3, 1e7])
        tau_c = critical_time_step(*cubic_coefficients(1e-4, drags))
        for D, t in zip(drags, tau_c):
            cubic = cubic_coefficients(1e-4, float(D))
            assert t == critical_time_step(*cubic)
            assert cubic_value(*cubic, t * (1.0 - 1e-9)) < 0.0 < \
                cubic_value(*cubic, t * (1.0 + 1e-9))
        assert tau_c[0] == pytest.approx(10.0, rel=1e-3)
        assert tau_c[1] == pytest.approx(5e6, rel=1e-6)

    def test_scalar_contract(self):
        tau_c = critical_time_step(*cubic_coefficients(K0_REF, D_REF))
        assert type(tau_c) is float
        assert type(critical_time_step_for_drag(K0_REF, D_REF)) is float
        with pytest.raises(ValueError, match="no positive root"):
            critical_time_step(np.array([1.0, 1.0]), 3.0, 3.0, np.array([1.0, 0.0]))


class TestGateRoot:
    """The gate's tau_c: the smaller of the paper's root and the running map's."""

    def test_map_cubic_is_the_sub_step_modulus(self, rng):
        # |z|^2 - 1 = tau / 4 times the map's cubic, z an eigenvalue of the sub-step
        for _ in range(200):
            tau, k0, D = rng.uniform(0.0, 5.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0)
            rho = max(abs(np.linalg.eigvals(source_update_matrix(tau, k0, D))))
            cubic = cubic_value(*map_cubic_coefficients(k0, D), tau)
            assert rho ** 2 - 1.0 == pytest.approx(tau * cubic / 4.0, rel=1e-9, abs=1e-12)
        assert map_cubic_coefficients(K0_REF, D_REF)[2:] == cubic_coefficients(K0_REF, D_REF)[2:]

    @pytest.mark.parametrize("k0", [0.0, 1e-4, 1e-3])
    def test_every_passed_step_contracts(self, k0):
        # both gaps of the paper's root: past D = 2 sqrt(2) its root grows like
        # D/2, and below about 5.9e-8 (k0 = 1e-4) or 3.3e-6 (k0 = 1e-3) 1/s it
        # exceeds the map's; the grid covers the non-monotone stretch (2.2, 2.83)
        drags = np.geomspace(1e-9, 1e3, 241)
        tau_c = critical_time_step_for_drag(k0, drags)
        for D, t in zip(drags, tau_c):
            for fraction in (1e-3, 0.5, 0.999, 1.0 - 1e-6):
                rho = max(abs(np.linalg.eigvals(source_update_matrix(fraction * t, k0, D))))
                assert rho < 1.0, (D, fraction * t)

    @pytest.mark.parametrize("k0", [0.0, 1e-4, 1e-2, 1.0, 2.8])
    def test_is_the_smaller_root(self, k0):
        # the one-pass selector evaluates the map's root only where it is the smaller
        drags = np.geomspace(1e-12, 1e6, 181)
        paper = critical_time_step(*cubic_coefficients(k0, drags))
        running = critical_time_step(*map_cubic_coefficients(k0, drags))
        assert np.allclose(critical_time_step_for_drag(k0, drags), np.minimum(paper, running),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("D, tau_c", [(1e-8, 930.0), (5.886, 0.3398), (20.0, 0.1)])
    def test_map_root_binds_in_both_gaps(self, D, tau_c):
        assert critical_time_step_for_drag(K0_REF, D) == pytest.approx(tau_c, rel=2e-3)
        assert critical_time_step(*cubic_coefficients(K0_REF, D)) > 2.0 * tau_c

    def test_out_of_range_drag_fails_every_step(self):
        drags = np.array([D_REF, 1e17, np.inf, np.nan, 1e-41, stability.D_MAX])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau_c = critical_time_step_for_drag(K0_REF, drags)
        assert tau_c[0] == critical_time_step_for_drag(K0_REF, D_REF)
        assert list(tau_c[1:5]) == [0.0] * 4
        assert 0.0 < tau_c[5] < 2.0 / stability.D_MAX
        with pytest.raises(ValueError, match="no positive root"):
            critical_time_step_for_drag(K0_REF, np.array([np.inf, 0.0]))


class TestVerdicts:
    def test_reference_tau3_converges(self):
        assert is_convergent_cubic(3.0, K0_REF, D_REF)

    def test_reference_tau6_diverges(self):
        assert not is_convergent_cubic(6.0, K0_REF, D_REF)

    def test_drag_free_never_converges(self):
        for tau in (0.01, 0.1, 1.0, 10.0, 100.0):
            assert not is_convergent_cubic(tau, K0_REF, 0.0)
        # the modulus excess is t^4 k0^4 / 4; assert the predicate where
        # that exceeds float resolution around 1.0
        for tau, k0 in ((10.0, 1e-4), (100.0, 1e-4), (1.0, 1e-2), (0.1, 0.5)):
            assert not modulus_converges(tau, k0, 0.0)

    def test_boundary_is_strict(self):
        tau_c = critical_time_step(*cubic_coefficients(K0_REF, D_REF))
        assert not is_convergent_cubic(5.41, K0_REF, D_REF)  # 5.41 > tau_c here
        # exactly at the root the inequality is strict, ties are non-convergent
        assert cubic_value(*cubic_coefficients(K0_REF, D_REF), tau_c) >= 0 or \
            not is_convergent_cubic(tau_c, K0_REF, D_REF)

    def test_small_tau_with_drag_converges(self):
        assert modulus_converges(1e-3, K0_REF, D_REF)
        assert is_convergent_cubic(1e-3, K0_REF, D_REF)

    def test_modulus_equals_expanded_inequality(self, rng):
        for _ in range(500):
            tau = rng.uniform(1e-3, 20.0)
            k0 = rng.uniform(0.0, 1e-2)
            D = rng.uniform(0.0, 0.1)
            alpha, beta = step_coefficients(tau, k0, D)
            assert modulus_converges(tau, k0, D) == \
                (2.0 * alpha + alpha ** 2 + beta ** 2 < 0.0)

    def test_drag_free_modulus_identity(self):
        # (1 - t^2 k0^2/2)^2 + t^2 k0^2 = 1 + t^4 k0^4 / 4 >= 1
        for tau in (0.1, 1.0, 10.0):
            alpha, beta = step_coefficients(tau, K0_REF, 0.0)
            excess = (1 + alpha) ** 2 + beta ** 2 - 1.0
            assert excess == pytest.approx(tau ** 4 * K0_REF ** 4 / 4.0, rel=1e-6)

    def test_cubic_gate_is_stricter(self, rng):
        # physical regime: the paper's root sits below the running map's,
        # so there the gate's root is the paper's
        for _ in range(200):
            k0 = rng.uniform(0.0, 1e-3)
            D = rng.uniform(1e-4, 0.1)
            paper = critical_time_step(*cubic_coefficients(k0, D))
            assert paper < critical_time_step(*map_cubic_coefficients(k0, D))
            assert critical_time_step_for_drag(k0, D) == paper


class TestSourceUpdateMatrix:
    def test_diagonal_matches_analysis_alpha(self, rng):
        for _ in range(100):
            tau = rng.uniform(0.1, 10.0)
            k0 = rng.uniform(0.0, 1e-2)
            D = rng.uniform(0.0, 0.1)
            T = source_update_matrix(tau, k0, D)
            alpha, _ = step_coefficients(tau, k0, D)
            assert T[0, 0] == pytest.approx(1.0 + alpha, rel=1e-12, abs=1e-15)
            assert T[0, 0] == T[1, 1]
            assert T[0, 1] == -T[1, 0]

    def test_rotation_entry_keeps_coriolis_factor(self):
        tau = 3.0
        T = source_update_matrix(tau, K0_REF, D_REF)
        assert T[0, 1] == pytest.approx(tau * K0_REF - tau ** 2 * D_REF * K0_REF,
                                        rel=1e-12)

    def test_drag_free_growth(self):
        # with the drag off the map scales every vector by sqrt(1 + t^4 k0^4/4) > 1
        k0, tau = 1e-2, 3.0
        T = source_update_matrix(tau, k0, 0.0)
        v = np.array([1.0, 0.0])
        norms = [1.0]
        for _ in range(1000):
            v = T @ v
            norms.append(float(np.hypot(*v)))
        norms = np.array(norms)
        assert np.all(np.diff(norms) > 0.0)
        growth = math.sqrt(1.0 + tau ** 4 * k0 ** 4 / 4.0)
        assert norms[-1] == pytest.approx(growth ** 1000, rel=1e-9)


OUT_OF_RANGE = (r"^operating point tau=.* s, speed=.* m/s, depth=.* m is out of range: "
                r"its drag rate D=.* 1/s must be 0 or in \[1e-40, 1e\+16\], "
                r"and tau max\(1, D\) <= 1e\+150$")


class TestBuildReport:
    def test_reference_report(self, params):
        r = build_report(3.0, 0.1, 0.1, params)
        assert r.drag == pytest.approx(D_REF, rel=1e-12)
        assert r.tau_c_cubic == pytest.approx(5.41, abs=0.02)
        assert r.convergent_cubic and r.convergent_gate
        assert r.modulus == velocity_mode_modulus(r.alpha, r.beta)
        assert r.tau_c_gate == critical_time_step_for_drag(K0_REF, r.drag)
        assert r.convergent_gate == (r.tau < r.tau_c_gate)

    def test_zero_speed_report(self, params):
        r = build_report(3.0, 0.0, 0.1, params)
        assert r.drag == 0.0
        assert math.isnan(r.tau_c_cubic) and math.isnan(r.tau_c_gate)
        assert not r.convergent_cubic and not r.convergent_gate

    def test_invalid_inputs(self, params):
        with pytest.raises(ValueError):
            build_report(-1.0, 0.1, 0.1, params)
        with pytest.raises(ValueError):
            build_report(3.0, 0.1, 0.0, params)
        with pytest.raises(ValueError):
            build_report(3.0, -0.1, 0.1, params)

    @pytest.mark.parametrize("tau, speed, depth, message", [
        (math.inf, 0.1, 0.1, "tau must be positive and finite"),
        (3.0, math.inf, 0.1, "speed must be finite and >= 0"),
        (3.0, 0.1, math.inf, "depth must be positive and finite"),
        (1e308, 0.1, 0.1, OUT_OF_RANGE),
        (3.0, 1e200, 0.1, OUT_OF_RANGE),
        (3.0, 1e300, 1e-300, OUT_OF_RANGE),
        (3.0, 0.1, 1e-320, OUT_OF_RANGE),
    ], ids=["tau", "speed", "depth", "tau-squared", "drag-squared", "drag", "drag-denormal"])
    def test_non_finite_inputs(self, params, tau, speed, depth, message):
        # refused with a range message, not a bracket error, a nan tau_c,
        # a numpy warning, an OverflowError or a silent verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build_report(tau, speed, depth, params)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(g=-9.81)
    with pytest.raises(ValueError):
        PhysicalParams(k1=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(k0=-1e-4)
    # k1 must give a finite drag factor g / (k1^2 h_min) > 0, and k0 < sqrt(8)
    for key, value, rule in (("k1", 1e200, "give a finite drag factor"),
                             ("k1", 1e-200, "give a finite drag factor"),
                             ("k0", 1.2e77, "be below sqrt\\(8\\)")):
        with pytest.raises(ValueError, match=f"^{key} must {rule}") as exc:
            PhysicalParams(**{key: value})
        assert f"{key}={value!r}" in str(exc.value)


@pytest.mark.parametrize("values", [{"k1": 1e-160}, {"k1": 1e-150, "h_min": 1e-300}],
                         ids=["overflow", "underflow"])
def test_params_refuse_infinite_drag_factor(values):
    # k1^2 is finite and positive (1e-320 is subnormal), but g / (k1^2 h_min)
    # overflows, or k1^2 h_min underflows to 0: the gate could rate nothing
    with pytest.raises(ValueError, match="^k1 must give a finite drag factor"):
        PhysicalParams(**values)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name, message", [
    ("g", "g and k1 must be positive and finite"),
    ("k1", "g and k1 must be positive and finite"),
    ("k0", "k0, xi must be finite and >= 0, h_min finite and > 0"),
    ("xi", "k0, xi must be finite and >= 0, h_min finite and > 0"),
    ("h_min", "k0, xi must be finite and >= 0, h_min finite and > 0"),
])
def test_params_non_finite_rejected(name, message, value):
    with pytest.raises(ValueError, match=message):
        PhysicalParams(**{name: value})


# log-uniform over every float from the subnormals to 1e308
extreme = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)


@settings(max_examples=400, deadline=None)
@given(tau=extreme, speed=st.one_of(st.just(0.0), extreme), depth=extreme,
       k0=st.one_of(st.just(0.0), extreme), k1=extreme)
@example(tau=1e300, speed=0.0, depth=0.1, k0=0.0, k1=40.0)   # tau ** 2 overflows
def test_extreme_inputs_stay_in_range(tau, speed, depth, k0, k1):
    # inside the range every field is finite (the roots nan only at D = 0);
    # outside it one one-line ValueError, never a warning or another error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = build_report(tau, speed, depth, PhysicalParams(k0=k0, k1=k1))
        except ValueError as exc:
            assert "\n" not in str(exc)
            return
    roots = (report.tau_c_cubic, report.tau_c_gate)
    others = [v for k, v in vars(report).items() if k not in ("tau_c_cubic", "tau_c_gate")]
    assert all(math.isfinite(v) for v in others)
    assert all(math.isnan(r) for r in roots) if report.drag == 0.0 else \
        all(0.0 < r < math.inf for r in roots)


@settings(max_examples=200, deadline=None)
@given(drags=arrays(float, st.integers(1, 20), elements=st.one_of(extreme, st.just(np.inf))),
       k0=st.one_of(st.just(0.0), st.floats(-320.0, 0.45).map(lambda e: 10.0 ** e)))
def test_gate_root_of_extreme_drags(drags, k0):
    # every positive drag rate gets a finite tau_c >= 0, 0 outside the range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau_c = critical_time_step_for_drag(k0, drags)
    inside = (stability.D_MIN <= drags) & (drags <= stability.D_MAX)
    assert np.all(tau_c[~inside] == 0.0) and np.all(tau_c[inside] > 0.0)
    assert np.all(np.isfinite(tau_c))
