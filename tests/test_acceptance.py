"""Acceptance suite: one test per shipped criterion.

Each test prints a `[PASS]/[FAIL] criterion N` line (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces the stated
tolerances; nothing here is calibrated after the fact.
"""
import filecmp
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (advance, bisect_root, cubic_value, element_matrices_oracle,
                     jittered_mesh, mesh_text, random_triangle,
                     rect_mesh, rect_mesh_arrays, substep_increment, two_triangle_square,
                     velocity)
from swsplit.cli import main
from swsplit.explicit_step import frozen_coefficients
from swsplit.fem import assemble
from swsplit.forcing import Forcings
from swsplit.mesh import LAND, build_mesh
from swsplit.simulator import RunConfig, run
from swsplit.stability import (build_report,
                               coupled_amplification_matrix,
                               critical_time_step, cubic_coefficients,
                               is_convergent_cubic,
                               source_amplification_matrix,
                               source_update_matrix, step_coefficients,
                               velocity_mode_modulus)
from swsplit.state import State

K0_REF = 1e-4
D_REF = 0.00613125


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {label}")
        raise
    print(f"[PASS] criterion {num:2d}: {label}")


def test_criterion_1_critical_step_reproduction(params, capsys):
    with criterion(1, "critical step 5.41 s reproduced in under 1 ms"):
        report = build_report(3.0, 0.1, 0.1, params)
        assert report.tau_c_cubic == pytest.approx(5.41, abs=0.02)
        assert main(["analyze", "--machine"]) == 0
        values = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["tau_c_cubic"]) == pytest.approx(5.41, abs=0.02)
        build_report(3.0, 0.1, 0.1, params)  # warm
        best = min(
            (lambda t0: (build_report(3.0, 0.1, 0.1, params),
                         time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(50))
        assert best < 1e-3, f"analyze took {best * 1e3:.3f} ms"


def test_criterion_2_drag_free_divergence():
    with criterion(2, "drag-free regime never converges and the block grows"):
        for tau in (0.01, 0.1, 1.0, 10.0, 100.0):
            assert not is_convergent_cubic(tau, K0_REF, 0.0)
        for k0, tau in ((1e-2, 3.0), (K0_REF, 100.0)):
            alpha, beta = step_coefficients(tau, k0, 0.0)
            J = source_amplification_matrix(alpha, beta)
            block = J[1:, 1:]
            v = np.array([1.0, 0.0])
            norms = [1.0]
            for _ in range(1000):
                v = block @ v
                norms.append(float(np.hypot(*v)))
            assert norms[-1] > norms[0]
            assert np.all(np.diff(norms) > 0.0)


def test_criterion_3_eigen_oracle(rng):
    with criterion(3, "analytic spectra match a dense eigensolver"):
        for _ in range(1000):
            alpha, beta = rng.uniform(-2.0, 2.0, size=2)
            J = source_amplification_matrix(alpha, beta)
            computed = np.sort_complex(np.linalg.eigvals(J))
            analytic = np.sort_complex(np.array(
                [1.0, complex(1.0 + alpha, beta), complex(1.0 + alpha, -beta)]))
            assert np.max(np.abs(computed - analytic)) < 1e-12
        for _ in range(1000):
            alpha, beta = rng.uniform(-2.0, 2.0, size=2)
            grad_h = rng.uniform(-1.0, 1.0, size=2)
            tau_tilde = rng.uniform(1e-3, 600.0)
            theta1 = rng.uniform(0.0, 1.0)
            J2 = coupled_amplification_matrix(alpha, beta, tau_tilde, theta1,
                                              grad_h)
            moduli = np.sort(np.abs(np.linalg.eigvals(J2)))
            rho = velocity_mode_modulus(alpha, beta)
            assert np.max(np.abs(moduli - np.sort([1.0, rho, rho]))) < 1e-12


def test_criterion_4_closed_form_vs_bisection():
    with criterion(4, "closed-form root agrees with bisection on the grid"):
        for k0 in np.linspace(0.0, 1e-3, 10):
            for D in np.logspace(-4, -1, 10):
                a, b, c, d = cubic_coefficients(k0, D)
                got = critical_time_step(a, b, c, d)
                oracle = bisect_root(lambda t: cubic_value(a, b, c, d, t),
                                     0.0, 100.0)
                assert abs(got - oracle) <= 1e-6


def test_criterion_5_fem_quadrature_oracle(rng):
    with criterion(5, "element matrices match quadrature, global shapes sane"):
        for _ in range(100):
            pts = random_triangle(rng)
            depth3 = rng.uniform(0.1, 3.0, size=3)
            mesh = build_mesh(pts, [[0, 1, 2]], depth3, [LAND] * 3)
            m = assemble(mesh)
            Me, Se, Q1e, Q2e = element_matrices_oracle(pts, depth3)
            for got, want in ((m.M.toarray(), Me), (m.S.toarray(), Se),
                              (m.Q1.toarray(), Q1e), (m.Q2.toarray(), Q2e)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for shape in ((5, 5), (6, 5)):   # 25 and 30 nodes
            mesh = jittered_mesh(*shape, rng)
            m = assemble(mesh)
            sym = np.max(np.abs((m.M - m.M.T).toarray()))
            assert sym <= 1e-14 * np.max(np.abs(m.M.toarray()))
            assert np.linalg.eigvalsh(m.S.toarray()).min() >= -1e-12
            for Q in (m.Q1, m.Q2):
                assert np.max(np.abs(np.asarray(Q.sum(axis=1)))) <= 1e-14


def test_criterion_6_uniform_field_equivalence(params, rng):
    with criterion(6, "explicit sub-step equals the 2x2 recursion"):
        mesh = two_triangle_square(depth=0.1)
        matrices = assemble(mesh)
        n = mesh.n_nodes
        cases = [(0.1, 0.0, 3.0)] + [
            tuple(rng.uniform(-0.3, 0.3, size=2)) + (rng.uniform(0.5, 5.0),)
            for _ in range(25)]
        for u1, u2, tau in cases:
            state = State(np.zeros(n), velocity(np.full(n, u1), np.full(n, u2)))
            d_u1, d_u2 = substep_increment(state, (0.0, 0.0), matrices, params, tau,
                                           frozen_coefficients(state.eta, mesh, params))
            drag = params.g * float(np.hypot(u1, u2)) / (params.k1 ** 2 * 0.1)
            T = source_update_matrix(tau, params.k0, drag)
            expected = T @ np.array([u1, u2]) - np.array([u1, u2])
            assert np.max(np.abs(d_u1 - expected[0])) < 1e-12
            assert np.max(np.abs(d_u2 - expected[1])) < 1e-12


def test_criterion_7_lake_at_rest_exact(params):
    with criterion(7, "lake at rest stays identically zero for 100 steps"):
        mesh = rect_mesh(6, 6, 600.0, 600.0, depth=1.0)
        cfg = RunConfig(tau=3.0, tau_tilde=300.0)
        state = State(np.zeros(36), np.zeros(36, dtype=complex), 0.0)
        for k in range(100):
            state, _ = advance(mesh, state, params, cfg, Forcings(), 1)
            assert np.all(state.eta == 0.0)
            assert np.all(state.u.real == 0.0) and np.all(state.u.imag == 0.0)
        assert state.t == 100 * 300.0


def test_criterion_8_mass_conservation(params):
    with criterion(8, "closed-basin mass drift <= 1e-6 over 100 steps, < 10 s"):
        mesh = rect_mesh(20, 20, 2000.0, 2000.0, depth=2.0)  # 400 nodes
        assert mesh.n_nodes <= 500
        x, y = mesh.coords[:, 0], mesh.coords[:, 1]
        eta0 = 0.1 * np.exp(-((x - 1000.0) ** 2 + (y - 700.0) ** 2)
                            / (2 * 300.0 ** 2))
        state = State(eta0, np.zeros(400, dtype=complex), 0.0)
        mats = assemble(mesh)
        cfg = RunConfig(tau=3.0, tau_tilde=300.0, duration=30000.0,
                        gate_mode="enforce")
        t0 = time.perf_counter()
        summary = run(state, mesh, mats, params, cfg, Forcings())
        elapsed = time.perf_counter() - t0
        assert summary.steps == 100 and summary.completed
        assert summary.mass_drift_rel <= 1e-6, summary.mass_drift_rel
        assert elapsed < 10.0, f"run took {elapsed:.1f} s"


@pytest.fixture
def reference_case(tmp_path):
    coords, tris, depth, tags = rect_mesh_arrays(4, 4, 300.0, 300.0, depth=0.1)
    (tmp_path / "basin.mesh").write_text(mesh_text(coords, tris, depth, tags))
    rows = ["node,x1,x2,eta,u1,u2"]
    for i, (x, y) in enumerate(coords):
        rows.append(f"{i},{float(x)!r},{float(y)!r},0.0,0.1,0.0")
    (tmp_path / "restart.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "config.txt").write_text(
        "mesh=basin.mesh\nrestart=restart.csv\nduration=300\n"
        "tau=3\ntau_tilde=300\n")
    return tmp_path


def test_criterion_9_gate_behavior(reference_case):
    with criterion(9, "tau = 3 s runs, tau = 6 s is refused with exit 2"):
        cfg = str(reference_case / "config.txt")
        assert main(["run", "-c", cfg,
                     "--set", f"out_dir={reference_case / 'ok'}"]) == 0
        assert main(["run", "-c", cfg, "--set", "tau=6",
                     "--set", f"out_dir={reference_case / 'no'}"]) == 2


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical runs produce byte-identical outputs"):
        coords, tris, depth, tags = rect_mesh_arrays(6, 5, 600.0, 400.0,
                                                     depth=1.0)
        tags[(coords[:, 0] == 0.0) & (tags == 1)] = 2   # open west edge
        (tmp_path / "chan.mesh").write_text(mesh_text(coords, tris, depth, tags))
        (tmp_path / "tide.txt").write_text("0 0\n10000 0.4\n")
        (tmp_path / "wind.txt").write_text("0 2 1\n10000 4 -1\n")
        (tmp_path / "config.txt").write_text(
            "mesh=chan.mesh\ntide=tide.txt\nwind=wind.txt\n"
            "tau=5\ntau_tilde=100\nduration=500\nsnapshot_interval=100\n"
            "gauges=7,12\n")
        cfg = str(tmp_path / "config.txt")
        for out in ("a", "b"):
            assert main(["run", "-c", cfg,
                         "--set", f"out_dir={tmp_path / out}"]) == 0
        # every file the run writes, run.log and summary.txt included
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert {"run.log", "summary.txt", "gauge_7.csv", "gauge_12.csv",
                "snap_0.csv", "snap_5.csv"} <= set(names), names
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), f"{name} differs"
