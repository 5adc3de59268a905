import logging
import re
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (advance, channel_mesh, jittered_mesh, rect_mesh, rect_mesh_arrays,
                     row_by_row_snapshot, velocity)
from swsplit.explicit_step import (frozen_coefficients, sub_cycle_work,
                                   taylor_galerkin_increment)
from swsplit.fem import assemble
from swsplit.forcing import ForcingError, Forcings, TimeSeries, load_wind
from swsplit.implicit_step import (apply_boundaries, elevation_rhs, project_land_velocity,
                                  solve_elevation, velocity_correction)
from swsplit import simulator
from swsplit.mesh import OPEN, build_mesh, parse_rows
from swsplit.simulator import (U_FLOOR, GateError, OutputWriter, RunConfig,
                               key_value_lines, load_snapshot, mass_integral, run,
                               stability_gate)
from swsplit.stability import (PhysicalParams, critical_time_step_for_drag,
                               drag_coefficient, source_update_matrix)
from swsplit.state import State, initial_state


def reference_basin(u1=0.1, boundary=None):
    """H = 0.1 m basin whose uniform speed-0.1 state has the reference drag."""
    if boundary is None:
        mesh = rect_mesh(5, 5, 400.0, 400.0, depth=0.1)
    else:
        mesh = rect_mesh(5, 5, 400.0, 400.0, depth=0.1, boundary_tag=boundary)
    n = mesh.n_nodes
    state = State(np.zeros(n), velocity(np.full(n, float(u1)), 0.0), 0.0)
    return mesh, state


class TestRunConfig:
    def test_sub_step_count(self):
        assert RunConfig(tau=3.0, tau_tilde=300.0).n_sub == 100

    def test_divisibility(self):
        with pytest.raises(ValueError, match="integer multiple"):
            RunConfig(tau=3.0, tau_tilde=299.0)

    def test_duration_multiple(self):
        with pytest.raises(ValueError, match="multiple of tau_tilde"):
            RunConfig(duration=450.0)

    @pytest.mark.parametrize("tau, tau_tilde, n_sub", [
        (3.0, 300.0 * (1 + 5e-10), 100), (3.0, 300.0 * (1 - 5e-10), 100),
        (0.1, 30.0, 300), (0.7, 2.1, 3)])
    def test_divisibility_tolerance(self, tau, tau_tilde, n_sub):
        # a multiple to 1e-9 relative, so decimal steps with binary noise pass
        assert RunConfig(tau=tau, tau_tilde=tau_tilde).n_sub == n_sub

    @pytest.mark.parametrize("tau_tilde", [300.0 * (1 + 2e-9), 300.0 * (1 - 2e-9), 1.0])
    def test_divisibility_beyond_tolerance(self, tau_tilde):
        with pytest.raises(ValueError, match="is not an integer multiple of tau=3"):
            RunConfig(tau=3.0, tau_tilde=tau_tilde)

    @pytest.mark.parametrize("name", ["duration", "snapshot_interval"])
    def test_multiple_of_tau_tilde_tolerance(self, name):
        assert RunConfig(tau=0.1, tau_tilde=0.3, **{name: 0.9})
        assert RunConfig(**{name: 3000.0 * (1 + 5e-10)})
        with pytest.raises(ValueError, match=f"{name}=3000 must be a multiple of "
                                             "tau_tilde=300"):
            RunConfig(**{name: 3000.0 * (1 + 2e-9)})

    @pytest.mark.parametrize("kwargs, message", [
        (dict(tau=1e-300, tau_tilde=1e10), "tau_tilde=1e+10 is not an integer multiple"),
        (dict(tau=1e-300, tau_tilde=1e-300, duration=1e300),
         "duration=1e+300 must be a multiple"),
        (dict(tau=1e-300, tau_tilde=1e-300, snapshot_interval=1e300),
         "snapshot_interval=1e+300 must be a multiple"),
    ], ids=["n_sub", "duration", "snapshot_interval"])
    def test_overflowing_ratio_refused(self, kwargs, message):
        # the ratio is inf: refused as not a multiple, never rounded
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**kwargs)

    def test_gate_mode_validated(self):
        with pytest.raises(ValueError, match="gate_mode"):
            RunConfig(gate_mode="hope")

    def test_value_ranges(self):
        with pytest.raises(ValueError, match="positive"):
            RunConfig(tau_tilde=-1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RunConfig(theta1=1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RunConfig(theta2=-0.1)
        cfg = RunConfig(tau_tilde=300.0)
        assert cfg.theta1 == cfg.theta2 == 0.5

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name, message", [
        ("tau", "tau and tau_tilde must be positive and finite"),
        ("tau_tilde", "tau and tau_tilde must be positive and finite"),
        ("theta1", r"theta1 and theta2 must lie in \[0, 1\]"),
        ("theta2", r"theta1 and theta2 must lie in \[0, 1\]"),
        ("duration", "duration must be finite and >= 0"),
        ("snapshot_interval", "snapshot_interval must be finite and >= 0"),
    ])
    def test_non_finite_rejected(self, name, message, value):
        with pytest.raises(ValueError, match=message):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("cg_tol", 1e-12),
                                             ("consistent_correction", True)])
    def test_removed_solver_knobs_not_accepted(self, name, value):
        # one lumped velocity correction and one CG tolerance: neither is a field
        with pytest.raises(TypeError, match=name):
            RunConfig(**{name: value})

    def test_step_counts(self):
        cfg = RunConfig(duration=3000.0)
        assert cfg.n_steps == 10
        assert RunConfig(duration=0.0).n_steps == 0


def gate(state, mesh, params, tau):
    """The verdict ``step`` forms: the gate reads the sub-cycle's frozen pair."""
    return stability_gate(state, frozen_coefficients(state.eta, mesh, params), params, tau)


class TestStabilityGate:
    def test_reference_state_passes_tau3(self, params):
        mesh, state = reference_basin()
        verdict = gate(state, mesh, params, 3.0)
        assert verdict.passed
        assert verdict.min_tau_c == pytest.approx(5.41, abs=0.02)
        assert not verdict.floor_active

    def test_reference_state_refuses_tau6(self, params):
        mesh, state = reference_basin()
        verdict = gate(state, mesh, params, 6.0)
        assert not verdict.passed

    def test_minimum_over_nodes(self, params):
        # halving one node's depth doubles its drag; the gate must pick it
        mesh, state = reference_basin()
        mesh.depth[7] = 0.05
        verdict = gate(state, mesh, params, 3.0)
        d_worst = drag_coefficient(0.1, 0.05, params)
        assert verdict.worst_node == 7
        assert verdict.worst_drag == pytest.approx(d_worst, rel=1e-12)
        assert verdict.min_tau_c == pytest.approx(
            critical_time_step_for_drag(params.k0, d_worst), rel=1e-12)

    def test_doubled_depth_node_does_not_relax_gate(self, params):
        # doubling one node's depth halves its drag and raises its local
        # critical step; the verdict stays with the unmodified nodes
        mesh, state = reference_basin()
        mesh.depth[7] = 0.2
        verdict = gate(state, mesh, params, 3.0)
        assert verdict.min_tau_c == pytest.approx(5.41, abs=0.02)
        d_half = drag_coefficient(0.1, 0.2, params)
        assert critical_time_step_for_drag(params.k0, d_half) > verdict.min_tau_c

    def test_velocity_floor(self, params):
        mesh, state = reference_basin(u1=0.0)
        verdict = gate(state, mesh, params, 3.0)
        assert verdict.floor_active
        d_floor = drag_coefficient(1e-3, 0.1, params)
        assert verdict.worst_drag == pytest.approx(d_floor, rel=1e-12)
        assert verdict.passed

    def test_monotone_in_tau(self, params):
        mesh, state = reference_basin()
        verdict = gate(state, mesh, params, 3.0)
        for tau in (0.01, 0.3, 1.0, 2.0):
            assert gate(state, mesh, params, tau).passed
        assert not gate(state, mesh, params, verdict.min_tau_c + 0.01).passed

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), quantized=st.booleans())
    def test_matches_per_node_scalar_loop(self, seed, quantized):
        params = PhysicalParams()
        rng = np.random.default_rng(seed)
        shape = rng.integers(3, 12, size=2)
        if quantized:   # tied drag values, some below the speed floor
            mesh = jittered_mesh(*shape, rng, scale=1e3, depth=1.5)
            eta = np.zeros(mesh.n_nodes)
            u1, u2 = rng.choice([0.0, 2e-4, 0.05, 0.2], (2, mesh.n_nodes))
        else:
            mesh = jittered_mesh(*shape, rng, scale=1e3)
            eta = rng.uniform(-0.5, 0.5, mesh.n_nodes)
            u1, u2 = rng.uniform(-0.3, 0.3, (2, mesh.n_nodes))
        n = mesh.n_nodes
        state = State(eta, velocity(u1, u2), 0.0)
        verdict = gate(state, mesh, params, 3.0)

        worst = None
        floor_active = False
        for i in range(n):
            # |u| as the program defines it: sqrt(u1^2 + u2^2), not hypot
            speed = float(np.sqrt(u1[i] * u1[i] + u2[i] * u2[i]))
            floor_active |= speed < U_FLOOR
            h = max(mesh.depth[i] + eta[i], params.h_min)
            D = params.g / (params.k1 ** 2 * h) * max(speed, U_FLOOR)
            tau_c = critical_time_step_for_drag(params.k0, D)
            if worst is None or tau_c < worst[0]:
                worst = (tau_c, i, D)
        assert verdict.worst_node == worst[1]
        assert verdict.min_tau_c == pytest.approx(worst[0], rel=1e-12)
        assert verdict.worst_drag == worst[2]
        assert verdict.floor_active == floor_active


class TestStep:
    def test_lake_at_rest_only_clock_moves(self, params):
        mesh = rect_mesh(5, 5, 500.0, 500.0, depth=1.0)
        state = initial_state(mesh.n_nodes)
        cfg = RunConfig(tau=3.0, tau_tilde=300.0)
        new, info = advance(mesh, state, params, cfg, Forcings(), 1)
        assert new.t == 300.0
        assert np.all(new.eta == 0.0)
        assert np.all(new.u.real == 0.0) and np.all(new.u.imag == 0.0)
        assert info.cg.iterations == 0

    def test_uniform_field_is_pure_recursion(self, params):
        # open boundary with matching tide: the wave part contributes
        # nothing and every node follows the 2x2 source recursion
        mesh, state = reference_basin(boundary=OPEN)
        cfg = RunConfig(tau=3.0, tau_tilde=300.0)
        new, info = advance(mesh, state, params, cfg, Forcings(), 1)

        u = np.array([0.1, 0.0])
        for _ in range(cfg.n_sub):
            speed = float(np.hypot(*u))
            drag = params.g * speed / (params.k1 ** 2 * 0.1)
            u = source_update_matrix(cfg.tau, params.k0, drag) @ u
        assert np.max(np.abs(new.u.real - u[0])) < 1e-12
        assert np.max(np.abs(new.u.imag - u[1])) < 1e-12
        assert np.max(np.abs(new.eta)) < 1e-12

    def test_gate_refusal_names_critical_step(self, params):
        mesh, state = reference_basin()
        cfg = RunConfig(tau=6.0, tau_tilde=300.0, gate_mode="enforce")
        with pytest.raises(GateError, match="tau_c=5.409") as exc:
            advance(mesh, state, params, cfg, Forcings(), 1)
        assert exc.value.verdict.min_tau_c == pytest.approx(5.41, abs=0.02)

    def test_gate_warn_continues(self, params, caplog):
        mesh, state = reference_basin()
        cfg = RunConfig(tau=6.0, tau_tilde=300.0, gate_mode="warn")
        with caplog.at_level(logging.WARNING, logger="swsplit.simulator"):
            new, info = advance(mesh, state, params, cfg, Forcings(), 1)
        assert "stability gate" in caplog.text
        assert not info.gate.passed
        assert new.t == 300.0

    def test_gate_rates_the_frozen_pair_of_the_sub_cycle(self, params, monkeypatch):
        # one derivation of the drag per outer step: the gate and the
        # sub-cycle's work read the pair that frozen_coefficients returned,
        # and every sub-step reads that one work
        mesh, state = reference_basin()
        made, works, read = [], [], []
        frozen_coefficients = simulator.frozen_coefficients
        gate_fn = simulator.stability_gate
        work_fn = simulator.sub_cycle_work
        substep = simulator.taylor_galerkin_increment
        monkeypatch.setattr(simulator, "frozen_coefficients",
                            lambda *args: made.append(frozen_coefficients(*args)) or made[-1])
        monkeypatch.setattr(simulator, "stability_gate",
                            lambda st, frozen, *args: read.append(("gate", frozen))
                            or gate_fn(st, frozen, *args))
        monkeypatch.setattr(simulator, "sub_cycle_work",
                            lambda frozen, p, tau: read.append(("work", frozen))
                            or works.append(work_fn(frozen, p, tau)) or works[-1])
        monkeypatch.setattr(simulator, "taylor_galerkin_increment",
                            lambda *args, work: read.append(("substep", work))
                            or substep(*args, work=work))
        cfg = RunConfig(tau=3.0, tau_tilde=30.0)
        advance(mesh, state, params, cfg, Forcings(), 1)
        assert len(made) == 1 and len(works) == 1
        assert [name for name, _ in read] == ["gate", "work"] + ["substep"] * cfg.n_sub
        assert all(arg is (works[0] if name == "substep" else made[0]) for name, arg in read)

    def test_gate_off_skips_verdict(self, params):
        mesh, state = reference_basin()
        cfg = RunConfig(tau=6.0, tau_tilde=300.0, gate_mode="off")
        _, info = advance(mesh, state, params, cfg, Forcings(), 1)
        assert info.gate is None

    def test_increment_sum_reproduces_state_bitwise(self, params, rng):
        # the step rebuilt from its public pieces, as README's Library use does
        mesh = channel_mesh(6, 5, 600.0, 400.0, depth=1.0)
        n = mesh.n_nodes
        state = State(0.01 * rng.standard_normal(n),
                      velocity(0.05 * rng.standard_normal(n), 0.05 * rng.standard_normal(n)), 0.0)
        cfg = RunConfig(tau=5.0, tau_tilde=100.0, gate_mode="off")
        tide = TimeSeries([0.0, 1000.0], [[0.0], [0.2]], name="tide")
        forcings = Forcings(tide=tide)
        new, _ = advance(mesh, state, params, cfg, forcings, 1)

        matrices = assemble(mesh)
        frozen = frozen_coefficients(state.eta, mesh, params)
        work = sub_cycle_work(frozen, params, cfg.tau)
        w = state.u.copy()
        for wind in forcings.wind_at(state.t + cfg.tau * np.arange(cfg.n_sub)).tolist():
            w += taylor_galerkin_increment(w, wind, matrices, work=work)
        d_star = w
        d_star -= state.u
        project_land_velocity(d_star, mesh)
        solver = simulator.elevation_solver(matrices, mesh, cfg, params.g)
        rhs = elevation_rhs(state, d_star, matrices, mesh, cfg, params.g)
        eta_open = forcings.tide_at(new.t)
        d_eta, _ = solve_elevation(solver, rhs, eta_open - state.eta[solver.open_nodes])
        d_u = velocity_correction(state, d_eta, matrices, cfg, params.g)
        rebuilt = State(eta=state.eta + d_eta, u=state.u + d_star + d_u, t=new.t)
        apply_boundaries(rebuilt, mesh, eta_open)
        assert np.array_equal(rebuilt.eta, new.eta)
        assert np.array_equal(rebuilt.u.real, new.u.real)
        assert np.array_equal(rebuilt.u.imag, new.u.imag)

    def test_slanted_walls_hold_no_normal_flow(self, params, rng):
        # a closed basin turned 30 degrees: no wall normal is axis-aligned,
        # so the land condition is imposed on the step's sum of increments
        # to rounding, and exactly at the corners
        coords, tris, depth, tags = rect_mesh_arrays(9, 7, 800.0, 600.0)
        c, s = np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)
        mesh = build_mesh(coords @ np.array([[c, s], [-s, c]]), tris, depth, tags)
        n = mesh.n_nodes
        assert np.all(np.abs(mesh.wall_normals) > 0.4) and mesh.corner_nodes.size == 4
        state = State(0.01 * rng.standard_normal(n),
                      velocity(0.05 * rng.standard_normal(n), 0.05 * rng.standard_normal(n)), 0.0)
        cfg = RunConfig(tau=5.0, tau_tilde=100.0, gate_mode="off")
        new, _ = advance(mesh, state, params, cfg, Forcings(), 1)
        walls, (nx, ny) = mesh.wall_nodes, mesh.wall_normals.T
        u1, u2 = new.u.real, new.u.imag
        normal = u1[walls] * nx + u2[walls] * ny
        assert np.max(np.abs(normal)) <= 1e-15 * np.max(np.hypot(u1, u2))
        assert np.all(np.hypot(u1[walls], u2[walls]) > 0.0)   # the walls carry flow
        assert np.all(u1[mesh.corner_nodes] == 0.0)
        assert np.all(u2[mesh.corner_nodes] == 0.0)

    def test_tide_read_once_per_step(self, params, monkeypatch):
        # one read serves both the solve's open values and the boundary
        mesh = channel_mesh(6, 5, 600.0, 400.0, depth=1.0)
        tide = TimeSeries([0.0, 1000.0], [[0.0], [0.2]], name="tide")
        reads = []
        at = TimeSeries.at
        monkeypatch.setattr(TimeSeries, "at",
                            lambda self, t: reads.append((self.name, t)) or at(self, t))
        cfg = RunConfig(tau=5.0, tau_tilde=100.0)
        advance(mesh, initial_state(mesh.n_nodes), params, cfg, Forcings(tide=tide), 1)
        assert [read for read in reads if read[0] == "tide"] == [("tide", 100.0)]

    def test_wind_read_once_per_step(self, params, monkeypatch):
        # one read at every sub-step start, bitwise the times t + s * tau
        mesh = channel_mesh(6, 5, 600.0, 400.0, depth=1.0)
        wind = TimeSeries([0.0, 10000.0], [[2.0, 1.0], [4.0, -1.0]], name="wind")
        reads = []
        at = TimeSeries.at
        monkeypatch.setattr(TimeSeries, "at",
                            lambda self, t: reads.append((self.name, t)) or at(self, t))
        state = initial_state(mesh.n_nodes, t=1234.5678)
        cfg = RunConfig(tau=0.3, tau_tilde=3.0, gate_mode="off")
        advance(mesh, state, params, cfg, Forcings(wind=wind), 1)
        winds = [t for name, t in reads if name == "wind"]
        assert len(winds) == 1
        want = [state.t + s * cfg.tau for s in range(cfg.n_sub)]
        assert np.asarray(winds[0]).tobytes() == np.array(want).tobytes()

    def test_open_boundary_tracks_tide(self, params):
        mesh = channel_mesh(6, 5, 600.0, 400.0, depth=1.0)
        state = initial_state(mesh.n_nodes)
        cfg = RunConfig(tau=5.0, tau_tilde=100.0)
        tide = TimeSeries([0.0, 1000.0], [[0.0], [0.5]], name="tide")
        new, _ = advance(mesh, state, params, cfg, Forcings(tide=tide), 1)
        assert np.all(new.eta[mesh.open_nodes] == 0.05)

    def test_every_node_open(self, params):
        # a 0 x 0 free system: the elevation is the tide, with no CG iteration
        mesh = rect_mesh(2, 3, 200.0, 400.0, depth=1.0, boundary_tag=OPEN)
        assert mesh.open_nodes.size == mesh.n_nodes
        cfg = RunConfig(tau=5.0, tau_tilde=100.0)
        tide = TimeSeries([0.0, 1000.0], [[0.0], [0.5]], name="tide")
        new, info = advance(mesh, initial_state(mesh.n_nodes), params, cfg,
                            Forcings(tide=tide), 1)
        assert np.all(new.eta == 0.05)
        assert info.cg.iterations == 0


class TestRun:
    def test_zero_duration_initial_snapshot_only(self, params, tmp_path):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        mats = assemble(mesh)
        cfg = RunConfig(duration=0.0)
        sinks = OutputWriter(tmp_path / "out", mesh, gauge_nodes=(5,))
        summary = run(initial_state(mesh.n_nodes), mesh, mats, params, cfg,
                      Forcings(), sinks=sinks)
        assert summary.steps == 0 and summary.completed
        out = tmp_path / "out"
        assert (out / "snap_0.csv").exists()
        assert not (out / "snap_1.csv").exists()
        gauge = (out / "gauge_5.csv").read_text().splitlines()
        assert gauge == ["t,eta", "0.0,0.0"]

    def test_zero_steps_build_no_solver(self, params, monkeypatch):
        def refuse(*args):
            raise AssertionError("elevation solver built for a run with no steps")

        monkeypatch.setattr(simulator, "elevation_solver", refuse)
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        summary = run(initial_state(mesh.n_nodes), mesh, assemble(mesh), params,
                      RunConfig(duration=0.0), Forcings())
        assert summary.completed

    def test_writer_gets_the_summary(self, params, tmp_path):
        # a library caller's OutputWriter writes summary.txt, complete or partial
        mesh, state = reference_basin()
        mats = assemble(mesh)
        summary = run(state, mesh, mats, params, RunConfig(duration=600.0), Forcings(),
                      sinks=OutputWriter(tmp_path / "ok", mesh))
        assert (tmp_path / "ok" / "summary.txt").read_text() == \
            "".join(line + "\n" for line in key_value_lines(asdict(summary).items()))
        with pytest.raises(GateError) as exc:
            run(state, mesh, mats, params, RunConfig(tau=6.0, duration=600.0), Forcings(),
                sinks=OutputWriter(tmp_path / "no", mesh))
        text = (tmp_path / "no" / "summary.txt").read_text()
        assert text == "".join(line + "\n" for line in
                               key_value_lines(asdict(exc.value.run_summary).items()))
        assert "steps=0\ncompleted=false\n" in text

    def test_clamped_nodes_max(self, params):
        # three nodes start with H + eta = 0.02 m < h_min = 0.05 m; the step
        # counts them, and the summary keeps the largest count of any step
        mesh = rect_mesh(5, 5, 1000.0, 1000.0, depth=1.0)
        n = mesh.n_nodes
        eta = np.zeros(n)
        eta[[6, 12, 18]] = -0.98
        state = State(eta, np.zeros(n, dtype=complex), 0.0)
        mats = assemble(mesh)
        cfg = RunConfig(tau=30.0, tau_tilde=300.0, duration=300.0, gate_mode="off")
        _, info = advance(mesh, state, params, cfg, Forcings(), 1)
        assert info.clamped_nodes == 3
        assert run(state, mesh, mats, params, cfg, Forcings()).clamped_nodes_max == 3
        calm = State(np.zeros(n), np.zeros(n, dtype=complex), 0.0)
        assert run(calm, mesh, mats, params, cfg, Forcings()).clamped_nodes_max == 0

    def test_closed_basin_mass_conservation_short(self, params):
        mesh = rect_mesh(10, 10, 1000.0, 1000.0, depth=2.0)
        n = mesh.n_nodes
        x, y = mesh.coords[:, 0], mesh.coords[:, 1]
        eta0 = 0.1 * np.exp(-((x - 500.0) ** 2 + (y - 300.0) ** 2) / (2 * 150.0 ** 2))
        state = State(eta0, np.zeros(n, dtype=complex), 0.0)
        mats = assemble(mesh)
        cfg = RunConfig(tau=3.0, tau_tilde=300.0, duration=3000.0)
        summary = run(state, mesh, mats, params, cfg, Forcings())
        assert summary.steps == 10
        assert summary.mass_drift_rel <= 1e-8
        assert summary.mass_initial == pytest.approx(
            float(mats.M_L @ eta0), rel=1e-15)

    def test_zero_initial_mass_drift_scaled_by_peak_mass(self, params):
        # with no initial mass every change is the mass itself, so the
        # drift relative to the largest |mass| of the run is exactly 1
        mesh = channel_mesh(8, 5, 2000.0, 800.0, depth=2.0)
        period = 12.0 * 3600.0
        ts = np.arange(0.0, 2 * period, 300.0)
        tide = TimeSeries(ts, 0.3 * np.sin(2 * np.pi * ts / period)[:, None])
        cfg = RunConfig(tau=3.0, tau_tilde=300.0, duration=3000.0)
        summary = run(initial_state(mesh.n_nodes), mesh, assemble(mesh), params, cfg,
                      Forcings(tide=tide))
        assert summary.mass_initial == 0.0 and summary.mass_final != 0.0
        assert summary.mass_drift_rel == 1.0
        # a basin whose mass never leaves 0 falls back to an absolute drift
        basin = rect_mesh(5, 5, 400.0, 400.0, depth=2.0)
        summary = run(initial_state(basin.n_nodes), basin, assemble(basin), params,
                      RunConfig(duration=600.0), Forcings())
        assert summary.mass_final == 0.0 and summary.mass_drift_rel == 0.0

    def test_gate_fault_carries_partial_summary(self, params):
        mesh, state = reference_basin()
        mats = assemble(mesh)
        cfg = RunConfig(tau=6.0, tau_tilde=300.0, duration=600.0)
        with pytest.raises(GateError) as exc:
            run(state, mesh, mats, params, cfg, Forcings())
        assert exc.value.run_summary.steps == 0
        assert not exc.value.run_summary.completed

    def test_gate_warn_counts_violations(self, params):
        mesh, state = reference_basin()
        mats = assemble(mesh)
        cfg = RunConfig(tau=6.0, tau_tilde=300.0, duration=600.0,
                        gate_mode="warn")
        summary = run(state, mesh, mats, params, cfg, Forcings())
        assert summary.gate_violations >= 1
        assert summary.completed

    def test_tidal_channel_smoke(self, params):
        mesh = channel_mesh(8, 5, 2000.0, 800.0, depth=2.0)
        mats = assemble(mesh)
        period = 12.0 * 3600.0
        ts = np.arange(0.0, 2 * period, 300.0)
        tide = TimeSeries(ts, 0.3 * np.sin(2 * np.pi * ts / period)[:, None])
        cfg = RunConfig(tau=3.0, tau_tilde=300.0, duration=7200.0)
        summary = run(initial_state(mesh.n_nodes), mesh, mats, params, cfg,
                      Forcings(tide=tide))
        assert summary.completed and summary.steps == 24
        assert summary.gate_violations == 0
        assert -1.0 < summary.eta_min <= summary.eta_max < 1.0

    def test_twelve_hour_shallow_tide_smoke(self, params):
        # reference-regime depth (0.1 m), enforced gate, half a day of
        # forcing: completes with bounded elevation and no violations
        mesh = channel_mesh(9, 5, 1000.0, 400.0, depth=0.1)
        mats = assemble(mesh)
        period = 44712.0
        ts = np.arange(0.0, 86400.0, 300.0)
        tide = TimeSeries(ts, (0.03 * np.sin(2 * np.pi * ts / period))[:, None])
        cfg = RunConfig(tau=3.0, tau_tilde=300.0, duration=12 * 3600.0,
                        gate_mode="enforce")
        summary = run(initial_state(mesh.n_nodes), mesh, mats, params, cfg,
                      Forcings(tide=tide))
        assert summary.completed and summary.steps == 144
        assert summary.gate_violations == 0
        assert np.isfinite([summary.eta_min, summary.eta_max]).all()
        assert -0.1 < summary.eta_min <= summary.eta_max < 0.1

    @pytest.mark.parametrize("duration, steps", [
        (400.0, [0, 2, 4]),
        (500.0, [0, 2, 4, 5]),   # the final step is off the interval
    ])
    def test_snapshot_interval(self, params, tmp_path, duration, steps):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        mats = assemble(mesh)
        cfg = RunConfig(tau=5.0, tau_tilde=100.0, duration=duration,
                        snapshot_interval=200.0)
        sinks = OutputWriter(tmp_path / "o", mesh)
        run(initial_state(mesh.n_nodes), mesh, mats, params, cfg, Forcings(),
            sinks=sinks)
        names = sorted(p.name for p in (tmp_path / "o").glob("snap_*.csv"))
        assert names == sorted(f"snap_{k}.csv" for k in steps)

    def test_snapshot_interval_with_decimal_steps(self, params, tmp_path):
        # the clock sums 0.1 s steps with binary noise; every third step
        # still lands on the 0.3 s interval
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        cfg = RunConfig(tau=0.05, tau_tilde=0.1, duration=0.9, snapshot_interval=0.3)
        run(initial_state(mesh.n_nodes), mesh, assemble(mesh), params, cfg, Forcings(),
            sinks=OutputWriter(tmp_path / "o", mesh))
        names = sorted(p.name for p in (tmp_path / "o").glob("snap_*.csv"))
        assert names == sorted(f"snap_{k}.csv" for k in (0, 3, 6, 9))


class TestForcingCoverage:
    """Forcing gaps fault before the first step, not partway through."""

    @staticmethod
    def channel_run(tmp_path, wind_end, tide_end, params):
        mesh = channel_mesh(6, 5, 600.0, 400.0, depth=1.0)
        wind_file = tmp_path / "wind.txt"
        wind_file.write_text(f"0 2 1\n{wind_end!r} 4 -1\n")
        tide = TimeSeries([0.0, tide_end], [[0.0], [0.4]], name="tide")
        cfg = RunConfig(tau=5.0, tau_tilde=100.0, duration=500.0)
        sinks = OutputWriter(tmp_path / "out", mesh)
        return run(initial_state(mesh.n_nodes), mesh, assemble(mesh), params, cfg,
                   Forcings(tide=tide, wind=load_wind(wind_file)), sinks=sinks)

    def test_short_wind_faults_before_first_step(self, params, tmp_path):
        with pytest.raises(ForcingError, match="wind") as exc:
            self.channel_run(tmp_path, 300.0, 500.0, params)
        assert exc.value.run_summary.steps == 0
        assert not exc.value.run_summary.completed
        assert not list((tmp_path / "out").glob("snap_*.csv"))

    def test_short_tide_faults_before_first_step(self, params, tmp_path):
        with pytest.raises(ForcingError, match="tide") as exc:
            self.channel_run(tmp_path, 500.0, 499.0, params)
        assert exc.value.run_summary.steps == 0

    def test_exact_coverage_runs(self, params, tmp_path):
        # the last sub-step reads the wind at t_end - tau, the last step
        # end reads the tide at t_end
        summary = self.channel_run(tmp_path, 495.0, 500.0, params)
        assert summary.completed and summary.steps == 5

    @pytest.mark.parametrize("kind, values, message", [
        ("wind", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], "gusts: a wind needs 2 value column(s), got 3"),
        ("wind", [[1.0], [2.0]], "gusts: a wind needs 2 value column(s), got 1"),
        ("tide", [[0.0, 0.1], [0.4, 0.2]], "surge: a tide needs 1 value column(s), got 2"),
    ], ids=["wind-3-columns", "wind-1-column", "tide-2-columns"])
    def test_wrong_column_count_refused_before_output(self, params, tmp_path, kind, values,
                                                      message):
        # Forcings refuses the series as it is built, so no writer opens
        # and no step reads a row of the wrong width
        mesh = channel_mesh(6, 5, 600.0, 400.0, depth=1.0)
        cfg = RunConfig(tau=5.0, tau_tilde=100.0, duration=500.0)
        series = TimeSeries([0.0, 1e4], values, name="gusts" if kind == "wind" else "surge")
        with pytest.raises(ForcingError, match=f"^{re.escape(message)}$"):
            run(initial_state(mesh.n_nodes), mesh, assemble(mesh), params, cfg,
                Forcings(**{kind: series}), sinks=OutputWriter(tmp_path / "out", mesh))
        assert not (tmp_path / "out").exists()

    def test_closed_basin_ignores_tide(self, params):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        tide = TimeSeries([0.0, 1.0], [[0.0], [0.1]], name="tide")
        cfg = RunConfig(tau=5.0, tau_tilde=100.0, duration=300.0)
        summary = run(initial_state(mesh.n_nodes), mesh, assemble(mesh), params,
                      cfg, Forcings(tide=tide))
        assert summary.completed and summary.steps == 3


@pytest.mark.parametrize("eta, u", [
    (np.zeros(4), np.zeros(3, dtype=complex)),
    (np.zeros(3), np.zeros(4, dtype=complex)),
    (np.zeros(4), np.zeros((4, 1), dtype=complex)),
    (np.zeros((4, 1)), np.zeros((4, 1), dtype=complex)),
], ids=["u_short", "eta_short", "u_column", "both_columns"])
def test_state_refuses_arrays_of_different_lengths(eta, u):
    with pytest.raises(ValueError, match="^state arrays differ in length$"):
        State(eta, u)


@pytest.mark.parametrize("u", [np.zeros(4), np.zeros((2, 4)), np.zeros(4, dtype=np.float32)],
                         ids=["float", "stacked_parts", "float32"])
def test_state_refuses_a_real_velocity(u):
    # one complex array: two real parts, stacked or not, are refused at construction
    with pytest.raises(ValueError, match="^state velocity must be complex u1 \\+ i u2$"):
        State(np.zeros(4), u)


class TestSnapshotIO:
    def test_roundtrip(self, params, tmp_path, rng):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        n = mesh.n_nodes
        state = State(rng.standard_normal(n),
                      velocity(rng.standard_normal(n), rng.standard_normal(n)), 900.0 + 0.1 + 0.2)
        writer = OutputWriter(tmp_path, mesh)
        writer.snapshot(3, state)
        writer.close()
        back = load_snapshot(tmp_path / "snap_3.csv", mesh)
        assert back.t == state.t
        assert np.array_equal(back.eta, state.eta)
        assert np.array_equal(back.u.real, state.u.real)
        assert np.array_equal(back.u.imag, state.u.imag)

    def test_signed_zero_velocity_restarts_byte_for_byte(self, tmp_path, rng):
        # a restart file whose u1 and u2 hold -0.0 (alone, together and
        # beside +0.0 and finite parts) is read into the complex velocity
        # part by part, so writing it again gives the same bytes
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        n = mesh.n_nodes
        pairs = [(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 0.25), (-1.5, -0.0),
                 (0.0, 0.0), (-0.0, -1e300), (5e-324, -0.0)]
        parts = np.array([pairs[i % len(pairs)] for i in range(n)])
        eta = rng.standard_normal(n)
        text = "# t=1200.0\nnode,x1,x2,eta,u1,u2\n" + "".join(
            f"{i},{x1!r},{x2!r},{e!r},{u1!r},{u2!r}\n" for i, ((x1, x2), e, (u1, u2))
            in enumerate(zip(mesh.coords.tolist(), eta.tolist(), parts.tolist())))
        restart = tmp_path / "restart.csv"
        restart.write_text(text)
        state = load_snapshot(restart, mesh)
        assert np.signbit(state.u.real).tolist() == np.signbit(parts[:, 0]).tolist()
        assert np.signbit(state.u.imag).tolist() == np.signbit(parts[:, 1]).tolist()
        writer = OutputWriter(tmp_path / "out", mesh)
        writer.snapshot(4, state)
        writer.close()
        assert (tmp_path / "out" / "snap_4.csv").read_bytes() == restart.read_bytes()

    def test_writer_matches_row_by_row_oracle(self, tmp_path, rng):
        mesh = jittered_mesh(9, 7, rng, scale=20000.0)
        n = mesh.n_nodes
        writer = OutputWriter(tmp_path, mesh)
        special = np.array([0.0, -0.0, 5e-324, -1e300, 0.1 + 0.2, 1.0, -3.0])
        for k in range(3):   # later snapshots reuse the writer's node fields
            eta = rng.standard_normal(n) * 10.0 ** rng.integers(-15, 15, n)
            eta[:special.size] = special
            state = State(eta, velocity(rng.standard_normal(n), -rng.standard_normal(n)),
                          600.0 * k)
            writer.snapshot(k, state)
            row_by_row_snapshot(tmp_path / f"oracle_{k}.csv", mesh, state)
            assert (tmp_path / f"snap_{k}.csv").read_bytes() == \
                (tmp_path / f"oracle_{k}.csv").read_bytes()
        writer.close()

    def test_coordinates_checked_against_mesh(self, tmp_path):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        n = mesh.n_nodes
        writer = OutputWriter(tmp_path, mesh)
        writer.snapshot(0, initial_state(n, eta0=0.1))
        writer.close()
        path = tmp_path / "snap_0.csv"
        assert np.all(load_snapshot(path, mesh).eta == 0.1)
        # the tolerance is 1e-9 of the 100 m extent
        load_snapshot(path, replace(mesh, coords=mesh.coords + 0.5e-7))
        shifted = mesh.coords.copy()
        shifted[7, 1] += 2e-7
        with pytest.raises(ValueError, match="node 7 .* is not the mesh node"):
            load_snapshot(path, replace(mesh, coords=shifted))
        with pytest.raises(ValueError, match="node 0 "):
            load_snapshot(path, replace(mesh, coords=mesh.coords + 10.0))

    def test_nan_coordinate_refused(self, tmp_path):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        writer = OutputWriter(tmp_path, mesh)
        writer.snapshot(0, initial_state(mesh.n_nodes))
        writer.close()
        for column in (1, 2):
            lines = (tmp_path / "snap_0.csv").read_text().splitlines()
            fields = lines[7].split(",")      # node 5, after the clock and the header
            fields[column] = "nan"
            lines[7] = ",".join(fields)
            path = tmp_path / f"nan_{column}.csv"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=r"node 5 at \(.*nan.*\) is not the mesh node"):
                load_snapshot(path, mesh)

    @pytest.mark.parametrize("node", ["nan", "inf", "1e30", "1.5", "-inf"])
    def test_non_integer_node_refused(self, tmp_path, node):
        # read as an integer: refused by the parser, with no cast to warn
        path = tmp_path / "x.csv"
        path.write_text("node,x1,x2,eta,u1,u2\n"
                        f"0,0.0,0.0,0.0,0.0,0.0\n{node},1.0,0.0,0.0,0.0,0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as excinfo:
                load_snapshot(path, rect_mesh(2, 2, 1.0, 1.0))
        assert str(excinfo.value) == f"{path}:3: bad value {node!r} in snapshot row"

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        mesh = rect_mesh(2, 2, 1.0, 1.0)
        rows = [f"{i},{x!r},{y!r},0.25,0.0,0.0" for i, (x, y) in enumerate(mesh.coords.tolist())]
        path = tmp_path / "x.csv"
        path.write_text("# restart\nnode,x1,x2,eta,u1,u2\n\n"
                        + "\n# a comment\n".join(rows) + "\n")
        back = load_snapshot(path, mesh)
        assert np.all(back.eta == 0.25)
        assert back.t == 0.0     # no clock line: the run starts at 0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "", "1200 s", "1_200"])
    def test_bad_clock_refused(self, tmp_path, text):
        mesh = rect_mesh(2, 2, 1.0, 1.0)
        rows = [f"{i},{x!r},{y!r},0.0,0.0,0.0" for i, (x, y) in enumerate(mesh.coords.tolist())]
        path = tmp_path / "x.csv"
        path.write_text(f"# t={text}\nnode,x1,x2,eta,u1,u2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_snapshot(path, mesh)
        assert str(excinfo.value) == f"{path}:1: bad time {text!r} in snapshot clock line"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="not a snapshot"):
            load_snapshot(path, rect_mesh(2, 2, 1.0, 1.0))

    def test_load_memory_peak(self, tmp_path):
        # Reading holds the data lines and one parsed block, read by field:
        # the traced peak is 2.54 times the file's bytes on this snapshot,
        # 2.62 when eta, u1, u2 came from a float view of the whole block,
        # 3.10 when the rows were scattered into a second array by node id,
        # and 4.09 when the whole text was kept to number a bad line.
        rng = np.random.default_rng(3)
        mesh = jittered_mesh(71, 71, rng, scale=20000.0)   # 5041 rows
        n = mesh.n_nodes
        writer = OutputWriter(tmp_path, mesh)
        writer.snapshot(0, State(rng.standard_normal(n),
                                 velocity(rng.standard_normal(n), rng.standard_normal(n)), 0.0))
        writer.close()
        path = tmp_path / "snap_0.csv"
        load_snapshot(path, mesh)          # the first call pays numpy's lazy set-up
        tracemalloc.start()
        try:
            load_snapshot(path, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / path.stat().st_size
        assert ratio <= 3.0, ratio

    def test_floats_read_by_field(self, tmp_path, rng, monkeypatch):
        # where numpy's default int has 4 bytes the id field parses as int32,
        # so the five floats cannot be a float view of the whole row
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        n = mesh.n_nodes
        state = State(rng.standard_normal(n),
                      velocity(rng.standard_normal(n), rng.standard_normal(n)), 600.0)
        writer = OutputWriter(tmp_path, mesh)
        writer.snapshot(2, state)
        writer.close()

        def int32_ids(*args, **kwargs):
            rows = parse_rows(*args, **kwargs)
            return rows.astype([("f0", np.int32)] + [(f"f{i}", float) for i in range(1, 6)])
        monkeypatch.setattr(simulator, "parse_rows", int32_ids)
        back = load_snapshot(tmp_path / "snap_2.csv", mesh)
        assert back.t == state.t
        for got, want in ((back.eta, state.eta), (back.u.real, state.u.real),
                          (back.u.imag, state.u.imag)):
            assert np.array_equal(got, want)

    def test_missing_row_checked(self, params, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("node,x1,x2,eta,u1,u2\n0,0.0,0.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError) as excinfo:
            load_snapshot(path, rect_mesh(2, 2, 1.0, 1.0))
        assert str(excinfo.value) == f"{path}: no row for node 1"

    @pytest.mark.parametrize("rows, message", [
        ("", "no row for node 0"),
        ("0,0.0,0.0,0.0,0.0,0.0\n4,1.0,0.0,0.0,0.0,0.0\n",
         "row 1 holds node 4, out of the order 0..3"),
        ("-1,0.0,0.0,0.0,0.0,0.0\n", "row 0 holds node -1, out of the order 0..3"),
        ("".join(f"{i},0.0,0.0,0.0,0.0,0.0\n" for i in (0, 1, 3, 2)),
         "row 2 holds node 3, out of the order 0..3"),
        ("".join(f"{i},0.0,0.0,0.0,0.0,0.0\n" for i in (0, 2, 3)),
         "row 1 holds node 2, out of the order 0..3"),
        ("".join(f"{i},0.0,0.0,0.0,0.0,0.0\n" for i in (0, 1, 2, 3, 4)),
         "row 4 holds node 4, out of the order 0..3"),
        ("".join(f"{i},0.0,0.0,0.0,0.0,0.0\n" for i in (0, 1, 2, 3, 3)),
         "row 4 holds node 3, out of the order 0..3"),
    ], ids=["header-only", "past-the-last-node", "negative", "swapped", "skipped",
            "extra", "repeated-last"])
    def test_rows_hold_the_nodes_in_order(self, tmp_path, rows, message):
        path = tmp_path / "x.csv"
        path.write_text("node,x1,x2,eta,u1,u2\n" + rows)
        with pytest.raises(ValueError) as excinfo:
            load_snapshot(path, rect_mesh(2, 2, 1.0, 1.0))
        assert str(excinfo.value) == f"{path}: {message}"

    def test_duplicate_row_checked(self, params, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("node,x1,x2,eta,u1,u2\n"
                        "0,0.0,0.0,0.0,0.0,0.0\n0,0.0,0.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError) as excinfo:
            load_snapshot(path, rect_mesh(2, 2, 1.0, 1.0))
        assert str(excinfo.value) == f"{path}: row 1 holds node 0, out of the order 0..3"

    def test_mass_integral_matches_direct_sum(self, params, rng):
        mesh = rect_mesh(5, 5, 100.0, 100.0, depth=1.0)
        mats = assemble(mesh)
        eta = rng.standard_normal(mesh.n_nodes)
        assert mass_integral(eta, mats) == pytest.approx(
            float(np.sum(mats.M_L * eta)), rel=1e-15)

    def test_gauge_node_validated(self, params, tmp_path):
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        with pytest.raises(ValueError, match="gauge node"):
            OutputWriter(tmp_path / "g", mesh, gauge_nodes=(99,))

    def test_failed_open_closes_earlier_files(self, tmp_path, monkeypatch):
        # run.log is a directory: its open fails after both gauge files opened
        mesh = rect_mesh(4, 4, 100.0, 100.0, depth=1.0)
        (tmp_path / "run.log").mkdir()
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]
        monkeypatch.setattr(simulator, "open", recording_open, raising=False)
        with pytest.raises(IsADirectoryError):
            OutputWriter(tmp_path, mesh, gauge_nodes=(3, 5))
        assert len(handles) == 2 and all(fh.closed for fh in handles)
