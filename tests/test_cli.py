import math
import re
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import mesh_text, rect_mesh_arrays
from swsplit.cli import main
from swsplit.config import Config
from swsplit.mesh import OPEN
from swsplit.simulator import RunSummary, format_value
from swsplit.stability import PhysicalParams, StabilityReport, build_report

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demo" / "tidal.txt"


def machine_map(capsys):
    out = capsys.readouterr().out
    pairs = [line.split("=", 1) for line in out.strip().splitlines()]
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), "duplicate keys in machine output"
    return dict(pairs)


@pytest.fixture
def basin_dir(tmp_path):
    """Reference-regime basin (H = 0.1 m) with a speed-0.1 restart file."""
    coords, tris, depth, tags = rect_mesh_arrays(4, 4, 300.0, 300.0, depth=0.1)
    (tmp_path / "basin.mesh").write_text(mesh_text(coords, tris, depth, tags))
    rows = ["node,x1,x2,eta,u1,u2"]
    for i, (x, y) in enumerate(coords):
        rows.append(f"{i},{float(x)!r},{float(y)!r},0.0,0.1,0.0")
    (tmp_path / "restart.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "config.txt").write_text(
        "mesh=basin.mesh\nrestart=restart.csv\nduration=300\n"
        "tau=3\ntau_tilde=300\nout_dir=out\ngauges=5\n")
    return tmp_path


class TestAnalyze:
    def test_defaults_reproduce_critical_step(self, capsys):
        assert main(["analyze", "--machine"]) == 0
        values = machine_map(capsys)
        assert float(values["tau_c_cubic"]) == pytest.approx(5.41, abs=0.02)
        assert values["convergent_cubic"] == "true"
        assert float(values["tau"]) == 3.0

    def test_machine_matches_library_report(self, capsys):
        assert main(["analyze", "--machine", "--tau", "2.5", "--speed", "0.2",
                     "--depth", "0.3"]) == 0
        values = machine_map(capsys)
        report = build_report(2.5, 0.2, 0.3, PhysicalParams())
        assert float(values["drag"]) == report.drag
        assert float(values["alpha"]) == report.alpha
        assert float(values["beta"]) == report.beta
        assert float(values["tau_c_cubic"]) == report.tau_c_cubic
        assert float(values["tau_c_modulus"]) == report.tau_c_modulus

    def test_zero_speed_never_convergent(self, capsys):
        assert main(["analyze", "--machine", "--speed", "0"]) == 0
        values = machine_map(capsys)
        assert values["convergent_cubic"] == "false"
        assert values["convergent_modulus"] == "false"
        assert values["tau_c_cubic"] == "nan"
        assert float(values["drag"]) == 0.0

    def test_boundary_tau_rejected(self, capsys):
        # 5.41 sits just above the actual root, ties are strict anyway
        assert main(["analyze", "--machine", "--tau", "5.41"]) == 0
        assert machine_map(capsys)["convergent_cubic"] == "false"

    def test_human_readable_table(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "stability report" in out
        assert "tau_c_cubic" in out

    def test_invalid_parameter_usage_error(self, capsys):
        assert main(["analyze", "--tau", "nope"]) == 1
        assert main(["analyze", "--depth", "-1"]) == 1

    def test_config_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("k1=20\n")
        assert main(["analyze", "--machine", "-c", str(cfg)]) == 0
        values = machine_map(capsys)
        assert float(values["drag"]) == pytest.approx(
            9.81 * 0.1 / (20.0 ** 2 * 0.1), rel=1e-12)

    def test_set_overrides(self, capsys):
        assert main(["analyze", "--machine", "--set", "k0=0"]) == 0
        values = machine_map(capsys)
        assert float(values["beta"]) < 0.0
        assert float(values["cubic_a"]) > 0.0


class TestRun:
    def test_zero_duration_exit_ok(self, basin_dir, capsys):
        cfg = basin_dir / "config.txt"
        assert main(["run", "-c", str(cfg), "--set", "duration=0",
                     "--set", f"out_dir={basin_dir / 'oz'}"]) == 0
        out = basin_dir / "oz"
        assert (out / "snap_0.csv").exists()
        assert (out / "summary.txt").exists()

    def test_gate_pass_and_refusal_exit_codes(self, basin_dir, capsys):
        cfg = basin_dir / "config.txt"
        assert main(["run", "-c", str(cfg),
                     "--set", f"out_dir={basin_dir / 'ok'}"]) == 0
        rc = main(["run", "-c", str(cfg), "--set", "tau=6",
                   "--set", f"out_dir={basin_dir / 'refused'}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tau_c" in err
        # partial summary still written
        text = (basin_dir / "refused" / "summary.txt").read_text()
        assert "completed=false" in text

    def test_restart_from_another_mesh_refused(self, basin_dir, capsys):
        # same node count, every node 10 m east of the mesh's own
        rows = (basin_dir / "restart.csv").read_text().splitlines()
        moved = [rows[0]] + [",".join([i, repr(float(x) + 10.0)] + rest)
                             for i, x, *rest in (row.split(",") for row in rows[1:])]
        (basin_dir / "moved.csv").write_text("\n".join(moved) + "\n")
        assert main(["run", "-c", str(basin_dir / "config.txt"),
                     "--set", f"restart={basin_dir / 'moved.csv'}",
                     "--set", f"out_dir={basin_dir / 'mv'}"]) == 1
        assert "is not the mesh node" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["file", "set"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [f.name for f in fields(Config) if f.type == "float"])
    def test_nonfinite_value_rejected(self, basin_dir, capsys, key, value, via):
        # refused when the config is read: one message naming the key, no
        # traceback, and nothing run or written
        if via == "file":
            cfg = basin_dir / "bad.txt"
            cfg.write_text(f"mesh=basin.mesh\n{key}={value}\n")
            args = ["-c", str(cfg)]
        else:
            args = ["-c", str(basin_dir / "config.txt"), "--set", f"{key}={value}"]
        for command in ("analyze", "run"):
            assert main([command, *args]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("swsplit: ")
            assert f"bad value for {key}: not a finite number" in err[0]
        assert not (basin_dir / "out").exists()

    @pytest.mark.parametrize("via", ["file", "set"])
    @pytest.mark.parametrize("key, value", [("cg_tol", "1e-12"),
                                            ("consistent_correction", "true")])
    def test_removed_solver_key_refused(self, basin_dir, capsys, key, value, via):
        # the two dropped solver knobs are unknown keys now: refused when the
        # config is read, nothing run or written
        if via == "file":
            cfg = basin_dir / "old.txt"
            cfg.write_text(f"mesh=basin.mesh\nout_dir=out\n{key}={value}\n")
            args = ["-c", str(cfg)]
        else:
            args = ["-c", str(basin_dir / "config.txt"), "--set", f"{key}={value}"]
        for command in ("analyze", "run"):
            assert main([command, *args]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("swsplit: ")
            assert f"unknown key {key!r}" in err[0]
        assert not (basin_dir / "out").exists()

    def test_missing_mesh_exit_fault(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("duration=0\n")
        assert main(["run", "-c", str(cfg)]) == 1
        assert "mesh" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "-c", "does-not-exist.txt"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_config_key_exit_fault(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("frobnicate=1\n")
        assert main(["run", "-c", str(cfg)]) == 1

    def test_machine_summary(self, basin_dir, capsys):
        cfg = basin_dir / "config.txt"
        assert main(["run", "-c", str(cfg), "--machine",
                     "--set", f"out_dir={basin_dir / 'm'}"]) == 0
        values = machine_map(capsys)
        assert values["steps"] == "1"
        assert values["completed"] == "true"

    def test_outputs_have_headers(self, basin_dir):
        cfg = basin_dir / "config.txt"
        assert main(["run", "-c", str(cfg),
                     "--set", f"out_dir={basin_dir / 'h'}"]) == 0
        out = basin_dir / "h"
        assert (out / "snap_0.csv").read_text().splitlines()[0] == \
            "node,x1,x2,eta,u1,u2"
        assert (out / "gauge_5.csv").read_text().splitlines()[0] == "t,eta"
        assert "cg_iterations" in (out / "run.log").read_text()

    def test_tide_driven_run(self, tmp_path):
        coords, tris, depth, tags = rect_mesh_arrays(5, 4, 400.0, 300.0, depth=1.0)
        tags[(coords[:, 0] == 0.0) & (tags == 1)] = OPEN
        (tmp_path / "chan.mesh").write_text(mesh_text(coords, tris, depth, tags))
        (tmp_path / "tide.txt").write_text("0 0\n10000 0.5\n")
        cfg = tmp_path / "c.txt"
        cfg.write_text("mesh=chan.mesh\ntide=tide.txt\nduration=600\n"
                       "tau=5\ntau_tilde=100\nout_dir=o\n")
        assert main(["run", "-c", str(cfg)]) == 0
        final = (tmp_path / "o" / "snap_6.csv").read_text()
        assert "0.03" in final   # open boundary reached tide(600) = 0.03

    @staticmethod
    def refused_forcing_errors(tmp_path, capsys, monkeypatch, key, text):
        """stderr lines of `run` on a channel whose ``key`` file holds ``text``;
        the run must exit 1 before it starts or writes anything."""
        coords, tris, depth, tags = rect_mesh_arrays(5, 4, 400.0, 300.0, depth=1.0)
        tags[(coords[:, 0] == 0.0) & (tags == 1)] = OPEN
        (tmp_path / "chan.mesh").write_text(mesh_text(coords, tris, depth, tags))
        (tmp_path / "series.txt").write_text(text)
        (tmp_path / "c.txt").write_text(f"mesh=chan.mesh\n{key}=series.txt\n"
                                        "duration=600\ntau=5\ntau_tilde=100\nout_dir=o\n")

        def unreachable(*args, **kwargs):
            raise AssertionError("run started")
        monkeypatch.setattr("swsplit.cli.run", unreachable)
        assert main(["run", "-c", str(tmp_path / "c.txt")]) == 1
        assert not (tmp_path / "o").exists()
        return capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("key, text", [
        ("tide", "0 0\nnan 0.1\n10000 0.5\n"),
        ("tide", "0 0\n5000 nan\n10000 0.5\n"),
        ("wind", "0 1 inf\n10000 1 1\n"),
    ])
    def test_non_finite_forcing_refused_before_run(self, tmp_path, capsys, monkeypatch,
                                                   key, text):
        err = self.refused_forcing_errors(tmp_path, capsys, monkeypatch, key, text)
        assert len(err) == 1
        assert f"{key} {tmp_path / 'series.txt'}: sample " in err[0]
        assert err[0].endswith(" is not finite")

    @pytest.mark.parametrize("key, text", [("tide", "0 0.5\n"), ("wind", "0 1 2\n")])
    def test_single_sample_forcing_refused_before_run(self, tmp_path, capsys, monkeypatch,
                                                      key, text):
        err = self.refused_forcing_errors(tmp_path, capsys, monkeypatch, key, text)
        assert err == [f"swsplit: {key} {tmp_path / 'series.txt'}: need at least two samples"]

    @pytest.mark.parametrize("key, text, outside", [
        ("tide", "0 0\n500 0.5\n", "t=600 s outside sampled range [0, 500]"),
        ("wind", "0 1 2\n500 1 2\n", "t=595 s outside sampled range [0, 500]"),
    ])
    def test_forcing_gap_refused_before_assembly(self, tmp_path, capsys, monkeypatch,
                                                 key, text, outside):
        def unreachable(*args, **kwargs):
            raise AssertionError("assembly started")
        monkeypatch.setattr("swsplit.cli.assemble", unreachable)
        err = self.refused_forcing_errors(tmp_path, capsys, monkeypatch, key, text)
        assert err == [f"swsplit: {key} {tmp_path / 'series.txt'}: {outside}"]

    def test_repeated_gauge_refused_before_run(self, basin_dir, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("run started")
        monkeypatch.setattr("swsplit.cli.run", unreachable)
        assert main(["run", "-c", str(basin_dir / "config.txt"),
                     "--set", "gauges=5,3,5"]) == 1
        assert capsys.readouterr().err.splitlines() == ["swsplit: gauge node 5 listed twice"]
        assert not (basin_dir / "out").exists()

    @pytest.mark.parametrize("gauges, message", [
        ("999", "gauge node 999 outside mesh (n=63)"),
        ("3,3", "gauge node 3 listed twice"),
    ])
    def test_bad_gauge_refused_before_assembly(self, tmp_path, capsys, monkeypatch,
                                               gauges, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("assembly started")
        monkeypatch.setattr("swsplit.cli.assemble", unreachable)
        out = tmp_path / "out"
        assert main(["run", "-c", str(DEMO_CONFIG), "--set", f"gauges={gauges}",
                     "--set", f"out_dir={out}"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"swsplit: {message}"]
        assert not out.exists()

    def test_version_and_help(self, capsys):
        assert main(["--version"]) == 0
        assert "swsplit" in capsys.readouterr().out
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "run" in out


class TestPackage:
    def test_star_import_binds_no_module(self):
        # `from swsplit import *` must not rebind a caller's `mesh` or `state`
        import swsplit
        namespace = {}
        exec("from swsplit import *", namespace)
        assert "mesh" not in namespace and "state" not in namespace
        assert not [name for name in swsplit.__all__
                    if isinstance(getattr(swsplit, name), types.ModuleType)]
        assert {"Mesh", "run", "load_mesh", "State"} <= set(swsplit.__all__)


# The README "Outputs" rule: a line is key=value tokens separated by one
# space; a value is a decimal integer, true/false, a float as its Python
# repr, or plain text.
RUN_LOG_KINDS = {"step": "int", "t": "float", "mass": "float", "cg_iterations": "int",
                 "cg_residual": "float", "gate_passed": "bool", "tau_c": "float"}


def parse_tokens(tokens, kinds):
    """(key, value) pairs of key=value tokens, each value checked against its kind."""
    pairs = []
    for token in tokens:
        key, eq, value = token.partition("=")
        assert eq and key in kinds, f"unexpected token {token!r}"
        kind = kinds[key]
        if kind == "int":
            assert re.fullmatch(r"-?[0-9]+", value), token
        elif kind == "float":
            assert repr(float(value)) == value, token
        elif kind == "bool":
            assert value in ("true", "false"), token
        pairs.append((key, value))
    return pairs


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """The demo run twice, plus a warn-mode run whose gate fails every step."""
    root = tmp_path_factory.mktemp("demo")
    for name, extra in (("a", []), ("b", []),
                        ("warn", ["--set", "gate_mode=warn", "--set", "tau=100"])):
        assert main(["run", "-c", str(DEMO_CONFIG), *extra,
                     "--set", f"out_dir={root / name}"]) == 0
    return root


class TestFormats:
    def test_format_value(self):
        assert format_value(True) == "true" and format_value(False) == "false"
        assert format_value(np.float64(0.1) + np.float64(0.2)) == "0.30000000000000004"
        assert format_value(math.nan) == "nan" and format_value(-math.inf) == "-inf"
        assert format_value(3) == "3" and format_value("enforce") == "enforce"

    def test_analyze_machine_pinned_at_defaults(self, capsys):
        assert main(["analyze", "--machine"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "tau=3.0",
            "speed=0.1",
            "depth=0.1",
            "drag=0.00613125",
            "alpha=-0.01822462998046875",
            "beta=-0.05488125",
            "modulus=0.9833081047050055",
            "cubic_a=0.0003007378121241777",
            "cubic_b=5.826704106445313e-06",
            "cubic_c=0.00030073781250000004",
            "cubic_d=0.04905",
            "tau_c_cubic=5.409046260057776",
            "tau_c_modulus=6.799675976782087",
            "convergent_cubic=true",
            "convergent_modulus=true",
        ]

    def test_analyze_keys_are_report_fields(self, capsys):
        assert main(["analyze", "--machine", "--speed", "0"]) == 0
        kinds = {f.name: f.type for f in fields(StabilityReport)}
        keys = [key for line in capsys.readouterr().out.splitlines()
                for key, _ in parse_tokens([line], kinds)]
        assert keys == list(kinds)

    def test_summary_follows_the_rule(self, demo_runs):
        kinds = {f.name: f.type for f in fields(RunSummary)}
        lines = (demo_runs / "a" / "summary.txt").read_text().splitlines()
        assert [key for line in lines for key, _ in parse_tokens([line], kinds)] == list(kinds)
        assert "completed=true" in lines and "steps=36" in lines

    def test_run_log_follows_the_rule(self, demo_runs):
        for name, flagged in (("a", False), ("warn", True)):
            lines = (demo_runs / name / "run.log").read_text().splitlines()
            assert len(lines) == 36
            for k, line in enumerate(lines, start=1):
                pairs = dict(parse_tokens(line.split(" "), RUN_LOG_KINDS))
                assert pairs["step"] == str(k)
                assert line.endswith(f" gate_passed=false tau_c={pairs.get('tau_c')}") \
                    == flagged == ("gate_passed" in pairs) == ("tau_c" in pairs)

    def test_reruns_byte_identical(self, demo_runs):
        for name in ("run.log", "summary.txt"):
            assert (demo_runs / "a" / name).read_bytes() == \
                (demo_runs / "b" / name).read_bytes(), f"{name} differs"
