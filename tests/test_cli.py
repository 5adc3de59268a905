from dataclasses import fields

import pytest

from helpers import mesh_text, rect_mesh_arrays
from swsplit.cli import main
from swsplit.config import Config
from swsplit.mesh import OPEN
from swsplit.stability import PhysicalParams, build_report


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

    def test_version_and_help(self, capsys):
        assert main(["--version"]) == 0
        assert "swsplit" in capsys.readouterr().out
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "run" in out
