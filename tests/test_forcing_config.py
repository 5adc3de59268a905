import bisect
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import flat_config_fields
from swsplit.config import (Config, ConfigError, apply_overrides, load_config,
                            parse_config_text)
from swsplit.forcing import (Forcings, ForcingError, TimeSeries, load_tide,
                             load_wind)


class TestTimeSeries:
    def test_linear_interpolation(self):
        ts = TimeSeries([0.0, 3600.0], [[0.0], [1.0]])
        assert ts.at(1800.0)[0] == 0.5
        assert ts.at(0.0)[0] == 0.0
        assert ts.at(3600.0)[0] == 1.0

    def test_multi_segment(self):
        ts = TimeSeries([0.0, 10.0, 30.0], [[0.0], [1.0], [-1.0]])
        assert ts.at(20.0)[0] == pytest.approx(0.0)
        assert ts.at(25.0)[0] == pytest.approx(-0.5)

    def test_no_extrapolation(self):
        ts = TimeSeries([0.0, 10.0], [[0.0], [1.0]])
        with pytest.raises(ForcingError, match="outside"):
            ts.at(-0.1)
        with pytest.raises(ForcingError, match="outside"):
            ts.at(10.1)
        # an array of times: the error names the first one outside
        with pytest.raises(ForcingError, match=r"^series: t=12 s outside sampled range "
                                               r"\[0, 10\]$"):
            ts.at([5.0, 12.0, -3.0, 20.0])

    def test_strictly_increasing_required(self):
        with pytest.raises(ForcingError, match="strictly increasing"):
            TimeSeries([0.0, 0.0], [[1.0], [2.0]])

    @pytest.mark.parametrize("times, values, bad", [
        ([0.0, np.nan, 20.0], [[0.0], [0.1], [0.2]], 1),   # passes the diff check
        ([0.0, 10.0, 20.0], [[0.0], [np.nan], [0.2]], 1),
        ([0.0, 10.0], [[1.0, np.inf], [1.0, 1.0]], 0),
        ([0.0, np.inf], [[0.0], [0.1]], 1),
    ])
    def test_non_finite_sample_refused(self, times, values, bad):
        with pytest.raises(ForcingError, match=f"^wind: sample {bad} is not finite$"):
            TimeSeries(times, values, name="wind")

    @pytest.mark.parametrize("times, values", [
        ([0.0, 10.0, 20.0], [[0.0], [0.1]]),
        ([[0.0, 10.0]], [[0.0], [0.1]]),   # 2-D times
    ])
    def test_length_mismatch_refused(self, times, values):
        with pytest.raises(ForcingError, match="^tide: times/values length mismatch$"):
            TimeSeries(times, values, name="tide")

    def test_single_sample_series_refused(self):
        # one sample would hold its value at every time: extrapolation
        with pytest.raises(ForcingError, match="^tide: need at least two samples$"):
            TimeSeries([0.0], [[0.5]], name="tide")

    def test_vector_columns(self):
        ts = TimeSeries([0.0, 2.0], [[1.0, -1.0], [3.0, 1.0]])
        assert np.allclose(ts.at(1.0), [2.0, 0.0])


    def test_same_values_as_array_interpolation(self, rng):
        # the array lookup does the scalar formula's operations in its order
        times = np.cumsum(rng.uniform(0.5, 50.0, 40))
        values = rng.standard_normal((40, 2))
        ts = TimeSeries(times, values)
        ts_list, rows = times.tolist(), values.tolist()
        queries = np.concatenate([times, rng.uniform(times[0], times[-1], 200)])
        want = []
        for t in queries.tolist():
            k = min(bisect.bisect_right(ts_list, t) - 1, len(ts_list) - 2)
            w = (t - ts_list[k]) / (ts_list[k + 1] - ts_list[k])
            want.append([(1.0 - w) * a + w * b for a, b in zip(rows[k], rows[k + 1])])
        got = ts.at(queries)
        assert got.shape == (queries.size, 2)
        assert got.tobytes() == np.array(want).tobytes()
        for t, row in zip(queries[:50].tolist(), want):   # a scalar time: that one row
            assert ts.at(t).tobytes() == np.array(row).tobytes()


class TestForcingFiles:
    def test_tide_file(self, tmp_path):
        path = tmp_path / "tide.txt"
        path.write_text("# tidal record\n0 0.0\n3600 1.0\n\n7200 0.0\n")
        tide = load_tide(path)
        assert tide.at(5400.0)[0] == 0.5

    def test_wind_file(self, tmp_path):
        path = tmp_path / "wind.txt"
        path.write_text("0 1.0 -2.0\n100 3.0 2.0\n")
        wind = load_wind(path)
        assert np.allclose(wind.at(50.0), [2.0, 0.0])

    def test_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0 2.0\n")
        with pytest.raises(ForcingError,
                           match=r"bad\.txt:1: expected tide line \(2 fields\), got 3$"):
            load_tide(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 zero\n")
        with pytest.raises(ForcingError, match=r"bad\.txt:1: bad value 'zero' in tide line$"):
            load_tide(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ForcingError, match="no samples"):
            load_tide(path)

    @pytest.mark.parametrize("load, text", [(load_tide, "0 0.5\n"),
                                            (load_wind, "# one row\n0 1.0 2.0\n")])
    def test_single_sample_refused(self, tmp_path, load, text):
        # one sample would read as a constant at every time: extrapolation
        path = tmp_path / "one.txt"
        path.write_text(text)
        with pytest.raises(ForcingError) as exc:
            load(path)
        name = "tide" if load is load_tide else "wind"
        assert str(exc.value) == f"{name} {path}: need at least two samples"

    def test_default_bundle_is_quiet(self):
        f = Forcings()
        assert f.tide is None and f.wind is None
        assert f.tide_at(12345.0) == 0.0
        winds = f.wind_at(np.array([-5.0, 0.0, 1e9]))
        assert winds.shape == (3, 2) and not winds.any()


class TestConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == Config()
        assert cfg.params.g == 9.81 and cfg.params.k0 == 1e-4 and cfg.params.k1 == 40.0
        assert cfg.run_config.tau == 3.0 and cfg.run_config.tau_tilde == 300.0

    def test_sub_step_count_from_reference_steps(self):
        cfg = parse_config_text("tau=3\ntau_tilde=300\n")
        assert cfg.run_config.n_sub == 100

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="multiple of tau"):
            parse_config_text("tau=3\ntau_tilde=299\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("taus=3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("tau=3\ntau=4\n")

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\n  tau=1.5\n tau_tilde = 150\n")
        assert cfg.run_config.tau == 1.5 and cfg.run_config.tau_tilde == 150.0

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_numbers_are_file_lines(self, tmp_path, newline):
        # a blank line of tab, form feed, tab is one line, as in the file
        text = newline.join(["tau=3", "\t\f\t", "bogus", ""])
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        assert str(excinfo.value) == "<config>:3: expected key=value, got 'bogus'"
        path = tmp_path / "run.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == f"{path}:3: expected key=value, got 'bogus'"

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"],
                             ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
    def test_only_newlines_end_a_line(self, brk):
        # str.splitlines would read this as a valid tau_tilde and duration
        with pytest.raises(ConfigError, match=r"^<config>:2: bad value for tau_tilde: "):
            parse_config_text(f"tau=3\ntau_tilde=300{brk}duration=600\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("tau=three\n")

    def test_gauges_parsing(self):
        cfg = parse_config_text("gauges=3,17,0\n")
        assert cfg.gauges == (3, 17, 0)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("theta1=1.2\n")
        with pytest.raises(ConfigError):
            parse_config_text("gate_mode=sometimes\n")
        with pytest.raises(ConfigError):
            parse_config_text("duration=450\n")  # not a multiple of 300
        with pytest.raises(ConfigError, match="h_min"):
            parse_config_text("h_min=0\n")
        with pytest.raises(ConfigError, match="bad value for gauges"):
            parse_config_text("gauges=3,-1\n")
        with pytest.raises(ConfigError, match="bad value for gauges"):
            apply_overrides(Config(), ["gauges=-2"])

    def test_missing_referenced_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("mesh=absent.mesh\n")
        with pytest.raises(ConfigError, match="not found"):
            load_config(path)

    def test_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "tide.txt").write_text("0 0\n10 1\n")
        path = tmp_path / "c.txt"
        path.write_text("tide=tide.txt\n")
        cfg = load_config(path)
        assert cfg.tide == str(tmp_path / "tide.txt")

    def test_readme_table_lists_every_key(self):
        # the README "Config format" table is the key contract: one row per
        # key or per comma-separated group, no key missing, none extra
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
        keys = [key.strip()
                for line in section.splitlines() if line.startswith("| `")
                for key in re.match(r"\| `([^`]*)` \|", line).group(1).split(",")]
        assert sorted(keys) == sorted(f.name for f in flat_config_fields())

    def test_overrides(self):
        cfg = apply_overrides(Config(), ["tau=1.0", "tau_tilde=50", "gate_mode=warn"])
        run_cfg = cfg.run_config
        assert run_cfg.tau == 1.0 and run_cfg.tau_tilde == 50.0 and run_cfg.gate_mode == "warn"
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(Config(), ["nope=1"])
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(Config(), ["tau"])

    def test_override_validation_applies(self):
        with pytest.raises(ConfigError, match="multiple"):
            apply_overrides(Config(), ["tau_tilde=299"])
