"""Config parsing, validation, scenario runs and figure presets."""

import collections
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from slowphoton import cli, propagate
from slowphoton.cli import (
    PRESET_NAMES,
    figure_preset,
    load_config,
    main,
    run_scenario,
    validate,
)
from slowphoton.errors import ConfigError, ConvergenceError
from slowphoton.media import EitMedium, MatchedLine
from slowphoton.waveforms import TimeGrid, WaveformKind

FIG6A_TEXT = """\
# EIT transmission of a narrow causal photon
name = fig6a_custom
reference_rate = gamma_m
source.kind = exponential_causal
source.delta_ph = 1.0
medium.kind = eit
medium.gamma_total = 10.0
medium.gamma_m = 1.0
medium.omega = 20.0
medium.thickness = 30.0
grid.t_start = -2.0
grid.t_end = 15.0
grid.n_points = 1701
methods = input, numeric, total_eit
outputs = time_trace, eit_params
"""

SCAN_TEXT = """\
source.kind = exponential_causal
source.delta_ph = 1.0
medium.kind = broad
medium.gamma_total = 10.0
medium.thickness = 5.0
grid.t_start = -1
grid.t_end = 5
grid.n_points = 601
outputs = thickness_scan
scan.kind = broad
scan.t_min = 0
scan.t_max = 10
scan.n_points = 11
"""


MATCHED_TEXT = """\
source.kind = exponential_causal
source.delta_ph = 1
medium.kind = matched
medium.gamma = 1
medium.thickness = 10
grid.t_start = -4
grid.t_end = 10
grid.n_points = 1401
methods = numeric
"""


def _write(tmp_path, text):
    path = tmp_path / "config.cfg"
    path.write_text(text)
    return path


@pytest.fixture
def fig6a_config(tmp_path):
    path = tmp_path / "fig6a.cfg"
    path.write_text(FIG6A_TEXT)
    return path


class TestConfigParsing:
    def test_flat_text(self, fig6a_config):
        sc = load_config(fig6a_config)
        assert sc.name == "fig6a_custom"
        assert sc.source.kind is WaveformKind.EXPONENTIAL_CAUSAL
        assert isinstance(sc.medium, EitMedium)
        assert sc.medium.omega == 20.0
        assert sc.grid.n_points == 1701
        assert sc.methods == ["input", "numeric", "total_eit"]

    def test_json_mirror(self, tmp_path, fig6a_config):
        obj = {
            "name": "fig6a_json",
            "reference_rate": "gamma_m",
            "source": {"kind": "exponential_causal", "delta_ph": 1.0},
            "medium": {
                "kind": "eit",
                "gamma_total": 10.0,
                "gamma_m": 1.0,
                "omega": 20.0,
                "thickness": 30.0,
            },
            "grid": {"t_start": -2.0, "t_end": 15.0, "n_points": 1701},
            "methods": ["input", "numeric", "total_eit"],
            "outputs": ["time_trace", "eit_params"],
        }
        path = tmp_path / "fig6a.json"
        path.write_text(json.dumps(obj))
        sc_json = load_config(path)
        sc_text = load_config(fig6a_config)
        assert sc_json.medium == sc_text.medium
        assert sc_json.grid == sc_text.grid
        assert sc_json.methods == sc_text.methods

    @pytest.mark.parametrize(
        "broken",
        [
            "source.kind exponential_causal\n",  # no equals sign
            "source.kind = nonsense\nsource.delta_ph = 1\n",
            "source.kind = gaussian\nsource.delta_ph = -1\n"
            "grid.t_start = 0\ngrid.t_end = 1\ngrid.n_points = 5\n",
            "source.kind = gaussian\nsource.delta_ph = 1\nmedium.kind = warp\n"
            "grid.t_start = 0\ngrid.t_end = 1\ngrid.n_points = 5\n",
        ],
    )
    def test_parse_errors(self, tmp_path, broken):
        path = tmp_path / "broken.cfg"
        path.write_text(broken)
        with pytest.raises(ConfigError):
            load_config(path)


class TestSchema:
    """The config keys: each section's are the fields of its dataclass."""

    def test_readme_example_parses_and_validates(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        sc = load_config(_write(tmp_path, example))
        assert isinstance(sc.medium, EitMedium)
        assert validate(sc)[0] == []

    @pytest.mark.parametrize(
        "text, key",
        [(FIG6A_TEXT, key) for key in (
            "source.kind", "source.delta_ph", "grid.t_start", "grid.t_end", "grid.n_points",
            "medium.gamma_total", "medium.gamma_m", "medium.omega", "medium.thickness",
        )]
        + [(MATCHED_TEXT, key) for key in ("medium.gamma", "medium.thickness")]
        + [(SCAN_TEXT, key) for key in (
            "medium.gamma_total", "medium.thickness", "scan.t_min", "scan.t_max", "scan.n_points",
        )],
    )
    def test_missing_field_exit_1_names_it(self, tmp_path, capsys, text, key):
        kept = [line for line in text.splitlines() if not line.startswith(f"{key} ")]
        assert len(kept) == len(text.splitlines()) - 1
        path = _write(tmp_path, "\n".join(kept) + "\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        # the parser's error names the key, and so its section, once
        assert err.startswith("error: ") and err.count(key) == 1
        assert not err.startswith(f"error: {key.split('.')[0]}: ")


class TestValidate:
    def test_clean_config(self, fig6a_config):
        errors, _ = validate(load_config(fig6a_config))
        assert errors == []

    def test_grid_before_zero_needs_no_beat_rule(self, tmp_path):
        # _check_beat_work finds no tau in (0, _DEPTH_SPAN/g]: validate accepts the grid, and the
        # closed form writes only the precursor exp(delta_ph*tau - T_+)/2, T_+ = alpha0*l/2 = 5
        sc = cli._panel("before_zero", WaveformKind.SYMMETRIC_PART, 1.0, MatchedLine(1.0, 10.0),
                        TimeGrid(-4.0, -1.0, 301), ["analytic_parts"])
        assert validate(sc) == ([], [])
        run_scenario(sc, tmp_path)
        assert propagate._legendre.cache_info().misses == 0
        data = np.loadtxt(tmp_path / "before_zero_trace.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 1], 0.5 * np.exp(data[:, 0] - 5.0), rtol=1e-14)

    def test_closed_window_named_in_error(self, fig6a_config, tmp_path):
        text = FIG6A_TEXT.replace("medium.omega = 20.0", "medium.omega = 2.0")
        text = text.replace("methods = input, numeric, total_eit", "methods = adiabatic_eit")
        path = tmp_path / "closed.cfg"
        path.write_text(text)
        errors, _ = validate(load_config(path))
        assert any("Omega**2 >= gamma_m*Gamma" in e for e in errors)

    def test_broadline_width_precondition(self, tmp_path):
        path = tmp_path / "bad_broad.cfg"
        path.write_text(
            "source.kind = symmetric_part\nsource.delta_ph = 2.0\n"
            "medium.kind = broad\nmedium.gamma_total = 1.0\nmedium.thickness = 5.0\n"
            "grid.t_start = -1\ngrid.t_end = 5\ngrid.n_points = 601\n"
            "methods = analytic_parts\n"
        )
        errors, _ = validate(load_config(path))
        assert any("Gamma > delta_ph" in e for e in errors)

    def test_broad_scan_reports_the_guard_text(self, tmp_path):
        path = tmp_path / "bad_scan.cfg"
        path.write_text(
            "source.kind = exponential_causal\nsource.delta_ph = 2.0\n"
            "medium.kind = broad\nmedium.gamma_total = 2.0\nmedium.thickness = 5.0\n"
            "grid.t_start = -1\ngrid.t_end = 5\ngrid.n_points = 601\n"
            "outputs = thickness_scan\n"
            "scan.kind = broad\nscan.t_min = 0\nscan.t_max = 10\nscan.n_points = 11\n"
        )
        errors, _ = validate(load_config(path))
        assert errors == [
            "thickness_scan: broad-line solution requires Gamma > delta_ph "
            "(got Gamma=2.0, delta_ph=2.0)"
        ]

    def test_closed_window_gives_no_delay_advice(self, tmp_path):
        text = FIG6A_TEXT.replace("medium.omega = 20.0", "medium.omega = 2.0")
        text = text.replace("methods = input, numeric, total_eit", "methods = numeric")
        text = text.replace("outputs = time_trace, eit_params", "outputs = time_trace")
        text = text.replace("grid.t_end = 15.0", "grid.t_end = 0.5")
        path = tmp_path / "closed_short.cfg"
        path.write_text(text)
        errors, warnings = validate(load_config(path))
        assert errors == []
        assert not any("delayed envelope" in w for w in warnings)

    def test_short_grid_warns_with_delay(self, fig6a_config, tmp_path):
        text = FIG6A_TEXT.replace("grid.t_end = 15.0", "grid.t_end = 0.5")
        path = tmp_path / "short.cfg"
        path.write_text(text)
        _, warnings = validate(load_config(path))
        assert any("t_d = 0.712" in w for w in warnings)

    def test_matched_condition_enforced(self, tmp_path):
        path = tmp_path / "mismatched.cfg"
        path.write_text(
            "source.kind = exponential_causal\nsource.delta_ph = 1\n"
            "medium.kind = matched\nmedium.gamma = 2\nmedium.thickness = 5\n"
            "grid.t_start = -1\ngrid.t_end = 8\ngrid.n_points = 901\n"
            "methods = analytic_matched\n"
        )
        errors, _ = validate(load_config(path))
        assert any("matched condition" in e for e in errors)

    def test_zero_not_on_grid_warns(self, tmp_path):
        path = tmp_path / "offgrid.cfg"
        path.write_text(
            "source.kind = exponential_causal\nsource.delta_ph = 1\n"
            "medium.kind = matched\nmedium.gamma = 1\nmedium.thickness = 1\n"
            "grid.t_start = -1\ngrid.t_end = 1\ngrid.n_points = 10\n"
            "methods = numeric\n"
        )
        _, warnings = validate(load_config(path))
        assert any("tau = 0 is not a grid sample" in w for w in warnings)

    @pytest.mark.parametrize(
        "grid, signed_zero, warns",
        [
            (TimeGrid(-1.0, 1.0, 11), False, False),
            (TimeGrid(-1.0, 1.0, 11), True, False),
            (TimeGrid(-0.1, 0.2, 4), False, False),  # a zero sample 1.4e-17 off by round-off
            (TimeGrid(-1.0, 1.0, 10**6), False, True),
            (TimeGrid(-1.0, 1.0, 10**6 - 1), False, False),
        ],
        ids=["zero", "signed_zero", "round_off", "no_zero_1e6", "zero_1e6"],
    )
    def test_zero_sample_advice_follows_the_grid(self, monkeypatch, grid, signed_zero, warns):
        # test_zero_not_on_grid_warns has the small grid without a zero sample
        if signed_zero:  # linspace writes +0.0; a -0.0 sample is a zero sample too
            times = TimeGrid.times
            monkeypatch.setattr(TimeGrid, "times", lambda g: np.where(times(g) == 0, -0.0, times(g)))
            assert np.signbit(grid.times()).sum() == 6
        sc = cli._panel("zero", WaveformKind.EXPONENTIAL_CAUSAL, 1.0, None, grid, ["input"])
        errors, warnings = validate(sc)
        assert errors == []
        assert any("tau = 0 is not a grid sample" in w for w in warnings) == warns

    def test_json_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_methods_required_for_traces(self, fig6a_config, tmp_path):
        text = FIG6A_TEXT.replace("methods = input, numeric, total_eit", "methods =")
        path = tmp_path / "nomethods.cfg"
        path.write_text(text)
        errors, _ = validate(load_config(path))
        assert any("methods" in e for e in errors)


class TestRunScenario:
    def test_outputs_and_manifest(self, fig6a_config, tmp_path):
        sc = load_config(fig6a_config)
        out = tmp_path / "out"
        manifest = run_scenario(sc, out)
        trace = out / "fig6a_custom_trace.csv"
        assert trace.exists()
        header = trace.read_text().splitlines()[0].split(",")
        assert header[0] == "tau"
        assert "re_numeric" in header and "im_total_eit" in header and "abs_input" in header
        derived = manifest["derived"]
        assert derived["delta_eff_over_delta_ph"] == pytest.approx(6.9, abs=0.05)
        assert derived["t_d_over_tau_life"] == pytest.approx(1.4, abs=0.05)
        assert manifest["convergence"]["numeric"]["drift"] <= 1e-5
        assert (out / "fig6a_custom_eit_params.json").exists()
        data = np.genfromtxt(trace, delimiter=",", names=True)
        assert data.shape[0] == sc.grid.n_points

    def test_manifest_records_the_scan(self, fig6a_config, tmp_path):
        sc = load_config(_write(tmp_path, SCAN_TEXT))
        manifest = run_scenario(sc, tmp_path / "a")
        run_scenario(sc, tmp_path / "b")
        scan = {"kind": "broad", "t_min": 0.0, "t_max": 10.0, "n_points": 11}
        assert manifest["scenario"]["scan"] == scan
        name = manifest["files"]["manifest"]
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert run_scenario(load_config(fig6a_config), tmp_path / "trace")["scenario"]["scan"] is None

    def test_deterministic_output(self, fig6a_config, tmp_path):
        sc = load_config(fig6a_config)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(sc, out1)
        run_scenario(sc, out2)
        name = "fig6a_custom_trace.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m = "fig6a_custom_manifest.json"
        assert (out1 / m).read_bytes() == (out2 / m).read_bytes()

    def test_a_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "out.csv"
        cli._write(path, b"tau,re\n" + b"0.125,1.0\n" * 100)
        cli._write(path, b"tau\n1.5\n")
        assert path.read_bytes() == b"tau\n1.5\n"
        cli._write(path, "\u03c4\r\n".encode())  # the bytes as given
        assert path.read_bytes() == "\u03c4\r\n".encode("utf-8")

    def test_rewritten_outputs_equal_fresh_ones(self, fig6a_config, tmp_path):
        sc = load_config(fig6a_config)
        fresh, stale = tmp_path / "new" / "dir", tmp_path / "stale"
        names = run_scenario(sc, fresh)["files"].values()  # a directory that did not exist
        stale.mkdir()
        for name in names:  # each longer than the output that replaces it
            (stale / name).write_bytes(b"x" * ((fresh / name).stat().st_size + 100))
        run_scenario(sc, stale)
        for name in names:
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()


class TestMainEntry:
    def test_run_exit_codes(self, fig6a_config, tmp_path):
        assert main(["run", str(fig6a_config), "--out", str(tmp_path / "o")]) == 0
        missing = tmp_path / "missing.cfg"
        assert main(["run", str(missing)]) == 1

    @pytest.mark.parametrize("command", ["run", "figure"])
    def test_nonconvergence_exit_code(self, fig6a_config, tmp_path, monkeypatch, capsys, command):
        def diverge(sc, out_dir):
            raise ConvergenceError("spectral quadrature drift too large")

        monkeypatch.setattr(cli, "run_scenario", diverge)
        target = str(fig6a_config) if command == "run" else "fig5"
        assert main([command, target, "--out", str(tmp_path)]) == 3
        assert "spectral quadrature drift" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "figure"])
    def test_unwritable_out_is_one_error_line(self, fig6a_config, tmp_path, command):
        # a directory under a regular file cannot be made, even by root
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = str(fig6a_config) if command == "run" else "fig5"
        result = subprocess.run(
            [sys.executable, "-m", "slowphoton", command, target, "--out", str(blocker / "x")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("source.kind = gaussian\n = 1\n", 1, "line 2: empty key"),
            # a parser's error names its key, and so the section, once
            ("source.kind = gaussian\nsource.delta_ph = fast\n", 1,
             "key 'source.delta_ph': not a number: 'fast'"),
            ("source.kind = gaussian\nsource.delta_ph = 1\ngrid.t_start = 0\ngrid.t_end = 1\ngrid.n_points = 2.5\n",
             1, "key 'grid.n_points': expected an integer, got 2.5"),
            # a dataclass's own check names its section
            ("source.kind = gaussian\nsource.delta_ph = 1\ngrid.t_start = 0\ngrid.t_end = 1\ngrid.n_points = 1\n",
             1, "grid: n_points must be >= 2"),
            ('{"source": {"kind": "gaussian",}}', 1, "invalid JSON: "),
            ('{"source": {"kind": "gaussian", "delta_ph": 1}, "grid": {"t_start": 0, "t_end": 1, "n_points": 5},'
             ' "methods": 3}', 1, "expected a list or comma-separated string, got 3"),
            (SCAN_TEXT.replace("scan.kind = broad", "scan.kind = Steep"), 2, "unknown scan.kind 'steep'"),
            # a JSON boolean is not a number, as flat text's `true` is not
            ('{"source": {"kind": "gaussian", "delta_ph": true}}', 1, "key 'source.delta_ph': not a number: True"),
            ('{"source": {"kind": "gaussian", "delta_ph": 1}, "grid": {"t_start": 0, "t_end": 1, "n_points": 5},'
             ' "medium": {"kind": "matched", "gamma": 1, "thickness": false}}', 1,
             "key 'medium.thickness': not a number: False"),
        ],
        ids=["empty_key", "not_a_number", "not_an_integer", "dataclass_check", "invalid_json", "not_a_list", "scan_kind",
             "json_true", "json_false"],
    )
    def test_validate_refusals_name_their_cause(self, tmp_path, capsys, text, code, message):
        assert main(["validate", str(_write(tmp_path, text))]) == code
        out, err = capsys.readouterr()
        assert f"error: {message}" in (err if code == 1 else out)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + "name = x\n".encode("utf-16-le"))
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: not UTF-8 text: ")

    @pytest.mark.parametrize("form", ["flat", "json"])
    def test_byte_order_mark_is_not_part_of_the_config(self, tmp_path, monkeypatch, capsys, form):
        # a leading UTF-8 mark neither hides the JSON nor renames the first key
        text = FIG6A_TEXT
        if form == "json":
            text = json.dumps(dict(line.split(" = ") for line in FIG6A_TEXT.splitlines()[1:]))
        path = tmp_path / "marked.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        monkeypatch.setattr(cli, "run_scenario", lambda sc, out_dir: {"files": [sc.name]})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out) == ["fig6a_custom"]

    def test_validation_exit_code_names_condition(self, tmp_path, capsys):
        text = FIG6A_TEXT.replace("medium.omega = 20.0", "medium.omega = 2.0")
        text = text.replace("methods = input, numeric, total_eit", "methods = adiabatic_eit")
        path = tmp_path / "closed.cfg"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Omega**2 >= gamma_m*Gamma" in err

    def test_validate_subcommand(self, fig6a_config):
        assert main(["validate", str(fig6a_config)]) == 0

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("scan.t_max", "nan", "scan.t_min and scan.t_max must be finite"),
            ("scan.t_max", "inf", "scan.t_min and scan.t_max must be finite"),
            ("scan.t_min", "-inf", "scan.t_min and scan.t_max must be finite"),
            ("scan.t_min", "-1", "scan.t_min must be >= 0"),
            ("scan.n_points", "0", "scan.n_points must be >= 1"),
            ("scan.n_points", "1000000000000", "scan.n_points must be <= 1000000"),
            ("scan.t_max", "0", "scan.t_max must exceed scan.t_min for 11 points"),
            # t_max > t_min, but np.linspace repeats values between them
            ("scan.kind scan.t_min scan.t_max scan.n_points", "matched 1.0 1.0000000000000004 10",
             "scan.t_max must exceed scan.t_min for 10 points"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_scan_bounds_exit_2(self, tmp_path, capsys, command, key, value, message):
        edits = dict(zip(key.split(), value.split()))  # space-separated keys and their values
        lines = [
            f"{k} = {edits[k]}" if (k := line.split(" = ")[0]) in edits else line
            for line in SCAN_TEXT.splitlines()
        ]
        path = tmp_path / "bad_bounds.cfg"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("grid.t_end = 5", "grid.t_end = inf"),
            ("grid.t_start = -1", "grid.t_start = -inf"),
            ("grid.t_start = -1\ngrid.t_end = 5", "grid.t_start = -1e308\ngrid.t_end = 1e308"),
        ],
        ids=["end", "start", "span"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_infinite_grid_bound_exit_1(self, tmp_path, capsys, command, old, new):
        path = _write(tmp_path, SCAN_TEXT.replace(old, new))
        out = tmp_path / "out"
        args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == 1
        assert "error: grid: t_start, t_end and their span must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new",
        [("medium.thickness = 10", "medium.thickness = 1e6"), ("grid.t_end = 10", "grid.t_end = 1e300"),
         ("medium.thickness = 10", "medium.thickness = 120000")],
        ids=["thick", "long", "thickness_120000"],
    )
    def test_oversized_lattice_exit_2(self, tmp_path, capsys, old, new):
        # the chirp-z zoom of level 1 would need > 2**22 frequencies, so
        # validate refuses both, and run before it fills any lattice
        path = _write(tmp_path, MATCHED_TEXT.replace(old, new))
        assert main(["validate", str(path)]) == 2
        assert "error: method 'numeric': chirp-z zoom of" in capsys.readouterr().out
        start = time.perf_counter()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 10.0
        assert "error: method 'numeric': chirp-z zoom of" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, method, nodes",
        [
            (MATCHED_TEXT.replace("medium.thickness = 10", "medium.thickness = 1e10")
             .replace("methods = numeric", "methods = analytic_parts"), "analytic_parts", 316256),
            (FIG6A_TEXT.replace("medium.thickness = 30.0", "medium.thickness = 1e9")
             .replace("methods = input, numeric, total_eit", "methods = total_eit"), "total_eit", 400056),
            # alpha0*l*tau overflows the node count
            (MATCHED_TEXT.replace("medium.thickness = 10", "medium.thickness = 1e308")
             .replace("methods = numeric", "methods = analytic_parts"), "analytic_parts", "inf"),
            # one tau past zero: 2,000,028 J0 values, under the cap, but a rule whose O(n**2) build
            # would take days (3,001 nodes take 0.2 s, 31,651 about 27 s)
            (MATCHED_TEXT.replace("medium.thickness = 10", "medium.thickness = 4e11")
             .replace("grid.n_points = 1401", "grid.n_points = 2")
             .replace("methods = numeric", "methods = analytic_parts"), "analytic_parts", 2000028),
        ],
        ids=["analytic_parts", "total_eit", "overflow", "rule_build"],
    )
    def test_oversized_beat_rule_exit_2(self, tmp_path, capsys, text, method, nodes):
        # the closed forms' beat rules grow like sqrt(alpha0*l*tau): validate
        # refuses a rule past the cap, and run before any method runs
        path = _write(tmp_path, text)
        message = f"error: method '{method}': closed-form beat rules of {nodes} nodes"
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().out
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, validate_code, run_code, message",
        [
            # alpha0*l = 10 * 1e308 is inf
            (MATCHED_TEXT.replace("medium.gamma = 1", "medium.gamma = 10")
             .replace("medium.thickness = 10", "medium.thickness = 1e308"),
             1, 1, "error: medium: alpha0*l = 1e+308 * 10.0 overflows"),
            (FIG6A_TEXT.replace("medium.omega = 20.0", "medium.omega = 1e200"),
             1, 1, "error: medium: omega**2 must be finite"),
            # the oracle's period 50/delta_ph is inf
            (MATCHED_TEXT.replace("source.delta_ph = 1", "source.delta_ph = 1e-310"),
             2, 2, "error: method 'numeric': spectral lattice overflows"),
            # q**3 in eit_params overflows from Omega ~ 1e52
            (FIG6A_TEXT.replace("medium.omega = 20.0", "medium.omega = 1e100"),
             2, 2, "error: eit_params output: EIT filter numbers overflow"),
            (FIG6A_TEXT.replace("medium.thickness = 30.0", "medium.thickness = 0"),
             2, 2, "error: eit_params output: EIT filter numbers need thickness > 0"),
        ],
        ids=["alpha0_l", "omega", "period", "eit_omega", "eit_thickness"],
    )
    def test_overflowing_rates_exit_without_traceback(
        self, tmp_path, capsys, text, validate_code, run_code, message
    ):
        path = _write(tmp_path, text)
        assert main(["validate", str(path)]) == validate_code
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == run_code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("medium.omega = 20.0", "medium.omega = 1e100", "EIT filter numbers overflow"),
            ("medium.thickness = 30.0", "medium.thickness = 0",
             "EIT filter numbers need thickness > 0"),
        ],
        ids=["omega", "thickness"],
    )
    def test_eit_params_subcommand_refuses_without_traceback(
        self, tmp_path, capsys, old, new, message
    ):
        assert main(["eit-params", str(_write(tmp_path, FIG6A_TEXT.replace(old, new)))]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("medium", ["closed", "zero_thickness"])
    def test_eit_traces_run_without_the_filter_numbers(self, tmp_path, capsys, medium):
        # input and numeric need no EIT filter numbers, so the manifest skips them
        old, new = {
            "closed": ("medium.omega = 20.0", "medium.omega = 2.0"),
            "zero_thickness": ("medium.thickness = 30.0", "medium.thickness = 0"),
        }[medium]
        text = FIG6A_TEXT.replace(old, new).replace("grid.n_points = 1701", "grid.n_points = 171")
        text = text.replace("methods = input, numeric, total_eit", "methods = input, numeric")
        text = text.replace("outputs = time_trace, eit_params", "outputs = time_trace")
        out = tmp_path / "out"
        assert main(["run", str(_write(tmp_path, text)), "--out", str(out)]) == 0
        manifest = json.loads((out / "fig6a_custom_manifest.json").read_text())
        assert "eit_params" not in manifest["derived"]
        assert "Traceback" not in "".join(capsys.readouterr())
        if medium == "zero_thickness":
            data = np.genfromtxt(out / "fig6a_custom_trace.csv", delimiter=",", names=True)
            for part in ("re", "im"):
                assert np.array_equal(data[f"{part}_numeric"], data[f"{part}_input"])

    @pytest.mark.parametrize(
        "old, new, methods, message",
        [
            ("medium.thickness = 30.0", "medium.thickness = 0", "total_eit",
             "method 'total_eit': EIT filter numbers need thickness > 0"),
            ("medium.omega = 20.0", "medium.omega = 2.0", "",
             "eit_params output: adiabatic expansion invalid: requires Omega**2 >= gamma_m*Gamma"),
            ("medium.thickness = 30.0", "medium.thickness = 0", "",
             "eit_params output: EIT filter numbers need thickness > 0"),
        ],
        ids=["zero_thickness_total_eit", "closed_output", "zero_thickness_output"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_eit_filter_numbers_refused_exit_2(
        self, tmp_path, capsys, command, old, new, methods, message
    ):
        text = FIG6A_TEXT.replace(old, new)
        text = text.replace("methods = input, numeric, total_eit", f"methods = {methods}")
        if not methods:
            text = text.replace("outputs = time_trace, eit_params", "outputs = eit_params")
        out = tmp_path / "out"
        path = _write(tmp_path, text)
        args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_phi_plus_exit_2(self, tmp_path, capsys, command):
        # fig5's medium at a causal delta_ph = 200: r = delta_ph/delta_eff = 28.9 is past sqrt(709.78),
        # where exp(r**2) raised an unnamed OverflowError in run after validate printed ok
        text = (
            FIG6A_TEXT.replace("source.delta_ph = 1.0", "source.delta_ph = 200.0")
            .replace("grid.t_start = -2.0", "grid.t_start = -0.5").replace("grid.t_end = 15.0", "grid.t_end = 2.5")
            .replace("grid.n_points = 1701", "grid.n_points = 301")
            .replace("methods = input, numeric, total_eit", "methods = phi_plus")
            .replace("outputs = time_trace, eit_params", "outputs = time_trace")
        )
        out = tmp_path / "out"
        args = [command, str(_write(tmp_path, text))] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "error: method 'phi_plus': phi_plus's plateau exp((delta_ph/delta_eff)**2) overflows" in (
            captured.out + captured.err
        )
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "medium",
        [
            "medium.kind = broad\nmedium.gamma_total = 1.0000001\nmedium.thickness = 9.999999",
            "medium.kind = eit\nmedium.gamma_total = 10\nmedium.gamma_m = 1\n"
            "medium.omega = 4.5000000045\nmedium.thickness = 30",
        ],
        ids=["broad_gamma_near_delta_ph", "eit_near_critical"],
    )
    def test_near_double_pole_runs(self, tmp_path, capsys, medium):
        # Gamma = delta_ph*(1 + 1e-7), Omega = 4.5*(1 + 1e-9): near-coincident
        # poles, whose partial fractions cancel to round-off bounds of 2.2 and 2.6
        text = MATCHED_TEXT.replace(
            "medium.kind = matched\nmedium.gamma = 1\nmedium.thickness = 10", medium
        )
        path = _write(tmp_path, text)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "error" not in captured.err
        manifest = json.loads(next(out.glob("*.json")).read_text())
        assert manifest["convergence"]["numeric"]["roundoff"] <= 1e-12

    def test_thick_matched_line_runs(self, tmp_path, capsys):
        # alpha0*l = 4,000: with the Pade form subtracted, the window of the
        # accepted level keeps its FFT lattice under the cap
        path = _write(tmp_path, MATCHED_TEXT.replace("medium.thickness = 10", "medium.thickness = 4000"))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        conv = json.loads(next(out.glob("*.json")).read_text())["convergence"]["numeric"]
        assert conv["roundoff"] <= 1e-6 and conv["tail_bound"] <= 1e-6

    def test_critical_eit_coupling_runs(self, tmp_path, capsys):
        # Omega = (Gamma - gamma_m)/2: the medium's double pole is subtracted as one
        text = FIG6A_TEXT.replace("medium.omega = 20.0", "medium.omega = 4.5")
        text = text.replace("methods = input, numeric, total_eit", "methods = input, numeric")
        path = _write(tmp_path, text.replace("outputs = time_trace, eit_params", "outputs = time_trace"))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        trace = np.loadtxt(out / "fig6a_custom_trace.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(trace)) and np.abs(trace[:, -1]).max() <= 1.0

    @pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "sub/escaped", "nul\0escaped"])
    @pytest.mark.parametrize("form", ["flat", "json"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_name_must_stay_in_the_output_directory(self, tmp_path, capsys, command, form, name):
        if form == "flat":
            text = f"name = {name}\n" + MATCHED_TEXT
        else:
            text = json.dumps({
                "name": name,
                "source": {"kind": "exponential_causal", "delta_ph": 1},
                "medium": {"kind": "matched", "gamma": 1, "thickness": 10},
                "grid": {"t_start": -4, "t_end": 10, "n_points": 1401},
                "methods": ["numeric"],
            })
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        path = _write(cfg_dir, text)
        out = tmp_path / "work" / "out"
        args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert f"error: name {name!r} must be a plain file name" in captured.out + captured.err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "config.cfg"]

    @pytest.mark.parametrize("command", ["validate", "run", "figure"])
    def test_oversized_grid_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch, command):
        path = tmp_path / "huge_grid.cfg"
        path.write_text(SCAN_TEXT.replace("grid.n_points = 601", "grid.n_points = 1000000000000"))

        def refuse(grid):
            raise AssertionError(f"sampled a grid of {grid.n_points} points")

        monkeypatch.setattr(TimeGrid, "times", refuse)
        monkeypatch.setattr(cli, "figure_preset", lambda name: [load_config(path)])
        out = tmp_path / "out"
        target = "fig2" if command == "figure" else str(path)
        args = [command, target] + (["--out", str(out)] if command != "validate" else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "error: grid.n_points must be <= 1000000 (got 1000000000000)" in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["matched", "broad"])
    def test_single_point_scan_runs(self, tmp_path, kind):
        path = tmp_path / "one_point.cfg"
        path.write_text(SCAN_TEXT.replace("scan.kind = broad", f"scan.kind = {kind}")
                        .replace("scan.n_points = 11", "scan.n_points = 1")
                        .replace("scan.t_max = 10", "scan.t_max = 0"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "one_point_scan.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_near_matched_broad_line_runs_quickly(self, tmp_path):
        # Gamma = delta_ph*(1 + 1e-7) passes validate; its parts must come
        # from a bounded rule, not one sized by T_- = alpha0*l*1e7
        text = SCAN_TEXT.replace("medium.gamma_total = 10.0", "medium.gamma_total = 1.0000001")
        text = text.replace("grid.n_points = 601", "grid.n_points = 1701")
        text = text.replace("outputs = thickness_scan", "methods = input, analytic_parts\noutputs = time_trace")
        path = tmp_path / "near_matched.cfg"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert time.perf_counter() - start < 10.0
        trace = np.loadtxt(tmp_path / "out" / "near_matched_trace.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(trace))

    def test_eit_params_subcommand(self, fig6a_config, capsys):
        assert main(["eit-params", str(fig6a_config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_eff"] == pytest.approx(6.919, abs=1e-3)

    def test_unknown_preset_lists_names(self, capsys):
        assert main(["figure", "fig99"]) == 2
        err = capsys.readouterr().err
        for name in PRESET_NAMES:
            assert name in err

    def test_outdir_env_override(self, fig6a_config, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("SLOWPHOTON_OUTDIR", str(target))
        assert main(["run", str(fig6a_config)]) == 0
        assert (target / "fig6a_custom_trace.csv").exists()

    def test_subprocess_smoke(self, tmp_path):
        # the installed module entry point works end to end
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "name = tiny\nsource.kind = exponential_causal\nsource.delta_ph = 1\n"
            "medium.kind = matched\nmedium.gamma = 1\nmedium.thickness = 1\n"
            "grid.t_start = -1\ngrid.t_end = 8\ngrid.n_points = 901\n"
            "methods = numeric, analytic_matched\noutputs = time_trace\n"
        )
        result = subprocess.run(
            [sys.executable, "-m", "slowphoton", "run", str(cfg), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "tiny_trace.csv").exists()


class TestFigurePresets:
    def test_all_presets_build_and_validate(self):
        for name in PRESET_NAMES:
            for sc in figure_preset(name):
                errors, _ = validate(sc)
                assert errors == [], (name, errors)

    def test_fig2_panels(self):
        panels = figure_preset("fig2")
        assert [sc.name for sc in panels] == ["fig2_symmetric", "fig2_antisymmetric"]
        for sc in panels:
            assert isinstance(sc.medium, MatchedLine)
            assert sc.medium.thickness == 10.0

    def test_fig3a_sources(self):
        kinds = {sc.source.kind for sc in figure_preset("fig3a")}
        assert kinds == {WaveformKind.EXPONENTIAL_CAUSAL, WaveformKind.ANTISYMMETRIC_PART}

    def test_fig6_parameters(self):
        (sc,) = figure_preset("fig6a")
        med = sc.medium
        assert med.gamma_total == 10.0 * med.gamma_m
        assert med.omega == 2.0 * med.gamma_total
        assert med.thickness == 30.0
        assert sc.source.delta_ph == med.gamma_m
        (sc_b,) = figure_preset("fig6b")
        assert sc_b.source.delta_ph == med.gamma_total

    def test_fig7_matches_fig6a_medium(self):
        panels = figure_preset("fig7")
        (fig6a,) = figure_preset("fig6a")
        assert all(sc.medium == fig6a.medium for sc in panels)
        assert {sc.source.kind for sc in panels} == {
            WaveformKind.SYMMETRIC_PART,
            WaveformKind.ANTISYMMETRIC_PART,
        }

    def test_fig6a_manifest_reports_headline_numbers(self, tmp_path):
        (sc,) = figure_preset("fig6a")
        manifest = run_scenario(sc, tmp_path)
        assert manifest["derived"]["delta_eff_over_delta_ph"] == pytest.approx(6.9, abs=0.05)
        assert manifest["derived"]["t_d_over_tau_life"] == pytest.approx(1.4, abs=0.05)
        assert manifest["convergence"]["numeric"]["drift"] <= 1e-5

    def test_fig5_emits_edge_function_for_both_ratios(self, tmp_path):
        (sc,) = figure_preset("fig5")
        assert sc.methods == ["phi_plus", "phi_plus_zero"]
        run_scenario(sc, tmp_path)
        data = np.genfromtxt(tmp_path / "fig5_trace.csv", delimiter=",", names=True)
        # ratio 0.1 curve saturates near exp(r^2) ~ 1.01, zero-width curve at 1
        assert data["re_phi_plus"][-1] == pytest.approx(1.0, abs=0.02)
        assert data["re_phi_plus_zero"][-1] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="fig2"):
            figure_preset("fig1")


class TestKeptResults:
    """Pure results kept between calls: each is computed once where a run reuses it, and changes no byte."""

    KEPT = (propagate._window, propagate._legendre, cli._tau_text, propagate._kept_line_parts, propagate._solve,
            cli._text_tables)

    def _computed(self):
        return tuple(f.cache_info().misses for f in self.KEPT)

    @staticmethod
    def _counted(monkeypatch):
        """Calls to the window's image model and period search, which `_window` looks up when called, to the
        oracle's fills (`_fill`) and to `spectral_response` on their lattices, and the frequencies m of the
        lattices filled ("samples"; a coarse lattice read off a fill's is not counted again)."""
        calls = collections.Counter()
        for name in ("_image_model", "_least_period", "spectral_response", "_fill"):
            def counted(*args, _f=getattr(propagate, name), _name=name):
                calls[_name] += 1
                calls["samples"] += args[3][3] if _name == "_fill" else 0
                return _f(*args)

            monkeypatch.setattr(propagate, name, counted)
        return calls

    def test_every_kept_result_is_cleared_before_each_test(self):
        from conftest import KEPT

        assert {f.__name__ for f in KEPT} == {f.__name__ for f in self.KEPT}
        assert self._computed() == (0,) * len(self.KEPT)

    def test_validate_and_run_share_one_window(self, tmp_path, monkeypatch):
        # one window, one image model and one period search for the lattice check and
        # both levels of the oracle call after it, whose level 0 is read off level 1's
        # lattice: one fill, of one slice of level 1's 18,432 samples
        calls = self._counted(monkeypatch)
        (sc,) = figure_preset("fig6a")
        assert validate(sc)[0] == []
        run_scenario(sc, tmp_path)
        assert propagate._window.cache_info().misses == propagate._solve.cache_info().misses == 1
        assert calls == {"_image_model": 1, "_least_period": 1, "_fill": 1, "spectral_response": 1, "samples": 18432}

    def test_each_pass_over_the_presets_computes_the_same(self, tmp_path, monkeypatch):
        # Each kept result holds its last call only, so this guards that the presets'
        # order keeps every share: 4 windows (4 image models and 4 period searches) for
        # 9 oracle calls, one per (delta_ph, medium, grid), since the exponential kinds of
        # one photon share a window and a solve (fig2's pair, fig3a's pair, fig6a with
        # fe57 and fig7's pair, fig6b), 7 rules for 7 beat integrals and fig3b's broad
        # scan, 10 traces on 4 grids, 4 line parts for 8 closed-form traces (fig2's pair
        # on one line; fig6a, fe57 and fig7's pair on one EIT medium).  The CSV text
        # tables are built on the first pass only.  Every level 1 is an aligned FFT of
        # twice level 0's mdiv and p, so level 0 is read off it in all 4 solves: 4 fills,
        # each of one slice, 4 spectral_response calls, on 82,996 level-1 frequencies
        # (fig2 10,240, fig3a 40,500, the delta_ph = 1 EIT group 18,432, fig6b 13,824).
        names = ("_image_model", "_least_period", "_fill", "spectral_response", "samples")
        calls = self._counted(monkeypatch)
        counts = []
        for run in range(2):
            before = self._computed() + tuple(calls[name] for name in names)
            for name in PRESET_NAMES:
                for sc in figure_preset(name):
                    assert validate(sc)[0] == []
                    run_scenario(sc, tmp_path / str(run))
            after = self._computed() + tuple(calls[name] for name in names)
            counts.append(tuple(a - b for a, b in zip(after, before)))
        assert counts == [(4, 7, 4, 4, 4, 1, 4, 4, 4, 4, 82996), (4, 7, 4, 4, 4, 0, 4, 4, 4, 4, 82996)]
        assert counts[0][-1] <= 85_000

    def test_kept_parts_and_traces_equal_fresh_ones(self):
        (sc,) = figure_preset("fig6a")
        w, a, grid = sc.source, sc.medium, sc.grid
        args = (w.delta_ph, a.gamma_total, a.alpha0_l, grid.times())
        parts, trace = propagate._line_parts(*args), propagate.propagate_numeric(w, a, grid)
        kept_parts, kept_trace = propagate._line_parts(*args), propagate.propagate_numeric(w, a, grid)
        assert self._computed()[3:5] == (1, 1)
        for f in self.KEPT:
            f.cache_clear()
        fresh_parts, fresh_trace = propagate._line_parts(*args), propagate.propagate_numeric(w, a, grid)
        for got, want in [*zip(kept_parts, fresh_parts), *zip(parts, fresh_parts)]:
            assert got.tobytes() == want.tobytes()
        for got in (trace, kept_trace):
            assert got.grid is grid
            assert got.amplitude.tobytes() == fresh_trace.amplitude.tobytes()
            assert got.convergence == fresh_trace.convergence

    def test_signed_zeros_keep_their_own_entries(self):
        sc = figure_preset("fig2")[1]  # the antisymmetric part, which jumps at tau = 0
        w, a = sc.source, sc.medium
        grids = [TimeGrid(-1, 0.0, 3), TimeGrid(-1, -0.0, 3)] * 2
        traces = []
        for grid in grids:
            propagate._line_parts(w.delta_ph, a.gamma, a.alpha0_l, grid.times())
            traces.append(propagate.propagate_numeric(w, a, grid))
            assert traces[-1].grid is grid
        # the line parts are kept by tau's bits, whose last sample differs in sign, so each
        # grid evicts the other's; the two grids are equal, and the oracle's samples do not
        # depend on that sign: one kept trace
        assert self._computed()[3:5] == (4, 1)
        for f in self.KEPT:
            f.cache_clear()
        for grid, trace in zip(grids, traces):
            fresh = propagate.propagate_numeric(w, a, grid)
            assert trace.amplitude.tobytes() == fresh.amplitude.tobytes()
            assert trace.convergence == fresh.convergence
        # nor do the two zero thicknesses, whose sign reaches the antisymmetric part at tau = 0
        for alpha0_l in (0.0, -0.0, 0.0):
            assert np.signbit(propagate._line_parts(1.0, 1.0, alpha0_l, np.zeros(1))[1]) == [np.signbit(alpha0_l)]

    def test_changing_a_returned_result_changes_no_later_one(self):
        (sc,) = figure_preset("fig6a")
        w, a, grid = sc.source, sc.medium, sc.grid
        args = (w.delta_ph, a.gamma_total, a.alpha0_l, grid.times())
        parts, trace = propagate._line_parts(*args), propagate.propagate_numeric(w, a, grid)
        want = [part.copy() for part in parts], trace.amplitude.copy(), dict(trace.convergence)
        for array in (*parts, trace.amplitude):
            array[:] = np.nan
        trace.convergence["drift"] = math.inf
        again, trace = propagate._line_parts(*args), propagate.propagate_numeric(w, a, grid)
        assert self._computed()[3:5] == (1, 1)
        for got, expected in zip(again, want[0]):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(trace.amplitude, want[1])
        assert trace.convergence == want[2]

    def test_signed_zero_bounds_keep_their_text(self, tmp_path):
        # the two grids are equal and hash alike, yet their last tau prints apart
        assert TimeGrid(-1, 0.0, 3) == TimeGrid(-1, -0.0, 3)
        for end, text in [(0.0, "0.0"), (-0.0, "-0.0")]:
            sc = cli._panel("zero_end", WaveformKind.EXPONENTIAL_CAUSAL, 1.0, None, TimeGrid(-1, end, 3), ["input"])
            assert validate(sc)[0] == []
            run_scenario(sc, tmp_path)
            lines = (tmp_path / "zero_end_trace.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines] == ["tau", "-1.0", "-0.5", text]

    def test_kept_tau_text_is_one_read_only_block(self, tmp_path):
        # the first file on a grid formats tau with its methods and leaves the cells kept
        (sc,) = figure_preset("fig6a")
        tau = sc.grid.times()
        assert cli._tau_text(tau.tobytes()) == []
        run_scenario(sc, tmp_path)
        (cells,) = cli._tau_text(tau.tobytes())
        assert cells.shape == (1701, 4) and not cells.flags.writeable
        assert cells.tobytes() == cli._cells(tau).tobytes()
        text = "tau\n" + "".join(f"{t!r}\n" for t in tau.tolist())
        assert cli._csv(["tau"], [cells]) == text.encode()

    def test_each_pass_formats_each_file_in_one_call(self, tmp_path, monkeypatch):
        # 13 CSVs, each one block: one _cells call each, tau in the first trace file on
        # each of the 4 grids and taken from the kept cells in the other 6
        sizes, cells = [], cli._cells
        monkeypatch.setattr(cli, "_cells", lambda x: sizes.append(x.size) or cells(x))
        counts = []
        for run in range(2):
            before, taus = len(sizes), cli._tau_text.cache_info().misses
            for name in PRESET_NAMES:
                for sc in figure_preset(name):
                    run_scenario(sc, tmp_path / str(run))
            counts.append((len(sizes) - before, sum(sizes[before:]), cli._tau_text.cache_info().misses - taus))
        assert counts == [(13, 54_772, 4)] * 2

    def test_presets_in_reverse_order_write_the_same_bytes(self, tmp_path):
        # what is kept from one preset for the next must not depend on their order
        assert main(["figure", "all", "--out", str(tmp_path / "forward")]) == 0
        for name in reversed(PRESET_NAMES):
            assert main(["figure", name, "--out", str(tmp_path / "reverse")]) == 0
        forward = {p.name: p.read_bytes() for p in (tmp_path / "forward").iterdir()}
        assert len(forward) == 27
        assert {p.name: p.read_bytes() for p in (tmp_path / "reverse").iterdir()} == forward


_FRESH_IMPORT = """
import json, sys
import slowphoton.cli
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "rules": slowphoton.propagate._legendre.cache_info().currsize,
    "text_tables": slowphoton.cli._text_tables.cache_info().currsize,
}))
"""


_FIGURE_ALL = """
import contextlib, io, json, sys, tempfile
from slowphoton.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    code = main(["figure", "all", "--out", out])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


class TestImports:
    @staticmethod
    def _run(script):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_cli_import_loads_no_scipy_and_builds_no_rule(self):
        # a fresh interpreter: the import loads no scipy module, leaves _legendre empty and
        # builds no CSV text table
        assert self._run(_FRESH_IMPORT) == {"scipy": [], "rules": 0, "text_tables": 0}

    def test_figure_all_loads_no_scipy(self):
        # numpy is the only runtime dependency: a whole `figure all` in a fresh interpreter,
        # every closed form and rule included, loads no scipy module, not even lazily
        assert self._run(_FIGURE_ALL) == {"code": 0, "scipy": []}
