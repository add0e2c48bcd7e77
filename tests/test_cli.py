import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liftphase import cli, forward, lifting, recovery
from liftphase.exceptions import ConfigError, DimensionError


SMALL_GRID = {"n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
              "delta": 3}


def run_cli(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def small_measurement(tmp_path_factory):
    """A series measurement file on N = 21, K = 3, spacing 0.1, delta = 2."""
    out = tmp_path_factory.mktemp("small")
    config = out / "config.json"
    config.write_text(json.dumps({"method": "series", "grid": {
        "n_frequencies": 21, "n_shifts": 3, "shift_spacing": 0.1, "delta": 2}}))
    assert cli.main(["simulate", "--config", str(config), "--out",
                     str(out)]) == 0
    return out / "measurement.json"


class TestSimulate:
    def test_writes_schema_valid_file(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--signal", "zero", "--method", "series",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "measurement.json").read_text())
        assert set(doc) == {"signal", "window", "grid", "method", "noise", "b"}
        assert (doc["signal"], doc["window"]) == ("zero", "gaussian")
        assert len(doc["b"]) == 671
        assert doc["noise"] is None
        assert "b_min" in capsys.readouterr().out

    def test_zero_signal_gives_zero_vector(self, tmp_path):
        out = tmp_path / "sim"
        run_cli(["simulate", "--signal", "zero", "--method", "series",
                 "--out", str(out)])
        doc = json.loads((out / "measurement.json").read_text())
        assert all(v == 0 for v in doc["b"])

    def test_unknown_signal_exits_config(self, tmp_path):
        code = run_cli(["simulate", "--signal", "mystery",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("level", ["inf", "nan", "1e308"])
    def test_unusable_noise_level_exits_config(self, tmp_path, capsys, level):
        # inf and 1e308 overflow the uniform draw over [-level, level];
        # nan would otherwise pass every comparison and apply no noise
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--method", "series",
                        "--noise-level", level, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "2*level must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_in_config_exits_config(self, tmp_path, capsys):
        # measure is the one check of the method, and it runs before the
        # output directory is made
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"method": "exact"}))
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--config", str(cfg_path),
                        "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "unknown measurement method" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_past_the_band_exits_config(self, tmp_path, capsys):
        # 61 frequencies hold the band of delta <= 15: a file no command
        # could recover is never written
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--method", "series", "--delta", "20",
                        "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "too few" in capsys.readouterr().err
        assert not out.exists()

    def test_methods_agree(self, tmp_path, b_quad, b_series):
        # session fixtures already hold both routes; compare the artifacts
        a = b_quad["gaussian"].values
        b = b_series["gaussian"].values
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-4

    def test_written_file_round_trips_losslessly(self, tmp_path, b_series):
        import liftphase as lp
        out = tmp_path / "sim"
        run_cli(["simulate", "--signal", "gaussian", "--method", "series",
                 "--out", str(out)])
        loaded = lp.SpectrogramData.from_dict(
            json.loads((out / "measurement.json").read_text()))
        assert np.array_equal(loaded.values, b_series["gaussian"].values)
        assert loaded.grid == b_series["gaussian"].grid


class TestRecoverCommand:
    def test_recover_roundtrip(self, tmp_path, capsys):
        # the measurement file names its signal and window, so recover needs
        # no flag to measure the error against the right truth
        out = tmp_path / "exp"
        run_cli(["simulate", "--signal", "modulated", "--method", "series",
                 "--out", str(out)])
        code = run_cli(["recover", str(out / "measurement.json"),
                        "--out", str(out)])
        assert code == 0
        # the error's last digits move with the BLAS thread count, so it
        # is held to the tolerance of the thread-count test below
        printed = re.search(r"aligned_error=(\S+)", capsys.readouterr().out)
        assert float(printed[1]) == pytest.approx(1.39749e-5, rel=1e-4,
                                                  abs=1e-9)
        spectrum = json.loads((out / "spectrum.json").read_text())
        assert set(spectrum) == {"frequencies", "f_hat", "diagnostics"}
        assert len(spectrum["f_hat"]) == 61
        csv_text = (out / "reconstruction.csv").read_text()
        assert csv_text.startswith("x,f_true_re,f_true_im,f_rec_re,f_rec_im")

    def test_huge_measurements_give_finite_residual(self, tmp_path, capsys):
        out = tmp_path / "exp"
        run_cli(["simulate", "--signal", "gaussian", "--method", "series",
                 "--out", str(out)])
        doc = json.loads((out / "measurement.json").read_text())
        doc["b"] = [v * 1e300 for v in doc["b"]]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        rec = tmp_path / "rec"
        capsys.readouterr()
        assert run_cli(["recover", str(huge), "--out", str(rec)]) == 0
        assert "residual=nan" not in capsys.readouterr().out
        residual = json.loads((rec / "spectrum.json").read_text())[
            "diagnostics"]["residual"]
        assert residual is not None and np.isfinite(residual)

    @pytest.mark.parametrize("document, key", [
        ({"method": "quadrature", "grid": {"delta": 9, "n_frequencies": 61},
          "noise": {"level": 0.5, "seed": 3}}, "method"),
        ({"grid": {"delta": 9, "n_frequencies": 61}}, "grid.delta"),
        ({"grid": {"preset": "paper"}}, "grid.preset"),
        ({"noise": {"level": None, "seed": 3}}, "noise.seed"),
        ({"signal": "modulated"}, "signal"),
        ({"window": "gaussian"}, "window"),
    ])
    def test_measurement_config_keys_rejected(self, tmp_path, capsys,
                                              small_measurement, document,
                                              key):
        # the measurement file fixes the signal, window, method, grid and
        # noise, and its noise level fixes the cutoff, so recover takes no
        # config file: passing one is a usage error whatever it sets
        (tmp_path / "recover.json").write_text(json.dumps(document))
        out = tmp_path / "out"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(["recover", str(small_measurement),
                     "--config", str(tmp_path / "recover.json"),
                     "--out", str(out)])
        assert exc.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--config" in err
        assert not out.exists()

    def test_huge_declared_noise_level_recovers(self, tmp_path,
                                                small_measurement):
        # the cutoff a level sets is capped at 0.1, reached at level 1e-2,
        # so a level far past 1 still gives a cutoff in (0, 1)
        doc = json.loads(small_measurement.read_text())
        spectra = []
        for level in (1e-2, 1e300):
            doc["noise"] = {"seed": 0, "level": level}
            path = tmp_path / f"noisy-{level}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"rec-{level}"
            assert run_cli(["recover", str(path), "--out", str(out)]) == 0
            spectra.append((out / "spectrum.json").read_bytes())
        assert spectra[0] == spectra[1]

    def test_tampered_measurement_rejected(self, tmp_path):
        out = tmp_path / "exp"
        run_cli(["simulate", "--signal", "zero", "--method", "series",
                 "--out", str(out)])
        doc = json.loads((out / "measurement.json").read_text())
        doc["b"][3] = -0.25
        bad = out / "tampered.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["recover", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG

    def test_non_finite_measurement_rejected(self, tmp_path):
        out = tmp_path / "exp"
        run_cli(["simulate", "--signal", "zero", "--method", "series",
                 "--out", str(out)])
        doc = json.loads((out / "measurement.json").read_text())
        doc["b"][3] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        rec = tmp_path / "rec"
        assert run_cli(["recover", str(bad), "--out", str(rec)]) == cli.EXIT_CONFIG
        assert not rec.exists()

    def test_off_lattice_frequencies_leave_no_artifact(self, tmp_path, window,
                                                       gaussian):
        import liftphase as lp
        grid = lp.half_integer_grid(21, 7, 0.5 / 7.0, 3)
        doc = lp.measure(gaussian, window, grid, method="series").to_dict()
        doc["grid"]["frequencies"] = [w + 0.1 for w in doc["grid"]["frequencies"]]
        path = tmp_path / "off_lattice.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rec"
        assert run_cli(["recover", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--method", "quadrature"],
                                      ["--delta", "9"],
                                      ["--noise-level", "0.5"],
                                      ["--seed", "3"],
                                      ["--signal", "modulated"],
                                      ["--window", "gaussian"]])
    def test_measurement_flags_are_rejected(self, tmp_path, capsys, flag):
        # the measurement file fixes the signal, window, method, delta and
        # noise, so recover has no such flags and argparse rejects them
        grid = {"n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
                "delta": 3}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": grid}))
        sim = tmp_path / "sim"
        assert run_cli(["simulate", "--method", "series", "--config",
                        str(cfg_path), "--out", str(sim)]) == 0
        out = tmp_path / "rec"
        with pytest.raises(SystemExit) as exc:
            run_cli(["recover", str(sim / "measurement.json"), *flag,
                     "--out", str(out)])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value", [
        (("grid", "delta"), 1.7),
        (("grid", "delta"), True),
        (("grid", "delta"), 2.0),
        (("grid", "shifts", 0), False),
        (("grid", "frequencies", 0), "-5"),
        (("noise",), {"seed": -1, "level": 0.1}),
        (("noise",), {"seed": 1.5, "level": 0.1}),
        (("noise",), {"seed": True, "level": 0.1}),
        (("noise",), {"seed": 1, "level": True}),
        (("method",), ["x"]),
        (("method",), None),
        (("b", 0), True),
        (("b", 0), 10 ** 400),
        (("signal",), 3),
        (("window",), None),
        (("window",), ["gaussian"]),
    ], ids=["delta-float", "delta-bool", "delta-integral-float", "shift-bool",
            "frequency-string", "seed-negative", "seed-float", "seed-bool",
            "level-bool", "method-list", "method-null", "b-bool", "b-huge",
            "signal-int", "window-null", "window-list"])
    def test_mistyped_measurement_file_exits_config(
            self, tmp_path, capsys, small_measurement, path, value):
        # the file's values take the config path's type rules: a truncated
        # delta of 1.7 would recover at delta = 1, with 20 times the error
        doc = json.loads(small_measurement.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rec"
        capsys.readouterr()
        assert run_cli(["recover", str(bad), "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert "invalid measurement document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("grid",), [], "grid must be an object, got []"),
        (("noise",), 5, "noise must be an object, got 5"),
        (("b",), None, "b must be a list of numbers, got None"),
        (("b",), {}, "b must be a list of numbers, got {}"),
        (("grid", "shifts"), None,
         "grid.shifts must be a list of numbers, got None"),
    ], ids=["grid-list", "noise-int", "b-null", "b-object", "shifts-null"])
    def test_wrongly_typed_section_is_named(self, tmp_path, capsys,
                                            small_measurement, path, value,
                                            message):
        # a section of the wrong type names its key and the type it needs
        doc = json.loads(small_measurement.read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["recover", str(bad), "--out", str(tmp_path / "rec")]) \
            == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("changes, key", [
        ({("extra",): 1}, "extra"),
        ({("grid", "detla"): 5}, "grid.detla"),
        ({("grid", "detla"): 5, ("extra",): 1}, "extra"),
        ({("noise",): {"seed": 1, "level": 1e-3, "sigma": 2}}, "noise.sigma"),
    ], ids=["top-level", "grid", "both", "noise"])
    def test_unknown_measurement_key_exits_config(
            self, tmp_path, capsys, small_measurement, changes, key):
        # a misspelt key in a hand-edited file must not be dropped silently
        doc = json.loads(small_measurement.read_text())
        for path, value in changes.items():
            *parents, last = path
            target = doc
            for part in parents:
                target = target[part]
            target[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rec"
        capsys.readouterr()
        assert run_cli(["recover", str(bad), "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_well_typed_measurement_file_recovers(self, tmp_path,
                                                  small_measurement):
        out = tmp_path / "rec"
        assert run_cli(["recover", str(small_measurement), "--out",
                        str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"spectrum.json",
                                                   "reconstruction.csv"}

    def test_file_without_signal_recovers_without_error(
            self, tmp_path, capsys, small_measurement):
        # a file written before measurements named their signal has no
        # truth to measure against: no aligned error, no truth columns
        doc = json.loads(small_measurement.read_text())
        del doc["signal"]
        path = tmp_path / "unnamed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rec"
        capsys.readouterr()
        assert run_cli(["recover", str(path), "--out", str(out)]) == 0
        assert "aligned_error=n/a" in capsys.readouterr().out
        csv_text = (out / "reconstruction.csv").read_text()
        assert csv_text.splitlines()[0] == "x,f_rec_re,f_rec_im"

    @pytest.mark.parametrize("key, name", [("signal", "mystery"),
                                           ("window", "boxcar")])
    def test_unknown_name_in_file_exits_config(self, tmp_path, capsys,
                                               small_measurement, key, name):
        doc = json.loads(small_measurement.read_text())
        doc[key] = name
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rec"
        capsys.readouterr()
        assert run_cli(["recover", str(path), "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert f"unknown {key} {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_rotated_measurement_recovers_against_its_signal(
            self, tmp_path, capsys, window, gaussian):
        # no spectrogram sees a global phase, and the aligned error removes
        # one, so a rotated signal's file names the catalog signal
        import liftphase as lp
        grid = lp.half_integer_grid(21, 7, 0.5 / 7.0, 3)
        lines = []
        for name, signal in (("plain", gaussian),
                             ("rotated", lp.phase_rotated(gaussian, 0.5))):
            doc = lp.measure(signal, window, grid, method="series").to_dict()
            assert doc["signal"] == "gaussian"
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run_cli(["recover", str(path), "--out",
                            str(tmp_path / name)]) == 0
            lines.append(capsys.readouterr().out)
        errors = [re.search(r"aligned_error=(\S+)", line).group(1)
                  for line in lines]
        assert errors == ["1.952132e-03"] * 2

    @pytest.mark.parametrize("existing", [False, True])
    def test_bad_shift_leaves_no_directory_it_made(
            self, tmp_path, capsys, small_measurement, existing):
        # the shift is checked when the system is assembled, after the
        # output directory is made: the failed run removes the directories
        # it made, and only those
        doc = json.loads(small_measurement.read_text())
        doc["grid"]["shifts"][0] = -0.7
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rec" / "nested"
        if existing:
            out.mkdir(parents=True)
        capsys.readouterr()
        assert run_cli(["recover", str(path), "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert "shift -0.7 outside" in capsys.readouterr().err
        if existing:
            assert out.is_dir() and list(out.iterdir()) == []
        else:
            assert not (tmp_path / "rec").exists()

    def test_zero_signal_file_exits_numerical(self, tmp_path, capsys):
        # the zero signal has no norm to measure an error against
        sim = tmp_path / "sim"
        assert run_cli(["simulate", "--signal", "zero", "--method", "series",
                        "--out", str(sim)]) == 0
        out = tmp_path / "rec"
        capsys.readouterr()
        assert run_cli(["recover", str(sim / "measurement.json"), "--out",
                        str(out)]) == cli.EXIT_NUMERICAL
        assert "reference signal vanishes" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_shape_error_is_not_a_config_error(
            self, tmp_path, monkeypatch, small_measurement):
        # every DimensionError guards an internal shape, so one is a bug
        # and must surface as a traceback, not as exit 2
        def broken(*args, **kwargs):
            raise DimensionError("internal shape")
        monkeypatch.setattr(recovery, "recover", broken)
        with pytest.raises(DimensionError):
            cli.main(["recover", str(small_measurement), "--out",
                      str(tmp_path / "rec")])

    def test_unreadable_json_exits_config(self, tmp_path, small_measurement):
        # Python's JSON reader refuses integers of more than 4300 digits,
        # and a file that is not UTF-8 cannot be decoded
        text = small_measurement.read_text()
        long = tmp_path / "long.json"
        long.write_text(text.replace('"delta": 2', '"delta": 1' + "0" * 5000))
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        # nesting deeper than the reader's recursion limit
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        for bad in (long, binary, nested):
            assert run_cli(["recover", str(bad), "--out",
                            str(tmp_path / "rec")]) == cli.EXIT_CONFIG
        config = tmp_path / "config.json"
        config.write_text('{"grid": {"delta": 1' + "0" * 5000 + "}}")
        assert run_cli(["simulate", "--config", str(config), "--out",
                        str(tmp_path / "sim")]) == cli.EXIT_CONFIG
        assert run_cli(["experiment", "paper-1", "--config", str(nested),
                        "--out", str(tmp_path / "exp")]) == cli.EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli(["recover", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_IO


class TestExperiment:
    def test_unknown_name(self, tmp_path):
        assert run_cli(["experiment", "paper-9",
                        "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_series_experiment_runs_and_meets_bound(self, tmp_path):
        out = tmp_path / "exp"
        code = run_cli(["experiment", "paper-1", "--method", "series",
                        "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["aligned_relative_error"] <= 5e-3
        assert metrics["rank"] == 671
        for name in ("measurement.json", "spectrum.json",
                     "reconstruction.csv", "metrics.json"):
            assert (out / name).exists()

    def test_artifacts_write_the_whole_diagnostics_record(self, tmp_path):
        from dataclasses import fields
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": SMALL_GRID}))
        out = tmp_path / "exp"
        assert run_cli(["experiment", "paper-1", "--method", "series",
                        "--config", str(cfg_path), "--out", str(out)]) == 0
        spectrum = json.loads((out / "spectrum.json").read_text())
        assert list(spectrum["diagnostics"]) == [
            field.name for field in fields(recovery.RecoveryDiagnostics)]
        metrics = json.loads((out / "metrics.json").read_text())
        for key, value in spectrum["diagnostics"].items():
            assert metrics[key] == value
        assert metrics["refine_residual"] > 0
        assert 0 <= metrics["clamped_fraction"] < 1
        assert "window" not in metrics["config"]
        assert "recovery" not in metrics["config"]

    def test_unmakeable_out_exits_io_before_measuring(self, tmp_path,
                                                      monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("measured before the output directory")

        monkeypatch.setattr(forward, "measure", forbidden)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(["experiment", "paper-1", "--out",
                        str(blocker / "sub")]) == cli.EXIT_IO
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["experiment", "paper-1"]])
    def test_window_flag_is_gone(self, tmp_path, capsys, command):
        # the catalog has one window, so the flag could take one value only
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, "--window", "gaussian", "--out", str(out)])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_noise_flag_is_noop(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(["experiment", "paper-1", "--method", "series",
                 "--noise-level", "0", "--out", str(out_a)])
        run_cli(["experiment", "paper-1", "--method", "series",
                 "--out", str(out_b)])
        for name in ("measurement.json", "spectrum.json",
                     "reconstruction.csv", "metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failed_recovery_leaves_no_artifact(self, tmp_path):
        # the zero signal measures and recovers, then the error evaluation
        # raises ZeroSignal: measurement.json must not be left behind
        out = tmp_path / "zero"
        code = run_cli(["experiment", "paper-1", "--method", "series",
                        "--signal", "zero", "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert not out.exists()

    def test_grid_too_small_for_delta_exits_config(self, tmp_path):
        # delta = 6 needs 4*6 + 1 = 25 frequencies; the grid has 21
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": {
            "n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
            "delta": 6}}))
        out = tmp_path / "out"
        code = run_cli(["experiment", "paper-1", "--method", "series",
                        "--config", str(cfg_path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_grid_too_small_for_delta_is_rejected_before_measuring(
            self, tmp_path, monkeypatch, capsys):
        from liftphase import forward

        def forbidden(*args, **kwargs):
            raise AssertionError("measured a grid the lifted system rejects")

        monkeypatch.setattr(forward, "measure", forbidden)
        code = run_cli(["experiment", "paper-1", "--method", "series",
                        "--delta", "16", "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "too few" in capsys.readouterr().err

    def test_svd_failure_exits_numerical_and_leaves_no_artifact(
            self, tmp_path, monkeypatch, capsys):
        # a cold factorization whose SVD does not converge is a numerical
        # failure (exit 4), not a traceback
        from liftphase import recovery

        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(recovery, "_system_cache", {})
        monkeypatch.setattr(np.linalg, "svd", diverges)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": {
            "n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
            "delta": 3}}))
        out = tmp_path / "out"
        code = run_cli(["experiment", "paper-1", "--method", "series",
                        "--config", str(cfg_path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert "SVD did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        # the third of four artifacts fails to write: the two already
        # written must not be left behind, nor any temporary file
        real_write = cli.write_json

        def fails_on_measurement(path, document):
            if "measurement.json" in str(path):
                raise OSError("disk full")
            real_write(path, document)

        monkeypatch.setattr(cli, "write_json", fails_on_measurement)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": SMALL_GRID}))
        out = tmp_path / "out"
        code = run_cli(["experiment", "paper-1", "--method", "series",
                        "--config", str(cfg_path), "--out", str(out)])
        assert code == cli.EXIT_IO
        assert not out.exists()

    def test_noise_level_recorded_in_artifact(self, tmp_path):
        out = tmp_path / "noisy"
        run_cli(["experiment", "paper-1", "--method", "series",
                 "--noise-level", "0.001", "--seed", "5", "--out", str(out)])
        doc = json.loads((out / "measurement.json").read_text())
        assert doc["noise"] == {"seed": 5, "level": 0.001}

    @pytest.mark.parametrize("preset", ["paper-1", "paper-2"])
    def test_noisy_experiment_truncates_at_the_noise_level(self, tmp_path,
                                                           preset):
        # with the cutoff at 1e-10 the noise passes through the smallest
        # singular values, s_671/s_1 ~ 1e-8, and the errors were 77.5 and
        # 49.4; the declared level sets the cutoff to 1e-2
        out = tmp_path / "noisy"
        assert run_cli(["experiment", preset, "--method", "series",
                        "--noise-level", "1e-3", "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["aligned_relative_error"] <= 1e-2


class TestConfigResolution:
    def test_config_file_applies_and_flags_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "signal": "modulated",
            "method": "series",
        }))
        out = tmp_path / "out"
        code = run_cli(["simulate", "--config", str(cfg_path),
                        "--signal", "zero", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "measurement.json").read_text())
        assert doc["method"] == "series"
        assert all(v == 0 for v in doc["b"])  # flag overrode the file signal

    def test_bad_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"recovery": {"unknown_knob": 1}}))
        assert run_cli(["simulate", "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("document, key", [
        ({"sigal": "modulated"}, "sigal"),
        ({"grid": {"detla": 9}}, "grid.detla"),
        ({"recovery": {"out_dir": "leaked"}}, "recovery"),
        ({"recovery": {"magnitude_floor": 1e-3}}, "recovery"),
        # settings that could take one value only
        ({"window": "gaussian"}, "window"),
        ({"recovery": {"refine_iterations": 30}}, "recovery"),
        # the noise level in the data sets the cutoff
        ({"recovery": {"rank_tol": 1e-10}}, "recovery"),
    ])
    def test_unknown_key_is_named(self, tmp_path, capsys, document, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(document))
        assert run_cli(["simulate", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        {"n_frequencies": 10 ** 31 + 1},
        {"n_frequencies": 1001},
        {"n_shifts": 10 ** 9},
    ], ids=["n-1e31", "n-1001", "k-1e9"])
    def test_grid_past_the_matrix_budget_exits_config(
            self, tmp_path, capsys, monkeypatch, grid):
        # rejected from the sizes alone: building the grid would allocate
        def forbidden(*args):
            raise AssertionError("a grid past the budget was built")

        monkeypatch.setattr(cli.forward, "half_integer_grid", forbidden)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": grid}))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--method", "series", "--config",
                        str(cfg_path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "lifted matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fixture", ["paper_system", "small_setup"])
    def test_matrix_budget_counts_the_dense_matrix(self, request, monkeypatch,
                                                   fixture):
        system = request.getfixturevalue(fixture)
        system = system[1] if isinstance(system, tuple) else system
        grid = system.grid
        sizes = (grid.n_frequencies, grid.n_shifts, grid.delta)
        size = 8 * system.n_measurements * system.n_unknowns
        monkeypatch.setattr(lifting, "MATRIX_BUDGET", size)
        lifting.check_matrix_budget(*sizes)
        monkeypatch.setattr(lifting, "MATRIX_BUDGET", size - 1)
        with pytest.raises(ConfigError, match="lifted matrix"):
            lifting.check_matrix_budget(*sizes)

    def test_measurement_grid_past_the_budget_exits_config(
            self, tmp_path, capsys, monkeypatch, small_measurement):
        # a measurement file lists its grid, and the lifted system checks
        # that grid's budget before it builds a row of its matrix
        def forbidden(*args):
            raise AssertionError("a matrix past the budget was built")

        monkeypatch.setattr(recovery, "_system_cache", {})
        monkeypatch.setattr(lifting.LiftedSystem, "_block", forbidden)
        monkeypatch.setattr(lifting, "MATRIX_BUDGET", 8 * 3 * 21 * 21)
        out = tmp_path / "out"
        assert run_cli(["recover", str(small_measurement), "--out",
                        str(out)]) == cli.EXIT_CONFIG
        assert "lifted matrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", [None, "custom"])
    def test_grid_sizes_set_the_grid(self, tmp_path, preset):
        grid = {"n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
                "delta": 3}
        if preset is not None:
            grid["preset"] = preset
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": grid}))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--signal", "zero", "--method", "series",
                        "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "measurement.json").read_text())
        assert len(doc["grid"]["frequencies"]) == 21
        assert len(doc["b"]) == 147

    def test_resolved_config_reads_back(self, tmp_path):
        # the resolved document is in the config-file layout the reader
        # accepts, and reading it back resolves to itself
        def resolve(document):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(document))
            return cli._build_config(cli._parser().parse_args(
                ["simulate", "--config", str(path)])).document

        first = resolve({
            "signal": "modulated", "method": "series",
            "grid": {"preset": "custom", "n_frequencies": 21, "n_shifts": 7,
                     "shift_spacing": 0.1, "delta": 3},
            "noise": {"seed": 4, "level": 0.01},
        })
        assert first["grid"] == {"n_frequencies": 21, "n_shifts": 7,
                                 "shift_spacing": 0.1, "delta": 3}
        assert resolve(first) == first

    def test_readme_config_table_lists_the_reader_keys(self):
        # the README's config table names every key the reader accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        table = readme.split("| key | default | meaning |", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()[2:]
        documented = {key for row in rows
                      for key in re.findall(r"`([^`]+)`", row.split("|")[1])}

        def leaves(table, where=""):
            for key, default in table.items():
                if isinstance(default, dict):
                    yield from leaves(default, f"{where}{key}.")
                else:
                    yield where + key
        assert documented == {*leaves(cli.CONFIG_KEYS), "grid.preset"}

    def test_bad_json_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{not json")
        assert run_cli(["simulate", "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("document", [
        {"grid": 5},
        {"recovery": 3},
        {"grid": {"delta": "7"}},
        {"noise": {"level": "x"}},
        {"recovery": {"rank_tol": 1e-10}},
        {"recovery": {"out_dir": "leaked", "delta": 4}},
        {"sigal": "modulated"},
        {"grid": {"detla": 9}},
        {"grid": {"preset": "bogus"}},
        {"grid": {"preset": "paper", "n_frequencies": 21}},
        {"recovery": {"max_power_iters": 1}},
        {"noise": {"level": 10 ** 400}},
        {"noise": {"level": 1e308}},
        {"window": "gaussian"},
        {"recovery": {"refine_iterations": 30}},
        {"grid": {"shift_spacing": 1e308}},
        {"out": 5},
        {"noise": {"seed": -1}},
    ])
    def test_wrongly_typed_config_exits_config(self, tmp_path, document):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "liftphase.cli", "simulate", "--method",
             "series", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("document", [
        {"grid": {"shift_spacing": 1e308}},
        {"recovery": {"rank_tol": 1.0}},
        {"recovery": {"rank_tol": 1.7e308}},
    ], ids=["spacing-1e308", "rank-tol-1", "rank-tol-1.7e308"])
    def test_out_of_range_setting_exits_before_measuring(
            self, tmp_path, monkeypatch, document):
        # an infinite shift span overflows the grid's multiply; a rank_tol
        # is no setting any more (the data's noise level sets the cutoff),
        # so one out of range is refused with the recovery section
        def forbidden(*args, **kwargs):
            raise AssertionError("measured with a setting out of range")

        monkeypatch.setattr(cli.forward, "measure", forbidden)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert run_cli(["experiment", "paper-1", "--method", "series",
                        "--config", str(cfg_path), "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert not out.exists()


class TestSubprocessEntry:
    def test_console_invocation(self, tmp_path):
        # exercise the installed module entry point end to end
        result = subprocess.run(
            [sys.executable, "-m", "liftphase.cli", "simulate",
             "--signal", "zero", "--method", "series", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0
        assert (tmp_path / "measurement.json").exists()

    @staticmethod
    def _check_thread_counts(args, tmp_path):
        # byte-identity holds per BLAS configuration: measurement does not
        # depend on the thread count, while the solve's reduction order does,
        # and s_min/s_1 ~ 1e-8 amplifies it to ~5e-10 of the spectrum.  That
        # is 4.5e-4 of paper-1's aligned error of 7.7e-8, so the errors are
        # compared to 1e-4 relative plus 1e-9 absolute.
        import os
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "liftphase.cli", "experiment", *args,
                 "--method", "series", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert result.returncode == 0, result.stderr
            runs.append(out)
        assert (runs[0] / "measurement.json").read_bytes() \
            == (runs[1] / "measurement.json").read_bytes()
        spectra = [np.array([complex(re, im) for re, im in json.loads(
            (out / "spectrum.json").read_text())["f_hat"]]) for out in runs]
        aligned = spectra[0] * np.exp(1j * np.angle(np.vdot(spectra[0],
                                                            spectra[1])))
        assert np.linalg.norm(aligned - spectra[1]) \
            <= 1e-8 * np.linalg.norm(spectra[1])
        errors = [json.loads((out / "metrics.json").read_text())[
            "aligned_relative_error"] for out in runs]
        assert errors[1] == pytest.approx(errors[0], rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize("preset", ["paper-1", "paper-2"])
    def test_blas_thread_count_moves_only_solve_digits(self, preset, tmp_path):
        self._check_thread_counts([preset], tmp_path)

    def test_blas_thread_count_moves_only_solve_digits_at_101_15(self,
                                                                 tmp_path):
        # the series-ladder benchmark's largest configuration: rank 1,515,
        # error 2.06e-6
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": {
            "n_frequencies": 101, "n_shifts": 15, "shift_spacing": 1.0 / 30.0,
            "delta": 7}}))
        self._check_thread_counts(["paper-2", "--config", str(cfg_path)],
                                  tmp_path)

    def test_import_loads_no_scipy(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, liftphase, liftphase.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
