import json
import subprocess
import sys

import numpy as np
import pytest

from liftphase import cli, lifting, recovery
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
        assert "aligned_error=1.397490e-05" in capsys.readouterr().out
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
                                              document, key):
        # the measurement file fixes the signal, window, method, grid and
        # noise; a config file that sets them would be silently ignored
        small = {"method": "series", "grid": {
            "n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
            "delta": 3}}
        (tmp_path / "small.json").write_text(json.dumps(small))
        data = tmp_path / "data"
        assert run_cli(["simulate", "--config", str(tmp_path / "small.json"),
                        "--out", str(data)]) == 0
        (tmp_path / "recover.json").write_text(json.dumps(document))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(["recover", str(data / "measurement.json"),
                        "--config", str(tmp_path / "recover.json"),
                        "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

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
        assert set(out.iterdir()) == set()

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
        for bad in (long, binary):
            assert run_cli(["recover", str(bad), "--out",
                            str(tmp_path / "rec")]) == cli.EXIT_CONFIG
        config = tmp_path / "config.json"
        config.write_text('{"recovery": {"refine_iterations": 1' + "0" * 5000
                          + "}}")
        assert run_cli(["simulate", "--config", str(config), "--out",
                        str(tmp_path / "sim")]) == cli.EXIT_CONFIG

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

    def test_noise_level_recorded_in_artifact(self, tmp_path):
        out = tmp_path / "noisy"
        run_cli(["experiment", "paper-1", "--method", "series",
                 "--noise-level", "0.001", "--seed", "5", "--out", str(out)])
        doc = json.loads((out / "measurement.json").read_text())
        assert doc["noise"] == {"seed": 5, "level": 0.001}


class TestConfigResolution:
    def test_config_file_applies_and_flags_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "signal": "modulated",
            "method": "series",
            "recovery": {"refine_iterations": 0},
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
        ({"recovery": {"out_dir": "leaked"}}, "recovery.out_dir"),
        ({"recovery": {"magnitude_floor": 1e-3}}, "recovery.magnitude_floor"),
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
        # a measurement file lists its grid, so recover checks that grid
        from liftphase import recovery

        def forbidden(*args):
            raise AssertionError("a system past the budget was assembled")

        monkeypatch.setattr(recovery, "assemble_system", forbidden)
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
        # to_dict writes the config-file layout the reader accepts
        def resolve(document):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(document))
            return cli._build_config(cli._parser().parse_args(
                ["simulate", "--config", str(path)]))

        first = resolve({
            "signal": "modulated", "method": "series",
            "grid": {"preset": "custom", "n_frequencies": 21, "n_shifts": 7,
                     "shift_spacing": 0.1, "delta": 3},
            "noise": {"seed": 4, "level": 0.01},
            "recovery": {"rank_tol": 1e-8, "refine_iterations": 5},
        })
        assert resolve(first.to_dict()) == first

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
        {"recovery": {"rank_tol": float("nan")}},
        {"recovery": {"out_dir": "leaked", "delta": 4}},
        {"sigal": "modulated"},
        {"grid": {"detla": 9}},
        {"grid": {"preset": "bogus"}},
        {"grid": {"preset": "paper", "n_frequencies": 21}},
        {"recovery": {"max_power_iters": 1}},
        {"noise": {"level": 10 ** 400}},
        {"noise": {"level": 1e308}},
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

    @pytest.mark.parametrize("preset", ["paper-1", "paper-2"])
    def test_blas_thread_count_moves_only_solve_digits(self, preset, tmp_path):
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
                [sys.executable, "-m", "liftphase.cli", "experiment", preset,
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

    def test_import_loads_no_scipy(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, liftphase, liftphase.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
