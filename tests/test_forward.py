import json

import numpy as np
import pytest

import liftphase as lp
from liftphase.exceptions import ConfigError, GridError
from liftphase.forward import half_integer_lattice

from conftest import (adaptive_spectrogram, chirped_window, skewed_specimen,
                      tilted_window)


class TestPaperGrid:
    def test_dimensions(self, grid):
        assert grid.n_frequencies == 61
        assert grid.n_shifts == 11
        assert grid.delta == 7

    def test_frequencies_half_steps(self, grid):
        assert grid.frequencies[0] == -15.0
        assert grid.frequencies[1] == -14.5
        assert grid.frequencies[-1] == 15.0
        assert np.array_equal(grid.frequencies, half_integer_lattice(61))

    def test_shifts_centered(self, grid):
        assert grid.shifts[5] == 0.0
        assert grid.shifts[-1] == pytest.approx(5 * 0.5 / 11)
        # all shifts admissible for a window supported on [-1/2, 1/2]
        assert max(abs(s) for s in grid.shifts) <= 0.5

    def test_builder_validation(self):
        with pytest.raises(GridError):
            lp.half_integer_grid(60, 11, 0.1, 7)
        with pytest.raises(GridError):
            lp.half_integer_grid(61, 0, 0.1, 7)
        with pytest.raises(GridError):
            lp.half_integer_grid(61, 11, 0.1, 0)
        # the grid itself keeps the lattice and band rules
        paper = lp.paper_grid()
        for frequencies, delta in (
                (tuple(w + 0.1 for w in paper.frequencies), 7),  # off lattice
                (paper.frequencies[29:32], 1),  # three: not 4n + 1
                (paper.frequencies, 16)):  # 61 < 4*16 + 1 frequencies
            with pytest.raises(GridError):
                lp.MeasurementGrid(paper.shifts, frequencies, delta)


class TestSpectrogramQuadrature:
    def test_zero_signal(self, window):
        zero = lp.get_signal("zero")
        assert lp.spectrogram_quadrature(zero, window, 0.1, 3.0) == 0.0

    def test_reflection_symmetry_for_real_signal(self, gaussian, window):
        # real f, g: the integral at -w is the conjugate of the one at +w
        for l, w in [(0.05, 2.5), (-0.2, 7.0)]:
            a = lp.spectrogram_quadrature(gaussian, window, l, w)
            b = lp.spectrogram_quadrature(gaussian, window, l, -w)
            assert a == pytest.approx(b, rel=1e-10)

    def test_against_dense_trapezoid_oracle(self, gaussian, window):
        t = np.linspace(-0.5, 0.5, 200001)
        integrand = gaussian.evaluate(t) * window.evaluate(t)
        oracle = abs(np.trapezoid(integrand, t)) ** 2
        got = lp.spectrogram_quadrature(gaussian, window, 0.0, 0.0)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_shift_bound(self, gaussian, window):
        with pytest.raises(GridError):
            lp.spectrogram_quadrature(gaussian, window, 0.51, 0.0)


class TestQuadratureAgainstAdaptiveOracle:
    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_at_the_shift_edges(self, shift, window, modulated):
        freqs = np.concatenate([np.random.default_rng(23).uniform(-30.0, 30.0, 12),
                                [-30.0, -15.0, 15.0, 30.0]])
        for signal in (modulated, skewed_specimen()):
            got = lp.spectrogram_quadrature(signal, window, shift, freqs)
            oracle = np.array([adaptive_spectrogram(signal, window, shift, w)
                               for w in freqs])
            # both integrals are certified to 2e-11, and ||a| - |b|| <= |a - b|
            assert np.max(np.abs(np.sqrt(got) - np.abs(oracle))) <= 4e-11

    def test_array_entries_equal_scalar_calls(self, modulated, window):
        freqs = np.random.default_rng(6).uniform(-15.0, 15.0, 12)
        quad = lp.spectrogram_quadrature(modulated, window, 0.2, freqs)
        series = lp.spectrogram_series(modulated, window, 0.2, freqs, 7)
        assert quad.shape == series.shape == freqs.shape
        for i, w in enumerate(freqs):
            assert quad[i] == lp.spectrogram_quadrature(modulated, window, 0.2, w)
            assert series[i] == lp.spectrogram_series(modulated, window, 0.2, w, 7)


class TestSpectrogramSeries:
    def test_zero_signal(self, window):
        zero = lp.get_signal("zero")
        assert lp.spectrogram_series(zero, window, 0.1, 3.0, 7) == 0.0

    def test_matches_quadrature_at_large_delta(self, gaussian, window):
        q = lp.spectrogram_quadrature(gaussian, window, 0.1, 2.5)
        s = lp.spectrogram_series(gaussian, window, 0.1, 2.5, 15)
        assert abs(q - s) / q < 1e-8

    def test_truncation_error_at_working_delta(self, gaussian, window):
        q = lp.spectrogram_quadrature(gaussian, window, 0.1, 2.5)
        s = lp.spectrogram_series(gaussian, window, 0.1, 2.5, 7)
        assert abs(q - s) / q < 1e-5

    @pytest.mark.parametrize("make_window", [tilted_window, chirped_window],
                             ids=["tilted", "chirped"])
    def test_non_even_windows_match_quadrature(self, make_window, modulated):
        # the series reads ghat(w - m/2); with ghat(m/2 - w) these windows'
        # series are off by a few percent of the scale or more
        window = make_window()
        freqs = np.linspace(-15.0, 15.0, 41) + 0.13
        quad = np.array([lp.spectrogram_quadrature(modulated, window, l, freqs)
                         for l in (-0.3, 0.05, 0.41)])
        series = lp.spectrogram_series(modulated, window,
                                       np.array([-0.3, 0.05, 0.41]), freqs, 30)
        assert np.max(np.abs(quad - series)) <= 1e-12 * np.max(quad)

    def test_truncation_window_size(self):
        # 4*delta + 1 integers at lattice frequencies, 4*delta otherwise
        from liftphase.forward import _truncation_indices
        assert len(_truncation_indices(2.5, 7)) == 29
        assert len(_truncation_indices(2.3, 7)) == 28


class TestMeasure:
    def test_zero_signal_gives_zero_vector(self, grid, window):
        data = lp.measure(lp.get_signal("zero"), window, grid, method="series")
        assert data.values.shape == (671,)
        assert np.all(data.values == 0)

    def test_flat_ordering(self, modulated, window):
        grid = lp.half_integer_grid(21, 3, 0.1, 3)
        data = lp.measure(modulated, window, grid, method="series")
        for k, j in [(0, 0), (1, 7), (2, 20)]:
            direct = lp.spectrogram_series(modulated, window, grid.shifts[k],
                                           grid.frequencies[j], grid.delta)
            assert data.value_at(k, j) == direct

    def test_series_values_equal_per_shift_rows(self, modulated, window, grid):
        data = lp.measure(modulated, window, grid, method="series")
        rows = [lp.spectrogram_series(modulated, window, l,
                                      np.asarray(grid.frequencies), grid.delta)
                for l in grid.shifts]
        assert np.array_equal(data.values, np.concatenate(rows))

    @pytest.mark.parametrize("n_shifts", [3, 11])
    def test_series_route_transforms_once_per_configuration(
            self, n_shifts, gaussian, window, monkeypatch):
        # the series measurement and the lifted system need the signal
        # transform once and the window transform twice (two argument sets),
        # whatever the number of shifts
        calls = []
        for cls in (lp.Signal, lp.Window):
            original = cls.fourier
            monkeypatch.setattr(cls, "fourier",
                                lambda self, freq, _f=original, _c=cls.__name__:
                                calls.append(_c) or _f(self, freq))
        grid = lp.half_integer_grid(21, n_shifts, 0.5 / n_shifts, 3)
        lp.measure(gaussian, window, grid, method="series")
        lp.assemble_system(window, grid)
        assert sorted(calls) == ["Signal", "Window", "Window"]

    def test_methods_agree_on_grid(self, b_quad, b_series):
        for name in ("gaussian", "modulated"):
            dist = np.linalg.norm(b_quad[name].values - b_series[name].values)
            assert dist / np.linalg.norm(b_quad[name].values) <= 1e-4

    @pytest.mark.parametrize("name", ["gaussian", "modulated"])
    def test_monotone_truncation(self, name, window, b_quad):
        signal = lp.get_signal(name)
        base = lp.paper_grid()
        ref = b_quad[name].values
        dists = []
        for delta in (3, 5, 7, 10, 15):
            grid = lp.MeasurementGrid(base.shifts, base.frequencies, delta)
            series = lp.measure(signal, window, grid, method="series").values
            dists.append(np.linalg.norm(series - ref) / np.linalg.norm(ref))
        assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))

    def test_noise_deterministic_and_nonnegative(self, modulated, window):
        grid = lp.half_integer_grid(21, 3, 0.1, 3)
        noisy1 = lp.measure(modulated, window, grid, method="series",
                            noise=lp.NoiseSpec(seed=9, level=0.5))
        noisy2 = lp.measure(modulated, window, grid, method="series",
                            noise=lp.NoiseSpec(seed=9, level=0.5))
        clean = lp.measure(modulated, window, grid, method="series")
        assert np.array_equal(noisy1.values, noisy2.values)
        assert np.all(noisy1.values >= 0)
        assert not np.array_equal(noisy1.values, clean.values)
        rel = np.abs(noisy1.values - clean.values) / np.where(
            clean.values > 0, clean.values, 1.0)
        assert np.max(rel) <= 0.5 + 1e-12

    def test_zero_noise_level_is_noiseless(self, modulated, window):
        grid = lp.half_integer_grid(21, 3, 0.1, 3)
        a = lp.measure(modulated, window, grid, method="series",
                       noise=lp.NoiseSpec(seed=1, level=0.0))
        b = lp.measure(modulated, window, grid, method="series")
        assert np.array_equal(a.values, b.values)
        assert a.noise is None

    def test_global_phase_invariance(self, b_quad, b_quad_rotated):
        ref = b_quad["gaussian"].values
        rot = b_quad_rotated.values
        assert np.linalg.norm(ref - rot) / np.linalg.norm(ref) <= 1e-12

    def test_bad_method(self, gaussian, window, grid):
        with pytest.raises(ConfigError):
            lp.measure(gaussian, window, grid, method="fft")


class TestSerialization:
    def test_round_trip(self, b_series):
        data = b_series["gaussian"]
        doc = json.loads(json.dumps(data.to_dict()))
        back = lp.SpectrogramData.from_dict(doc)
        assert np.array_equal(back.values, data.values)
        assert back.grid == data.grid
        assert back.provenance == "series"
        assert (back.signal, back.window) == ("gaussian", "gaussian")
        # files written before measurements named their signal and window
        del doc["signal"], doc["window"]
        back = lp.SpectrogramData.from_dict(doc)
        assert (back.signal, back.window) == (None, "gaussian")

    def test_rejects_negative_entry(self, b_series):
        doc = b_series["gaussian"].to_dict()
        doc["b"][5] = -1e-3
        with pytest.raises(ConfigError):
            lp.SpectrogramData.from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_entry(self, b_series, value):
        data = b_series["gaussian"]
        values = data.values.copy()
        values[5] = value
        with pytest.raises(GridError):
            lp.SpectrogramData(values, data.grid)
        doc = data.to_dict()
        doc["b"][5] = value
        with pytest.raises(ConfigError):
            lp.SpectrogramData.from_dict(doc)

    def test_rejects_wrong_length(self, b_series):
        doc = b_series["gaussian"].to_dict()
        doc["b"] = doc["b"][:-1]
        with pytest.raises(ConfigError):
            lp.SpectrogramData.from_dict(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(ConfigError):
            lp.SpectrogramData.from_dict({"b": [1.0]})
