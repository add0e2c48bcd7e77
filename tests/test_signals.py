import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson

import liftphase as lp
from liftphase.exceptions import NonConvergence

from conftest import adaptive_fourier

mpmath.mp.dps = 30


def truncated_gaussian_transform(alpha, half_width, freq, scale=1.0):
    """Oracle: scale * int_{-L}^{L} e^{-alpha t^2} e^{-2 pi i freq t} dt via
    the erf closed form with complex argument."""
    a = mpmath.mpf(alpha)
    L = mpmath.mpf(half_width)
    w = mpmath.mpf(freq)
    pref = mpmath.sqrt(mpmath.pi / a) * mpmath.e ** (-(mpmath.pi * w) ** 2 / a)
    arg_hi = mpmath.sqrt(a) * L + 1j * mpmath.pi * w / mpmath.sqrt(a)
    arg_lo = -mpmath.sqrt(a) * L + 1j * mpmath.pi * w / mpmath.sqrt(a)
    val = pref * (mpmath.erf(arg_hi) - mpmath.erf(arg_lo)) / 2
    return complex(val) * scale


class TestGaussianSpecimen:
    def test_peak(self, gaussian):
        assert complex(gaussian.evaluate(0.0)) == pytest.approx(2 ** 0.25, abs=1e-14)

    def test_outside_support(self, gaussian):
        assert complex(gaussian.evaluate(1.5)) == 0.0

    def test_transform_at_zero_matches_closed_form(self, gaussian):
        # untruncated closed form; the truncation correction is below 1e-9
        expected = 2 ** 0.25 * (3.0 / 20.0) * np.sqrt(np.pi)
        assert gaussian.fourier(0.0).real == pytest.approx(expected, abs=1e-9)
        assert abs(gaussian.fourier(0.0).imag) < 1e-12

    def test_support_containment(self, gaussian):
        t = np.concatenate([np.linspace(-50.0, -1.0000001, 5000),
                            np.linspace(1.0000001, 50.0, 5000)])
        assert np.all(gaussian.evaluate(t) == 0)


class TestModulatedSpecimen:
    def test_peak(self, modulated):
        assert complex(modulated.evaluate(0.0)) == pytest.approx(2 ** 0.25, abs=1e-14)

    def test_even_symmetry(self, modulated):
        t = np.linspace(0.0, 1.0, 257)
        assert np.allclose(modulated.evaluate(t), modulated.evaluate(-t), atol=0)

    def test_transform_matches_two_gaussian_oracle(self, modulated):
        # cos modulation splits the transform into two shifted Gaussians
        freq = 24.0 / (2 * np.pi)
        shift = 24.0 / (2 * np.pi)
        expected = 0.5 * (
            truncated_gaussian_transform(8 * np.pi, 1.0, freq - shift, 2 ** 0.25)
            + truncated_gaussian_transform(8 * np.pi, 1.0, freq + shift, 2 ** 0.25))
        assert modulated.fourier(freq) == pytest.approx(expected, abs=1e-8)

    def test_support_containment(self, modulated):
        t = np.linspace(1.0000001, 30.0, 10000)
        assert np.all(modulated.evaluate(t) == 0)
        assert np.all(modulated.evaluate(-t) == 0)


class TestGaussianWindow:
    def test_unit_norm(self, window):
        spec = lp.QuadratureSpec(-0.5, 0.5, tolerance=1e-12)
        sq, _ = lp.integrate_complex(
            lambda t: np.abs(window.evaluate(t)) ** 2 + 0j, spec)
        assert sq.real == pytest.approx(1.0, abs=1e-10)

    def test_outside_support(self, window):
        assert complex(window.evaluate(0.6)) == 0.0

    def test_transform_vs_erf_oracle(self, window):
        expected = truncated_gaussian_transform(
            16 * np.pi, 0.5, 7.0, window.normalization * 2 ** 0.25)
        got = window.fourier(7.0)
        assert got == pytest.approx(expected, abs=1e-12)
        # actual decay level at the truncation radius (a few 1e-5, set by the
        # Gaussian factor; the support truncation floors later tails near
        # 8e-6 / (pi x) at half-integers)
        assert abs(got) < 1e-4

    def test_transform_decay(self, window):
        for x in np.arange(7.0, 15.5, 0.5):
            assert abs(window.fourier(x)) < 1e-4
        for x in np.arange(8.5, 15.5, 0.5):
            assert abs(window.fourier(x)) < 1e-6


class TestFourierSamples:
    def test_zero_signal(self, grid):
        zero = lp.get_signal("zero")
        vals = zero.fourier(grid.frequencies)
        assert np.all(vals == 0)

    def test_single_point_consistency(self, gaussian):
        assert gaussian.fourier([0.0])[0] == gaussian.fourier(0.0)

    def test_paper_grid_real_even(self, gaussian, grid):
        # real even signal: transform is real and even
        vals = gaussian.fourier(grid.frequencies)
        assert vals.shape == (61,)
        assert np.max(np.abs(vals.imag)) < 1e-8
        assert np.allclose(vals, vals[::-1].conj(), atol=1e-8)


class TestTransformsAgainstAdaptiveOracle:
    """Gauss-Legendre transforms against adaptive quadrature.  Both routes
    are certified to 5e-13 absolute, so they may differ by 1e-12."""

    @pytest.mark.parametrize("name", ["gaussian", "modulated"])
    def test_signal_on_the_series_lattice(self, name, grid):
        # every fhat(m/2) the paper grid's series reaches: |m/2| <= 15 + delta
        signal = lp.get_signal(name)
        reach = max(grid.frequencies) + grid.delta
        lattice = np.arange(-2 * reach, 2 * reach + 1) / 2.0
        got = signal.fourier(lattice)
        oracle = [adaptive_fourier(signal, x, -1.0, 1.0) for x in lattice]
        assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_window_on_the_shift_lattice(self, window, grid):
        lattice = np.arange(-2 * grid.delta, 2 * grid.delta + 1) / 2.0
        got = window.fourier(lattice)
        oracle = [adaptive_fourier(window, x, -0.5, 0.5) for x in lattice]
        assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_off_lattice(self, window, gaussian, modulated):
        freqs = np.random.default_rng(17).uniform(-30.0, 30.0, 20)
        freqs = np.concatenate([freqs, [-30.0, 30.0]])
        for obj, (lo, hi) in ((gaussian, (-1.0, 1.0)), (modulated, (-1.0, 1.0)),
                              (window, (-0.5, 0.5))):
            got = obj.fourier(freqs)
            oracle = [adaptive_fourier(obj, x, lo, hi) for x in freqs]
            assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_array_entries_equal_scalar_calls(self, window, modulated):
        freqs = np.random.default_rng(8).uniform(-30.0, 30.0, 30)
        for obj in (window, modulated):
            together = obj.fourier(freqs)
            assert together.shape == freqs.shape
            for i, x in enumerate(freqs):
                alone = obj.fourier(x)
                assert isinstance(alone, complex)
                assert together[i] == alone


class TestParseval:
    @pytest.mark.parametrize("name", ["gaussian", "modulated"])
    def test_energy_matches_between_domains(self, name):
        signal = lp.get_signal(name)
        spec = lp.QuadratureSpec(-1.0, 1.0, tolerance=1e-12)
        time_energy, _ = lp.integrate_complex(
            lambda t: np.abs(signal.evaluate(t)) ** 2 + 0j, spec)
        freqs = np.arange(-30.0, 30.0 + 1e-9, 0.05)
        power = np.array([abs(signal.fourier(w)) ** 2 for w in freqs])
        freq_energy = simpson(power, x=freqs)
        assert freq_energy == pytest.approx(time_energy.real, rel=1e-4)


class TestRegistryAndRotation:
    def test_registry(self):
        assert lp.signal_names() == ["gaussian", "modulated", "zero"]
        with pytest.raises(lp.ConfigError):
            lp.get_signal("nope")
        with pytest.raises(lp.ConfigError):
            lp.get_window("nope")

    def test_phase_rotation(self, gaussian):
        rotated = lp.phase_rotated(gaussian, 1.1)
        t = np.linspace(-1, 1, 101)
        assert np.allclose(np.abs(rotated.evaluate(t)),
                           np.abs(gaussian.evaluate(t)), atol=1e-15)
        assert complex(rotated.evaluate(0.3)) == pytest.approx(
            np.exp(1.1j) * complex(gaussian.evaluate(0.3)), abs=1e-15)
