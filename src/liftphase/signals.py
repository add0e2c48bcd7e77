"""Catalog of compactly supported test signals and windows.

Signals live on [-1, 1]; windows live on [-a, a] with a < 1 and are
normalized to unit L2 norm.  Both expose time-domain evaluation and a
Fourier-transform evaluator backed by Gauss-Legendre quadrature of the
truncated profile, one call per array of frequencies (truncation tails
matter at the 1e-6 level, so closed forms of the untruncated profiles are
used only as test oracles, never in the pipeline).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError
from .kernels import QuadratureSpec, integrate_complex

__all__ = [
    "Signal",
    "Window",
    "gaussian_specimen",
    "modulated_specimen",
    "zero_specimen",
    "gaussian_window",
    "fourier_samples",
    "phase_rotated",
    "get_signal",
    "get_window",
    "signal_names",
]

_TRANSFORM_TOL = 5e-13


def _transform(evaluate, half_width: float, freq):
    """Integral of evaluate(t) e^{-2 pi i freq t} over [-half_width,
    half_width], one certified column per frequency."""
    freqs = np.asarray(freq, dtype=float)
    values, _ = integrate_complex(lambda t: evaluate(t)[:, None] * np.exp(
        -2j * np.pi * np.multiply.outer(t, freqs.ravel())),
        QuadratureSpec(-half_width, half_width, tolerance=_TRANSFORM_TOL))
    return complex(values[0]) if freqs.ndim == 0 else values.reshape(freqs.shape)


class Signal:
    """Complex signal supported on [-1, 1] with Fourier evaluation."""

    def __init__(self, name: str, evaluator):
        self.name = name
        self._evaluator = evaluator

    def evaluate(self, t):
        """Vectorized time-domain evaluation; zero outside [-1, 1]."""
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= 1.0
        vals = np.where(inside, self._evaluator(np.where(inside, t, 0.0)), 0.0)
        return vals.astype(complex)

    def fourier(self, freq):
        """Fourier transform, integral of f(t) e^{-2 pi i freq t}: a complex
        for a scalar frequency, an array of its shape for an array.  Each
        value is the same whatever else the array holds."""
        return _transform(self.evaluate, 1.0, freq)


class Window:
    """Unit-norm window supported on [-a, a], a < 1.

    The normalization constant is computed at construction from a quadrature
    of the squared profile, so that the L2 norm is 1 to within 1e-10.
    """

    def __init__(self, name: str, profile, half_width: float):
        if not 0.0 < half_width < 1.0:
            raise ValueError("window half-width must lie in (0, 1)")
        self.name = name
        self.half_width = half_width
        self._profile = profile
        norm_spec = QuadratureSpec(-half_width, half_width, tolerance=1e-13)
        sq, _ = integrate_complex(lambda t: np.abs(profile(t)) ** 2, norm_spec)
        self.normalization = 1.0 / math.sqrt(sq.real)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= self.half_width
        vals = np.where(inside,
                        self.normalization * self._profile(np.where(inside, t, 0.0)),
                        0.0)
        return vals.astype(complex)

    def fourier(self, freq):
        """Fourier transform of the window, as :meth:`Signal.fourier`."""
        return _transform(self.evaluate, self.half_width, freq)

    @property
    def key(self) -> tuple:
        """Hashable identity used for system caching."""
        return (self.name, self.half_width)


def gaussian_specimen() -> Signal:
    """Gaussian test signal, peak 2**(1/4) at the origin."""
    return Signal("gaussian", lambda t: 2 ** 0.25 * np.exp(-(400.0 / 9.0) * t * t))


def modulated_specimen() -> Signal:
    """Gaussian multiplied by a cosine carrier; even and real-valued."""
    return Signal(
        "modulated",
        lambda t: 2 ** 0.25 * np.exp(-8.0 * np.pi * t * t) * np.cos(24.0 * t),
    )


def zero_specimen() -> Signal:
    return Signal("zero", lambda t: np.zeros_like(np.asarray(t, dtype=float)))


def gaussian_window() -> Window:
    """Truncated Gaussian window on [-1/2, 1/2], normalized to unit L2 norm."""
    return Window("gaussian", lambda t: 2 ** 0.25 * np.exp(-16.0 * np.pi * t * t), 0.5)


def phase_rotated(signal: Signal, theta: float) -> Signal:
    """The same signal multiplied by a global unimodular factor e^{i theta}."""
    factor = complex(np.exp(1j * theta))
    return Signal(f"{signal.name}*e^(i{theta:g})",
                  lambda t, _f=factor, _s=signal: _f * _s.evaluate(t))


def fourier_samples(signal: Signal, frequencies) -> np.ndarray:
    """Fourier transform of the signal at each frequency (ground-truth vector)."""
    return signal.fourier(np.asarray(frequencies, dtype=float))


_SIGNAL_FACTORIES = {
    "gaussian": gaussian_specimen,
    "modulated": modulated_specimen,
    "zero": zero_specimen,
}
_WINDOW_FACTORIES = {"gaussian": gaussian_window}


def get_signal(name: str) -> Signal:
    """Catalog lookup; each call builds a new instance."""
    if name not in _SIGNAL_FACTORIES:
        raise ConfigError(f"unknown signal {name!r}; have {sorted(_SIGNAL_FACTORIES)}")
    return _SIGNAL_FACTORIES[name]()


def get_window(name: str) -> Window:
    if name not in _WINDOW_FACTORIES:
        raise ConfigError(f"unknown window {name!r}; have {sorted(_WINDOW_FACTORIES)}")
    return _WINDOW_FACTORIES[name]()


def signal_names() -> list[str]:
    return sorted(_SIGNAL_FACTORIES)
