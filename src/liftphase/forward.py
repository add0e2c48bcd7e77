"""Spectrogram measurement model.

Two independent routes produce the same squared-magnitude windowed-Fourier
measurements: direct quadrature of the defining integral, and a truncated
half-integer lattice series.  ``measure`` stacks them into the flat
measurement vector (shift-major, frequency-minor) and can add seeded
multiplicative noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, GridError, NonConvergence
from .kernels import QuadratureSpec, integrate_complex
from .signals import Signal, Window

__all__ = [
    "MeasurementGrid",
    "NoiseSpec",
    "SpectrogramData",
    "paper_grid",
    "half_integer_grid",
    "half_integer_lattice",
    "spectrogram_quadrature",
    "spectrogram_series",
    "measure",
]

#: Absolute quadrature tolerance of measurement integrals: tight, so that
#: relative comparisons at the 1e-6 level see no quadrature noise.
MEASUREMENT_TOL = 2e-11


def half_integer_lattice(size: int) -> np.ndarray:
    """The half-step frequency lattice (j - 2n - 1)/2, j = 1..4n+1, of
    ``size = 4n + 1`` points, symmetric about zero; GridError unless
    ``size`` is 1 mod 4."""
    if size % 4 != 1:
        raise GridError(f"the half-integer lattice has 4n + 1 frequencies, "
                        f"not {size}")
    return (np.arange(1, size + 1) - (size + 1) // 2) / 2.0


@dataclass(frozen=True)
class MeasurementGrid:
    """Shifts, frequencies, and the series truncation radius delta.

    The frequencies must be the half-integer lattice of their count, and
    the count at least the 4*delta + 1 that a row of the lifted system
    reaches; a grid that breaks either rule cannot be built."""

    shifts: tuple[float, ...]
    frequencies: tuple[float, ...]
    delta: int

    def __post_init__(self):
        if self.delta < 1:
            raise GridError("delta must be >= 1")
        if not self.shifts:
            raise GridError("grid needs at least one shift")
        if not all(math.isfinite(x) for x in self.shifts):
            raise GridError("shifts must be finite")
        lattice = half_integer_lattice(self.n_frequencies)
        if not np.array_equal(self.frequencies, lattice):
            raise GridError("frequencies must be the half-integer lattice "
                            "(j - 2n - 1)/2, j = 1..4n+1")
        if self.n_frequencies < 4 * self.delta + 1:
            raise GridError(
                f"{self.n_frequencies} frequencies are too few for "
                f"delta={self.delta}: the lifted system needs at least "
                f"{4 * self.delta + 1}")

    @property
    def n_shifts(self) -> int:
        return len(self.shifts)

    @property
    def n_frequencies(self) -> int:
        return len(self.frequencies)


def half_integer_grid(n_frequencies: int, n_shifts: int, shift_spacing: float,
                      delta: int) -> MeasurementGrid:
    """Half-step frequency lattice with shifts centered about zero."""
    freqs = half_integer_lattice(n_frequencies)
    if not (n_shifts >= 1 and shift_spacing > 0
            and math.isfinite((n_shifts - 1) * shift_spacing)):
        raise GridError("need n_shifts >= 1, positive shift_spacing and a "
                        "finite shift span (n_shifts - 1) * shift_spacing")
    center = (n_shifts + 1) / 2.0
    shifts = (np.arange(1, n_shifts + 1) - center) * shift_spacing
    return MeasurementGrid(tuple(shifts), tuple(freqs), delta)


#: The bundled experiment grid's :func:`half_integer_grid` arguments: 61
#: half-step frequencies in [-15, 15], 11 shifts 0.5/11 apart, delta = 7.
PAPER_GRID = {"n_frequencies": 61, "n_shifts": 11, "shift_spacing": 0.5 / 11.0,
              "delta": 7}


def paper_grid() -> MeasurementGrid:
    """The bundled experiment grid, :data:`PAPER_GRID`."""
    return half_integer_grid(**PAPER_GRID)


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded multiplicative-uniform noise: b -> b * (1 + eps), |eps| <= level.

    A level above 1 is allowed (:func:`measure` clamps at zero); the draw
    range 2·level must be finite, or the uniform draw overflows."""

    seed: int
    level: float

    def __post_init__(self):
        if not (self.level >= 0 and math.isfinite(2.0 * self.level)):
            raise ConfigError(f"noise level must be >= 0 and 2*level must be "
                              f"finite, got {self.level!r}")
        if self.seed < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class SpectrogramData:
    """Flat nonnegative measurement vector, shift-major then frequency, and
    the names of the signal (None if unknown) and of the window measured."""

    values: np.ndarray
    grid: MeasurementGrid
    provenance: str = "quadrature"
    noise: NoiseSpec | None = None
    signal: str | None = None
    window: str = "gaussian"

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        expected = self.grid.n_shifts * self.grid.n_frequencies
        if vals.shape != (expected,):
            raise GridError(f"measurement vector must have length {expected}")
        if not np.all(np.isfinite(vals)):
            raise GridError("measurements must be finite")
        if np.any(vals < 0):
            raise GridError("measurements must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value_at(self, shift_index: int, freq_index: int) -> float:
        """Entry for (shift k, frequency j), both zero-based."""
        return float(self.values[shift_index * self.grid.n_frequencies + freq_index])

    def to_dict(self) -> dict:
        return {
            "signal": self.signal,
            "window": self.window,
            "grid": {
                "shifts": list(self.grid.shifts),
                "frequencies": list(self.grid.frequencies),
                "delta": self.grid.delta,
            },
            "method": self.provenance,
            "noise": None if self.noise is None else
                     {"seed": self.noise.seed, "level": self.noise.level},
            "b": [float(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SpectrogramData":
        """Inverse of :meth:`to_dict`.  A missing or unknown key, or a value
        that :func:`check_type` rejects or the grid cannot take, raises
        ConfigError; ``method`` and ``window`` (then "gaussian") may be left
        out, and ``signal`` and ``noise`` be null or left out."""
        try:
            _known_keys("", doc, ("signal", "window", "grid", "method",
                                  "noise", "b"))
            layout, noise = doc["grid"], doc.get("noise")
            _known_keys("grid.", layout, ("shifts", "frequencies", "delta"))
            check_type("grid.delta", int, layout["delta"])
            check_type("method", str, doc.get("method", "file"))
            check_type("window", str, doc.get("window", "gaussian"))
            if doc.get("signal") is not None:
                check_type("signal", str, doc["signal"])
            grid = MeasurementGrid(
                _numbers("grid.shifts", layout["shifts"]),
                _numbers("grid.frequencies", layout["frequencies"]),
                layout["delta"])
            spec = None
            if noise is not None:
                _known_keys("noise.", noise, ("seed", "level"))
                check_type("noise.seed", int, noise["seed"])
                check_type("noise.level", float, noise["level"])
                spec = NoiseSpec(noise["seed"], float(noise["level"]))
            return cls(np.array(_numbers("b", doc["b"])), grid,
                       provenance=doc.get("method", "file"), noise=spec,
                       signal=doc.get("signal"),
                       window=doc.get("window", "gaussian"))
        except (KeyError, TypeError, ValueError, ConfigError, GridError) as exc:
            raise ConfigError(f"invalid measurement document: {exc}") from exc


def check_type(key: str, expected: type, value) -> None:
    """Raise ConfigError unless a document value has its field's type: a
    string, an integer, or a finite number within float range (booleans
    are not numbers here)."""
    kinds = {str: "a string", int: "an integer", float: "a finite number"}
    allowed = (int, float) if expected is float else expected
    if (isinstance(value, bool) or not isinstance(value, allowed)
            or (expected is float and not abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{key} must be {kinds[expected]}, got {value!r}")


def _known_keys(where: str, section, keys: tuple[str, ...]) -> None:
    """Raise ConfigError unless a document section is an object, naming the
    first of its keys that ``keys`` does not list."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where.rstrip('.') or 'the document'} must be an "
                          f"object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {where + key!r}")


def _numbers(key: str, values) -> tuple[float, ...]:
    """The entries of a document list, each checked to be a number."""
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    for value in values:
        check_type(key, float, value)
    return tuple(float(value) for value in values)


def check_shift(window: Window, shift: float) -> None:
    """Raise GridError unless the shifted window stays inside [-1, 1]."""
    bound = 1.0 - window.half_width
    if not -bound <= shift <= bound:
        raise GridError(
            f"shift {shift} outside [{-bound}, {bound}] for window half-width "
            f"{window.half_width}"
        )


def spectrogram_quadrature(signal: Signal, window: Window, shift: float,
                           freq):
    """Squared modulus of the windowed Fourier integral, by quadrature over
    the intersection of the signal and shifted-window supports; a float for
    a scalar ``freq``, an array of its shape for an array."""
    check_shift(window, shift)
    lo = max(-1.0, shift - window.half_width)
    hi = min(1.0, shift + window.half_width)
    spec = QuadratureSpec(lo, hi, tolerance=MEASUREMENT_TOL)
    freqs = np.asarray(freq, dtype=float)
    vals, _ = integrate_complex(
        lambda t: (signal.evaluate(t) * window.evaluate(t - shift))[:, None]
        * np.exp(-2j * np.pi * np.multiply.outer(t, freqs.ravel())), spec)
    power = np.abs(vals.reshape(freqs.shape)) ** 2
    return float(power) if freqs.ndim == 0 else power


def _truncation_indices(freq: float, delta: int) -> range:
    lo = math.ceil(2.0 * freq - 2.0 * delta)
    hi = math.floor(2.0 * freq + 2.0 * delta)
    return range(lo, hi + 1)


def spectrogram_series(signal: Signal, window: Window, shift, freq,
                       delta: int):
    """Truncated half-integer series for the same measurement.

    Approximates ``|integral f(t) g(t - l) e^{-2 pi i freq t} dt|^2``, the
    quantity :func:`spectrogram_quadrature` integrates.  Expanding f in its
    Fourier series on [-1, 1] turns the integral into
    ``1/2 sum_m e^{i pi l m} fhat(m/2) ghat(freq - m/2)`` up to a unimodular
    factor.  The sum runs over the integers m with ``|m - 2 freq| <= 2
    delta``, and one quarter of its squared modulus is returned.

    The truncation error is small relative to the spectrogram's scale (its
    peak over shifts and frequencies), not point by point: deep in the
    spectral tail, where the measurement itself is tiny, the dropped terms
    can be comparable to it.

    ``shift`` and ``freq`` may be arrays; the result then has shape
    ``shift.shape + freq.shape``.  The shift enters only through the phase,
    so the signal and the window are transformed once per call, at each
    distinct argument, whatever the number of shifts; a row is bitwise the
    same as the call for its shift alone.
    """
    shifts = np.asarray(shift, dtype=float)
    for l in shifts.ravel():
        check_shift(window, l)
    if delta < 1:
        raise GridError("delta must be >= 1")
    freqs = np.asarray(freq, dtype=float)
    flat = freqs.ravel()
    # 4*delta + 1 slots of ascending m per frequency; off the lattice the
    # truncation range holds one integer fewer and the last slot stays empty
    spans = [_truncation_indices(w, delta) for w in flat]
    m = np.array([s.start for s in spans])[:, None] + np.arange(4 * delta + 1)
    inside = m < np.array([s.stop for s in spans])[:, None]
    lattice, lattice_at = np.unique(m / 2.0, return_inverse=True)
    offsets, offsets_at = np.unique(flat[:, None] - m / 2.0, return_inverse=True)
    coeffs = np.where(inside,
                      signal.fourier(lattice)[lattice_at.reshape(m.shape)]
                      * window.fourier(offsets)[offsets_at.reshape(m.shape)],
                      0.0)
    power = np.array([
        0.25 * np.abs((np.exp(1j * np.pi * l * m) * coeffs).sum(axis=1)) ** 2
        for l in shifts.ravel()]).reshape(shifts.shape + freqs.shape)
    return float(power) if power.ndim == 0 else power


def measure(signal: Signal, window: Window, grid: MeasurementGrid,
            method: str = "quadrature", noise: NoiseSpec | None = None
            ) -> SpectrogramData:
    """Full measurement vector on the grid, by either route.

    Entry ``(k, j)`` (shift-major flat index ``k * N + j``) is the
    measurement at ``(shifts[k], frequencies[j])``.  The series route is
    one :func:`spectrogram_series` call over all shifts, the quadrature
    route one :func:`spectrogram_quadrature` call per shift.  Optional noise
    multiplies each entry by ``1 + eps`` with eps i.i.d. uniform in
    ``[-level, level]`` under the given seed, then clamps at zero.
    """
    if method not in ("quadrature", "series"):
        raise ConfigError(f"unknown measurement method {method!r}")
    freqs = np.asarray(grid.frequencies)
    try:
        if method == "series":
            values = spectrogram_series(signal, window, np.asarray(grid.shifts),
                                        freqs, grid.delta).ravel()
        else:
            values = np.concatenate([
                spectrogram_quadrature(signal, window, shift, freqs)
                for shift in grid.shifts])
    except NonConvergence as exc:
        raise NonConvergence(f"{method} measurement: {exc}") from exc
    if noise is not None and noise.level > 0:
        rng = np.random.default_rng(noise.seed)
        eps = rng.uniform(-noise.level, noise.level, size=values.size)
        values = np.maximum(values * (1.0 + eps), 0.0)
    else:
        noise = None
    return SpectrogramData(values, grid, provenance=method, noise=noise,
                           signal=signal.name, window=window.name)
