"""Physical-space synthesis from half-integer Fourier samples and
phase-aligned error metrics.

A function supported on [-1, 1] has the period-2 Fourier series with
coefficients equal to half its transform at the half-integer lattice, so
the truncated exponential sum below is the exact band-limited synthesis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exceptions import GridError, ZeroSignal
from .recovery import RecoveredSpectrum
from .signals import Signal

__all__ = [
    "PhysicalReconstruction",
    "default_grid",
    "synthesize",
    "aligned_relative_error",
    "write_reconstruction_csv",
]


@dataclass(eq=False)
class PhysicalReconstruction:
    """Synthesized values on a grid in [-1, 1], plus the alignment phase
    found by the last error evaluation (None until aligned)."""

    points: np.ndarray
    values: np.ndarray
    alignment_phase: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise GridError("need at least two strictly increasing grid points")
        self.points = pts
        self.values = np.asarray(self.values, dtype=complex)


def default_grid() -> np.ndarray:
    """Uniform reconstruction grid of the bundled experiments: 82 points from
    -1 in steps of 1/40.96."""
    return -1.0 + (1.0 / 40.96) * np.arange(82)


def synthesize(spectrum: RecoveredSpectrum, points) -> PhysicalReconstruction:
    """Evaluate the truncated series (1/2) * sum_j f_hat_j e^{2 pi i w_j x}
    over the spectrum's half-integer lattice w_j (GridError unless it has
    4n + 1 samples)."""
    pts = np.asarray(points, dtype=float)
    phases = np.exp(2j * np.pi * np.outer(pts, spectrum.frequencies))
    return PhysicalReconstruction(pts, 0.5 * (phases @ spectrum.f_hat))


def aligned_relative_error(reconstruction: PhysicalReconstruction,
                           truth: Signal) -> float:
    """Relative l2 error after optimally rotating the reconstruction.

    The minimizing global phase is the argument of the correlation
    <reconstruction, truth> on the grid points; it is recorded on the
    reconstruction as ``alignment_phase``.
    """
    true_vals = truth.evaluate(reconstruction.points)
    true_norm = float(np.linalg.norm(true_vals))
    if true_norm == 0.0:
        raise ZeroSignal("reference signal vanishes on the grid")
    corr = np.vdot(reconstruction.values, true_vals)
    theta = float(np.angle(corr)) if corr != 0 else 0.0
    reconstruction.alignment_phase = theta
    err = np.linalg.norm(true_vals - np.exp(1j * theta) * reconstruction.values)
    return float(err) / true_norm


def write_reconstruction_csv(path, reconstruction: PhysicalReconstruction,
                             truth: Signal) -> None:
    """CSV with the aligned reconstruction next to the true signal values."""
    theta = reconstruction.alignment_phase
    if theta is None:
        aligned_relative_error(reconstruction, truth)
        theta = reconstruction.alignment_phase
    rotated = np.exp(1j * theta) * reconstruction.values
    true_vals = truth.evaluate(reconstruction.points)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "f_true_re", "f_true_im", "f_rec_re", "f_rec_im"])
        for x, tv, rv in zip(reconstruction.points, true_vals, rotated):
            writer.writerow([f"{x:.17g}", f"{tv.real:.17g}", f"{tv.imag:.17g}",
                             f"{rv.real:.17g}", f"{rv.imag:.17g}"])
