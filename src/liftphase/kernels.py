"""Numerical primitives: complex quadrature, minimum-norm least squares,
dominant eigenpairs, and banded Hermitian storage.

Everything here is a pure function of its inputs (no module state), so all
operations are safe to call concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .exceptions import DecompositionFailure, DimensionError, NonConvergence

__all__ = [
    "QuadratureSpec",
    "integrate_complex",
    "min_norm_least_squares",
    "leading_eigenvector",
    "BandedMatrix",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration interval, absolute tolerance, and subdivision budget."""

    lower: float
    upper: float
    tolerance: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def integrate_complex(integrand, spec: QuadratureSpec) -> tuple[complex, float]:
    """Adaptive Gauss-Kronrod quadrature of a complex-valued integrand.

    Real and imaginary parts are integrated separately to the spec's
    absolute tolerance.

    Returns
    -------
    (value, error_estimate)
        ``error_estimate`` is the sum of the two parts' estimates.

    Raises
    ------
    NonConvergence
        If the combined error estimate exceeds ``spec.tolerance``.
    """
    # Ask quadpack for an eighth of the tolerance: its refinement stops as
    # soon as the internal estimate crosses the request, so the reported
    # estimate can sit slightly above it; over-requesting keeps the reported
    # estimate safely below the contractual tolerance checked below.
    inner = spec.tolerance * 0.125
    with warnings.catch_warnings():
        # quadpack warns on roundoff-limited refinement; the returned error
        # estimate is still authoritative and checked below.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re_val, re_err = integrate.quad(
            lambda t: integrand(t).real, spec.lower, spec.upper,
            epsabs=inner, epsrel=0.0, limit=spec.max_subdivisions,
        )
        im_val, im_err = integrate.quad(
            lambda t: integrand(t).imag, spec.lower, spec.upper,
            epsabs=inner, epsrel=0.0, limit=spec.max_subdivisions,
        )
    err = re_err + im_err
    if err > spec.tolerance:
        raise NonConvergence(
            f"quadrature error estimate {err:.3e} exceeds tolerance "
            f"{spec.tolerance:.3e} on [{spec.lower}, {spec.upper}]"
        )
    return complex(re_val, im_val), err


def _svd(a: np.ndarray):
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"SVD did not converge: {exc}") from exc


def min_norm_least_squares(
    a: np.ndarray,
    b: np.ndarray,
    rank_tol: float = 1e-10,
    factorization=None,
) -> tuple[np.ndarray, float, int]:
    """Minimum-norm solution of ``min ||a x - b||_2`` via truncated SVD.

    Singular values below ``rank_tol`` times the largest one are dropped;
    the count of retained values is the numerical rank.

    Parameters
    ----------
    factorization
        Optional precomputed ``(u, s, vh)`` thin SVD of ``a``, so repeated
        solves against one matrix can reuse it.

    Returns
    -------
    (x, residual_norm, numerical_rank)
    """
    a = np.asarray(a)
    b = np.asarray(b, dtype=complex).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"shape mismatch: a is {a.shape}, b has {b.shape[0]} rows")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    u, s, vh = factorization if factorization is not None else _svd(a)
    if s.size and s[0] > 0:
        keep = s > rank_tol * s[0]
    else:
        keep = np.zeros(s.shape, dtype=bool)
    rank = int(keep.sum())
    coeffs = u[:, keep].conj().T @ b
    x = vh[keep].conj().T @ (coeffs / s[keep])
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, rank


class BandedMatrix:
    """Square complex matrix supported on a band, stored as one dense array.

    Entries with ``|i - j| > half_width`` stay zero.  With ``hermitian=True``
    every write also writes the conjugate mirror and keeps the diagonal
    real, so Hermitian symmetry holds structurally rather than to a
    tolerance.
    """

    def __init__(self, size: int, half_width: int, hermitian: bool = False):
        if size < 1:
            raise DimensionError("size must be >= 1")
        if not 0 <= half_width <= size - 1:
            raise DimensionError(
                f"half_width {half_width} out of range for size {size}"
            )
        self.size = size
        self.half_width = half_width
        self.hermitian = hermitian
        self._dense = np.zeros((size, size), dtype=complex)

    @classmethod
    def from_dense(cls, dense: np.ndarray, half_width: int, hermitian: bool = False):
        """Band-restrict a dense matrix; out-of-band entries are dropped.

        With ``hermitian=True`` the upper triangle is taken as authoritative
        and the diagonal's imaginary part is discarded.
        """
        dense = np.asarray(dense, dtype=complex)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionError(f"expected a square matrix, got {dense.shape}")
        out = cls(dense.shape[0], half_width, hermitian=hermitian)
        band = np.triu(np.tril(dense, half_width), -half_width)
        if hermitian:
            upper = np.triu(band, 1)
            band = upper + upper.conj().T + np.diag(band.diagonal().real)
        out._dense = band
        return out

    def diagonal(self, offset: int) -> np.ndarray:
        """Entries of diagonal ``offset`` (``A[i, i+offset]``); a copy."""
        return np.diagonal(self._dense, offset).copy()

    def set_diagonal(self, offset: int, values: np.ndarray) -> None:
        if abs(offset) > self.half_width:
            raise DimensionError(f"offset {offset} outside band {self.half_width}")
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.size - abs(offset),):
            raise DimensionError("diagonal length mismatch")
        i = np.arange(values.size)
        rows, cols = (i, i + offset) if offset >= 0 else (i - offset, i)
        if self.hermitian:
            if offset == 0:
                values = values.real
            self._dense[cols, rows] = np.conj(values)
        self._dense[rows, cols] = values

    def to_dense(self) -> np.ndarray:
        return self._dense.copy()

    def window(self, center: int, radius: int) -> tuple[int, np.ndarray]:
        """Dense block ``A[lo:hi, lo:hi]`` for the index window around
        ``center``; a copy of that block only.

        Returns ``(lo, block)`` with ``hi = lo + block.shape[0]``.
        """
        lo = max(0, center - radius)
        hi = min(self.size, center + radius + 1)
        return lo, self._dense[lo:hi, lo:hi].copy()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.size,):
            raise DimensionError("vector length mismatch")
        return self._dense @ v

    def one_norm(self) -> float:
        """Maximum absolute column sum."""
        return float(np.abs(self._dense).sum(axis=0).max())

    def max_abs(self) -> float:
        return float(np.abs(self._dense).max())


def leading_eigenvector(
    h: BandedMatrix,
    iter_tol: float = 1e-10,
    max_iters: int = 20000,
    deflate: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a Hermitian banded matrix by shifted power
    iteration.

    The iteration runs on ``H + (||H||_1 + 1) I``, which is positive
    definite, so it converges to the algebraically largest eigenvalue of
    ``H`` (the largest-magnitude eigenvalue of the shifted operator).  The
    start vector is all-ones plus a small pseudo-random perturbation drawn
    from ``numpy.random.default_rng(0)``, making runs reproducible.

    Parameters
    ----------
    h
        A :class:`BandedMatrix` built with ``hermitian=True``.
    deflate
        Optional unit vector; the iteration is confined to its orthogonal
        complement (used to estimate the second eigenvalue).

    Returns
    -------
    (v, lam)
        Unit eigenvector and eigenvalue with ``||H v - lam v|| <= iter_tol``.

    Raises
    ------
    NonConvergence
        If the residual tolerance is not met within ``max_iters``.
    """
    if not h.hermitian:
        raise ValueError("banded operand must carry the hermitian flag")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    n = h.size
    shift = h.one_norm() + 1.0

    rng = np.random.default_rng(0)
    v = np.ones(n, dtype=complex)
    v += 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def project(w):
        if deflate is not None:
            w = w - deflate * np.vdot(deflate, w)
        return w

    v = project(v)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("degenerate start vector")
    v /= nv

    lam = 0.0
    for _ in range(max_iters):
        hv = h.matvec(v)
        lam = float(np.real(np.vdot(v, hv)))
        if np.linalg.norm(hv - lam * v) <= iter_tol:
            return v, lam
        w = project(hv + shift * v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise NonConvergence("power iteration collapsed to the zero vector")
        v = w / nw
    raise NonConvergence(
        f"power iteration: residual above {iter_tol:.1e} after {max_iters} iterations"
    )
