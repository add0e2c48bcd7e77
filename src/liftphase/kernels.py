"""Numerical primitives: complex quadrature, the thin SVD and minimum-norm
least squares on its truncation, and dominant eigenpairs.

Everything here is a pure function of its inputs; the only module state is
a cache of Gauss-Legendre rules by node count, so all operations are safe to
call concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exceptions import DecompositionFailure, DimensionError, NonConvergence

__all__ = [
    "QuadratureSpec",
    "integrate_complex",
    "thin_svd",
    "truncate",
    "min_norm_least_squares",
    "leading_eigenvector",
    "BandedMatrix",
]

#: ``integrate_complex`` applies rules of 8, 16, ..., MAX_NODES nodes; the
#: largest resolves |freq| * (upper - lower) up to about 280.
MAX_NODES = 1024
#: Two rules cannot agree more closely than this times sum |w_i f(t_i)|.
_ROUNDOFF = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration interval and absolute tolerance."""

    lower: float
    upper: float
    tolerance: float = 1e-10

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@functools.cache
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate_complex(integrand, spec: QuadratureSpec):
    """Gauss-Legendre quadrature of a complex integrand, certified per column.

    ``integrand`` is called once per rule on the ``n`` nodes and returns
    shape ``(n,)``, ``(n, F)`` for F integrals sharing the nodes, or a
    scalar (broadcast).  A column takes the larger rule's value once two
    successive rules agree to ``spec.tolerance``, and is summed in a fixed
    order, so it does not depend on the other columns.  Returns ``(value,
    error)``: a complex (an array of F for 2-D integrands) and the largest
    certifying difference, floored at the roundoff.  Raises NonConvergence
    past ``MAX_NODES`` nodes (a jump inside the interval, too fast an
    oscillation) or for a tolerance below the roundoff.
    """
    half = 0.5 * (spec.upper - spec.lower)
    mid = 0.5 * (spec.upper + spec.lower)
    previous = None
    n = 8
    while n <= MAX_NODES:
        nodes, weights = _rule(n)
        raw = np.asarray(integrand(mid + half * nodes), dtype=complex)
        width = raw.shape[1] if raw.ndim == 2 else 1
        # one contiguous row per column: every row sums in the same order
        terms = (np.ascontiguousarray(np.broadcast_to(raw.T, (width, n)))
                 * (half * weights))
        sums = terms.sum(axis=1)
        floor = _ROUNDOFF * np.abs(terms).sum(axis=1)
        if previous is None:
            value, error = np.empty(width, dtype=complex), np.zeros(width)
            pending = np.ones(width, dtype=bool)
        else:
            diff = np.maximum(np.abs(sums - previous), floor)
            accept = pending & (diff <= spec.tolerance)
            value[accept], error[accept] = sums[accept], diff[accept]
            pending &= ~accept
            if not pending.any():
                return (value if raw.ndim == 2 else complex(value[0]),
                        float(error.max(initial=0.0)))
        if (pending & (floor > spec.tolerance)).any():
            raise NonConvergence(
                f"quadrature tolerance {spec.tolerance:.3e} lies below the "
                f"roundoff {float(floor[pending].max()):.3e} on "
                f"[{spec.lower}, {spec.upper}]")
        previous = sums
        n *= 2
    raise NonConvergence(
        f"Gauss-Legendre rules up to {MAX_NODES} nodes disagree by "
        f"{float(diff[pending].max()):.3e}, above tolerance "
        f"{spec.tolerance:.3e} on [{spec.lower}, {spec.upper}]")


def thin_svd(a: np.ndarray):
    """Thin SVD ``(u, s, vh)`` of ``a``, s descending, by Chan's R-SVD.

    The long orientation of ``a`` (``a`` itself if tall, its adjoint if
    wide) is QR-factored first and only the square R is SVD-factored, which
    is faster than LAPACK's direct SVD of a long matrix and as backward
    stable.  ``u`` and ``vh`` are C-contiguous, so the row prefixes that
    :func:`truncate` keeps stay cheap to multiply.  Raises
    DecompositionFailure if LAPACK does not converge.
    """
    a = np.asarray(a)
    wide = a.shape[0] < a.shape[1]
    try:
        q, r = np.linalg.qr(a.conj().T if wide else a)
        w, s, zh = np.linalg.svd(r)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"SVD did not converge: {exc}") from exc
    if wide:
        # a^H = q w s zh, so a = zh^H s (q w)^H
        return np.ascontiguousarray(zh.conj().T), s, w.conj().T @ q.conj().T
    return q @ w, s, zh


def truncate(factorization, rank_tol: float):
    """The thin-SVD factors ``(u, s, vh)`` kept at the relative cutoff
    ``rank_tol`` (of the largest singular value); ``s.size`` is the rank.

    s is descending, so the kept triplets are a prefix and the results are
    views of the factors, not copies.
    """
    u, s, vh = factorization
    rank = int(np.count_nonzero(s > rank_tol * s.max(initial=0.0)))
    return u[:, :rank], s[:rank], vh[:rank]


def min_norm_least_squares(
    a: np.ndarray,
    b: np.ndarray,
    rank_tol: float = 1e-10,
    factorization=None,
) -> tuple[np.ndarray, float, int]:
    """Minimum-norm solution of ``min ||a x - b||_2`` via truncated SVD.

    Singular values are truncated by :func:`truncate`; the count of
    retained values is the numerical rank.

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
    b = np.asarray(b).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"shape mismatch: a is {a.shape}, b has {b.shape[0]} rows")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    u, s, vh = truncate(factorization if factorization is not None
                        else thin_svd(a), rank_tol)
    x = vh.conj().T @ ((u.conj().T @ b) / s)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, s.size


class BandedMatrix:
    """Square complex matrix supported on a band, stored as one dense array:
    the operand of :func:`leading_eigenvector`.

    Entries with ``|i - j| > half_width`` are zero.  A ``hermitian=True``
    matrix is built from its upper triangle and mirrored, so Hermitian
    symmetry holds structurally rather than to a tolerance.
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

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.size,):
            raise DimensionError("vector length mismatch")
        return self._dense @ v

    def one_norm(self) -> float:
        """Maximum absolute column sum."""
        return float(np.abs(self._dense).sum(axis=0).max())


def leading_eigenvector(
    h: BandedMatrix,
    iter_tol: float = 1e-10,
    max_iters: int = 20000,
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
    v /= np.linalg.norm(v)

    lam = 0.0
    for _ in range(max_iters):
        hv = h.matvec(v)
        lam = float(np.real(np.vdot(v, hv)))
        if np.linalg.norm(hv - lam * v) <= iter_tol:
            return v, lam
        w = hv + shift * v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise NonConvergence("power iteration collapsed to the zero vector")
        v = w / nw
    raise NonConvergence(
        f"power iteration: residual above {iter_tol:.1e} after {max_iters} iterations"
    )
