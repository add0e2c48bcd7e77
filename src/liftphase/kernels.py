"""Numerical primitives: complex quadrature, the thin SVD and minimum-norm
least squares on its truncation, and the dominant eigenpair.

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

__all__ = ["QuadratureSpec", "integrate_complex", "thin_svd",
           "min_norm_least_squares", "leading_eigenvector", "BandedMatrix"]

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
    """Thin SVD ``(u, s, vh)`` of ``a``, s descending, by LAPACK.

    LAPACK runs on the tall orientation of ``a`` (``a`` itself if tall, its
    adjoint if wide), where it QR-factors first and SVD-factors only the
    square R; on the wide orientation it takes longer.  ``u`` and ``vh``
    are C-contiguous, so the row prefixes that a truncation keeps stay
    cheap to multiply.  Raises DecompositionFailure if LAPACK does not
    converge.
    """
    a = np.asarray(a)
    wide = a.shape[0] < a.shape[1]
    try:
        u, s, vh = np.linalg.svd(a.conj().T if wide else a,
                                 full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"SVD did not converge: {exc}") from exc
    if wide:
        # a^H = u s vh, so a = vh^H s u^H
        u, vh = vh.conj().T, u.conj().T
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vh)


def min_norm_least_squares(a: np.ndarray, b: np.ndarray,
                           rank_tol: float = 1e-10, factorization=None
                           ) -> tuple[np.ndarray, float, int]:
    """Minimum-norm solution of ``min ||a x - b||_2`` via truncated SVD, as
    ``(x, residual_norm, numerical_rank)``.

    The singular values above ``rank_tol`` times the largest are kept; s is
    descending, so they are a prefix, and their count is the numerical rank.
    ``factorization`` is an optional precomputed ``(u, s, vh)`` thin SVD of
    ``a``, so repeated solves against one matrix can reuse it.
    """
    a = np.asarray(a)
    b = np.asarray(b).ravel()
    if a.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"shape mismatch: a is {a.shape}, b has {b.shape[0]} rows")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    u, s, vh = factorization if factorization is not None else thin_svd(a)
    rank = int(np.count_nonzero(s > rank_tol * s.max(initial=0.0)))
    x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b) / s[:rank])
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, rank


class BandedMatrix:
    """Exactly Hermitian complex matrix, held dense: the operand of
    :func:`leading_eigenvector`.

    Raises DimensionError unless ``dense`` is square and equal to its
    adjoint entry for entry.
    """

    def __init__(self, dense: np.ndarray):
        dense = np.asarray(dense, dtype=complex)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionError(f"expected a square matrix, got {dense.shape}")
        if not np.array_equal(dense, dense.conj().T):
            raise DimensionError("expected an exactly Hermitian matrix")
        self.size = dense.shape[0]
        self._dense = dense

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.size,):
            raise DimensionError("vector length mismatch")
        return self._dense @ v


#: Residual tolerance and iteration budget of :func:`leading_eigenvector`.
POWER_TOL = 1e-10
MAX_POWER_ITERS = 50000


def leading_eigenvector(h: BandedMatrix, shift: float
                        ) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a Hermitian matrix by shifted power iteration.

    The iteration runs on ``H + shift I`` and converges to the largest
    eigenvalue λ₁ of ``H`` when λ₁ > λ₂ and ``shift`` puts λ₁ + shift
    strictly above |μ + shift| for every other eigenvalue μ; it is fastest
    under ``-(λ₂ + λ_min)/2``.  The start vector is all-ones plus a small
    pseudo-random perturbation drawn from ``numpy.random.default_rng(0)``,
    making runs reproducible.  Returns the unit eigenvector and eigenvalue
    ``(v, lam)`` with ``||H v - lam v|| <= POWER_TOL``, or raises
    NonConvergence after ``MAX_POWER_ITERS`` iterations.
    """
    n = h.size
    rng = np.random.default_rng(0)
    v = np.ones(n, dtype=complex)
    v += 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    v /= np.linalg.norm(v)

    lam = 0.0
    for _ in range(MAX_POWER_ITERS):
        hv = h.matvec(v)
        lam = float(np.real(np.vdot(v, hv)))
        if np.linalg.norm(hv - lam * v) <= POWER_TOL:
            return v, lam
        w = hv + shift * v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise NonConvergence("power iteration collapsed to the zero vector")
        v = w / nw
    raise NonConvergence(f"power iteration: residual above {POWER_TOL:.1e} "
                         f"after {MAX_POWER_ITERS} iterations")
