"""Inversion of the lifted system and eigenvector angular synchronization.

``solve_band`` returns the minimum-norm least-squares solution in the
lifted system's real coordinates, which describe Hermitian banded matrices
only, so the solution, a plain N x N array, is Hermitian by construction.
The measurement operator is rank-deficient, so that solution is only one
representative of the solution set; ``recover`` optionally refines it by
alternating projections between the solution set and the rank-one
positive-semidefinite matrices, which picks the physically meaningful
representative and markedly improves the recovered magnitudes.  It runs
at most ``refine_iterations`` sweeps, stopping on the gap plateau: after
the sweep in which the rank-one iterate's distance from the solution set
falls by less than 1%.
``angular_synchronize`` then reads magnitudes off the diagonal and phases
off the leading eigenvector of the phase-normalized band matrix, and takes
the eigen-gap from that matrix's dense spectrum.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, DegenerateSpectrum, DimensionError
from .forward import MeasurementGrid, SpectrogramData, half_integer_lattice
from .kernels import (BandedMatrix, leading_eigenvector, min_norm_least_squares,
                      truncate)
from .lifting import LiftedSystem, assemble_system
from .signals import Window

__all__ = [
    "RecoveryConfig",
    "RecoveryDiagnostics",
    "RecoveredSpectrum",
    "solve_band",
    "angular_synchronize",
    "recover",
    "cached_system",
]


#: Relative magnitude below which a band entry carries no phase information
#: into synchronization.
MAGNITUDE_FLOOR = 1e-6
#: Refinement stops after a sweep that leaves the rank-one iterate farther
#: from the solution set than this fraction of the previous sweep's distance.
PLATEAU_RATIO = 0.99
#: Residual tolerance and iteration budget of the synchronization power
#: iteration.
POWER_TOL = 1e-10
MAX_POWER_ITERS = 50000


@dataclass(frozen=True)
class RecoveryConfig:
    """Tolerances for the inversion pipeline.

    ``rank_tol`` is the relative singular-value cutoff of the least-squares
    solve.  ``refine_iterations`` caps the alternating-projection sweeps
    toward the rank-one positive-semidefinite representative of the
    solution set: at most that many sweeps, stopping on the gap plateau
    (see ``PLATEAU_RATIO``).  Zero disables refinement and keeps the plain
    minimum-norm solution.
    """

    rank_tol: float = 1e-10
    refine_iterations: int = 30

    def __post_init__(self):
        if self.rank_tol <= 0:
            raise ConfigError("rank_tol must be positive")
        if self.refine_iterations < 0:
            raise ConfigError("refine_iterations must be >= 0")


@dataclass
class RecoveryDiagnostics:
    residual: float
    eigen_gap: float | None
    rank: int
    clamped_fraction: float = 0.0
    refine_residual: float | None = None
    refine_sweeps: int = 0


@dataclass(eq=False)
class RecoveredSpectrum:
    """Recovered Fourier samples (up to one global unimodular factor)."""

    f_hat: np.ndarray
    diagnostics: RecoveryDiagnostics

    @property
    def frequencies(self) -> np.ndarray:
        """The half-integer lattice that the samples' count fixes."""
        return half_integer_lattice(self.f_hat.size)

    def to_dict(self) -> dict:
        return {
            "frequencies": [float(w) for w in self.frequencies],
            "f_hat": [[float(v.real), float(v.imag)] for v in self.f_hat],
            "diagnostics": {
                "residual": float(self.diagnostics.residual),
                "eigen_gap": (None if self.diagnostics.eigen_gap is None
                              else float(self.diagnostics.eigen_gap)),
                "rank": int(self.diagnostics.rank),
            },
        }


_system_cache: dict[tuple, LiftedSystem] = {}
_cache_lock = threading.Lock()


def cached_system(window: Window, grid: MeasurementGrid) -> LiftedSystem:
    """Assembled system, shared per (window, grid), so its matrix and
    factorization are computed once and then reused.

    Only the lookup and the assembly run under the cache lock.  The matrix
    and its factorization are computed lazily under the system's own lock,
    so recoveries that start concurrently on a new system compute them
    once, and recoveries on other systems do not wait for them.
    """
    key = (window.key, grid)
    with _cache_lock:
        system = _system_cache.get(key)
        if system is None:
            system = assemble_system(window, grid)
            _system_cache[key] = system
    return system


def solve_band(system: LiftedSystem, data: SpectrogramData,
               cfg: RecoveryConfig | None = None
               ) -> tuple[np.ndarray, RecoveryDiagnostics]:
    """Minimum-norm least-squares solve for the banded unknown.

    The solve runs in the system's real coordinates, on the real matrix and
    its real thin SVD; :meth:`LiftedSystem.unpack` turns the solution into
    a Hermitian N x N array with no projection step, because every real
    coordinate vector describes one.  The operator's null space can push
    diagonal entries slightly negative; that mass is reported as a
    fraction of the positive trace but kept in the solution so the forward
    image still reproduces the data, and it is floored at zero later when
    magnitudes are extracted.
    """
    cfg = cfg or RecoveryConfig()
    if data.values.shape != (system.n_measurements,):
        raise DimensionError("measurement vector does not match the system")
    # factored before the matrix is built, so the factorization's peak
    # does not also hold the matrix
    factorization = system.factorization
    x, residual, rank = min_norm_least_squares(
        system.matrix, data.values, rank_tol=cfg.rank_tol,
        factorization=factorization)
    bnorm = float(np.linalg.norm(data.values))
    rel_residual = residual / bnorm if bnorm > 0 else 0.0
    f = system.unpack(x)
    diag = f.diagonal().real
    clamped = float(-diag[diag < 0].sum())
    trace = float(diag[diag > 0].sum())
    diagnostics = RecoveryDiagnostics(
        residual=rel_residual, eigen_gap=None, rank=rank,
        clamped_fraction=clamped / trace if trace > 0 else 0.0)
    return f, diagnostics


def _rank_one_part(system: LiftedSystem, x: np.ndarray) -> np.ndarray:
    """Dense dominant rank-one positive-semidefinite part of the Hermitian
    matrix whose real coordinates are ``x``."""
    evals, evecs = np.linalg.eigh(system.unpack(x))
    vec = evecs[:, -1]
    return max(float(evals[-1]), 0.0) * np.outer(vec, np.conj(vec))


def _refine_rank_one(system: LiftedSystem, b: np.ndarray, f: np.ndarray,
                     cfg: RecoveryConfig) -> tuple[np.ndarray, float, int]:
    """Alternate between the least-squares solution set and the banded
    rank-one positive-semidefinite cone, for at most
    ``cfg.refine_iterations`` sweeps, stopping on the gap plateau.

    Each sweep replaces the iterate by its dominant rank-one part y and
    then moves back onto the solution set by subtracting the minimum-norm
    correction ``vtᵀ g``, ``g = (uᵀ (A y - b)) / s``, of the measurement
    mismatch, on the singular triplets that the solve keeps.  ``vt`` has
    orthonormal rows, so ``|g|`` is the distance of y from the solution
    set; refinement stops after the sweep in which it exceeds
    ``PLATEAU_RATIO`` times the previous sweep's.  The mismatch is taken
    against the matrix, not as ``vt y - (uᵀ b) / s``: that form puts the
    solution set where the factors' backward error, amplified by s_1/s_min,
    moves it with the BLAS thread count.  The final iterate is the band of
    the rank-one part, whose diagonal and phases feed synchronization.  All
    of it but the N x N eigensolves is real arithmetic in the system's real
    coordinates.

    Returns the refined band, its relative residual and the sweep count.
    """
    u, s, vt = truncate(system.factorization, cfg.rank_tol)
    a = system.matrix

    x, sweeps, previous = system.pack(f), 0, np.inf
    for sweeps in range(1, cfg.refine_iterations + 1):
        y = system.pack(_rank_one_part(system, x))
        g = (u.T @ (a @ y - b)) / s
        x = y - vt.T @ g
        gap = float(np.linalg.norm(g))
        if gap > PLATEAU_RATIO * previous:
            break
        previous = gap
    refined = system.restrict(_rank_one_part(system, x))
    resid = float(np.linalg.norm(a @ system.pack(refined) - b))
    bnorm = float(np.linalg.norm(b))
    return refined, (resid / bnorm if bnorm > 0 else 0.0), sweeps


def angular_synchronize(f: np.ndarray) -> RecoveredSpectrum:
    """Extract the spectrum from a Hermitian outer-product estimate, an
    N x N array that is zero outside the band it was estimated on.

    Magnitudes are the square roots of the diagonal.  Phases are the
    entrywise arguments of the leading eigenvector of the phase-normalized
    matrix: entries at least ``MAGNITUDE_FLOOR`` times the largest
    magnitude are replaced by their unit-modulus phases, everything else by
    zero, and the diagonal by ones.  The output is defined up to one global
    unimodular factor.  The eigen-gap is the ratio of the two largest
    eigenvalues of the phase-normalized matrix (``numpy.linalg.eigvalsh``);
    the power iteration supplies only the vector, which converges at the
    rate of that gap.  The residual and rank fields of the returned
    diagnostics belong to the solve stage and stay zero when this is called
    standalone; ``recover`` fills them in.

    Raises
    ------
    DimensionError
        If ``f`` is not square or not exactly Hermitian.
    DegenerateSpectrum
        If the two leading eigenvalues are too close (ratio below
        1 + 1e-6), e.g. when no off-diagonal phase information survives
        the floor.
    """
    f = np.asarray(f)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {f.shape}")
    if not np.array_equal(f, f.conj().T):
        raise DimensionError("synchronization needs an exactly Hermitian matrix")
    n = f.shape[0]
    diag = np.maximum(f.diagonal().real, 0.0)

    mags = np.abs(f)
    phases = np.where(mags >= MAGNITUDE_FLOOR * mags.max(),
                      f / np.where(mags > 0, mags, 1.0), 0.0)
    np.fill_diagonal(phases, 1.0)

    vec, _ = leading_eigenvector(
        BandedMatrix.from_dense(phases, n - 1, hermitian=True),
        iter_tol=POWER_TOL, max_iters=MAX_POWER_ITERS)
    lam2, lam1 = np.linalg.eigvalsh(phases)[-2:]
    gap = float("inf") if lam2 <= 0 else float(lam1 / lam2)
    if gap < 1.0 + 1e-6:
        raise DegenerateSpectrum(
            f"eigen-gap ratio {gap:.9f} leaves synchronization undetermined")

    mags_v = np.abs(vec)
    phases = np.where(mags_v > 0, vec / np.where(mags_v > 0, mags_v, 1.0), 1.0)
    f_hat = np.sqrt(diag) * phases
    diagnostics = RecoveryDiagnostics(residual=0.0, eigen_gap=gap, rank=0)
    return RecoveredSpectrum(f_hat, diagnostics)


def recover(data: SpectrogramData, window: Window,
            cfg: RecoveryConfig | None = None) -> RecoveredSpectrum:
    """Full inversion: assemble (cached), solve, refine, synchronize.

    Zero measurements short-circuit to the zero spectrum (there is no
    phase information to synchronize).  The measurements are scaled by the
    power of two ``2**(-2k)`` that brings their maximum into [0.5, 2)
    before the solve, and the spectrum by ``2**k`` after it.  Recovery is
    scale-equivariant and powers of two scale exactly, so the solve sees
    the same numbers at every scale and no norm in it overflows.
    """
    cfg, grid = cfg or RecoveryConfig(), data.grid
    if not np.any(data.values > 0):
        diagnostics = RecoveryDiagnostics(residual=0.0, eigen_gap=None, rank=0)
        return RecoveredSpectrum(np.zeros(grid.n_frequencies, dtype=complex),
                                 diagnostics)

    k = int(np.frexp(data.values.max())[1]) // 2
    data = replace(data, values=np.ldexp(data.values, -2 * k))
    system = cached_system(window, grid)
    f, diagnostics = solve_band(system, data, cfg)
    if cfg.refine_iterations > 0:
        f, diagnostics.refine_residual, diagnostics.refine_sweeps = \
            _refine_rank_one(system, data.values, f, cfg)
    spectrum = angular_synchronize(f)
    spectrum.f_hat = spectrum.f_hat * 2.0 ** k
    diagnostics.eigen_gap = spectrum.diagnostics.eigen_gap
    spectrum.diagnostics = diagnostics
    return spectrum
