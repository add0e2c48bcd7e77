"""Inversion of the lifted system and eigenvector angular synchronization.

``solve_band`` returns the minimum-norm least-squares solution in the
lifted system's real coordinates, which describe Hermitian banded matrices
only, so the solution, a plain N x N array, is Hermitian by construction.
The measurement operator is rank-deficient, so that solution is only one
representative of the solution set; ``recover`` refines it by alternating
projections between the solution set and the rank-one
positive-semidefinite matrices, which picks the physically meaningful
representative and markedly improves the recovered magnitudes.  It runs
at most ``MAX_SWEEPS`` sweeps, stopping on the gap plateau: after the
sweep in which the rank-one iterate's distance from the solution set
falls by less than 1%.  Only its first sweep takes a dense eigensolve;
later ones warm-start orthogonal iteration from the last top eigenvectors.
The solve and the refinement read only the held block factors and
``LiftedSystem.forward``.  ``angular_synchronize`` then reads magnitudes
off the diagonal and phases off the leading eigenvector of the
phase-normalized band matrix, and takes the eigen-gap from that matrix's
dense spectrum.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, replace

import numpy as np

from .exceptions import ConfigError, DegenerateSpectrum, DimensionError
from .forward import MeasurementGrid, SpectrogramData, half_integer_lattice
# perfbench wraps min_norm_least_squares here until ROADMAP item 1, step B
from .kernels import BandedMatrix, leading_eigenvector, min_norm_least_squares
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
#: Most refinement sweeps a recovery runs.
MAX_SWEEPS = 30
#: Top eigenvectors carried from sweep to sweep, orthogonal-iteration steps
#: before a dense ``eigh``, and the relative eigen-residual that is enough.
RITZ_VECTORS, RITZ_STEPS, RITZ_TOL = 4, 10, 1e-13
#: Residual tolerance and iteration budget of the synchronization power
#: iteration.
POWER_TOL = 1e-10
MAX_POWER_ITERS = 50000


@dataclass(frozen=True)
class RecoveryConfig:
    """Tolerance of the inversion pipeline: ``rank_tol``, in (0, 1), is the
    relative singular-value cutoff of the least-squares solve and the
    refinement."""

    rank_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rank_tol < 1:
            raise ConfigError(f"rank_tol must lie in (0, 1), got {self.rank_tol!r}")

    @classmethod
    def for_data(cls, data: SpectrogramData) -> "RecoveryConfig":
        """The cutoff for the noise level the data declare,
        min(max(1e-10, 10·level), 0.1): the cap keeps it in (0, 1) at any
        level, and capping the level first keeps 10·level finite."""
        level = 0.0 if data.noise is None else data.noise.level
        return cls(max(1e-10, 10.0 * min(level, 0.01)))


@dataclass
class RecoveryDiagnostics:
    """What a recovery reports; ``spectrum.json`` and ``metrics.json``
    write it whole.  ``residual`` and ``rank``: the least-squares solve's
    relative residual ‖Ax − b‖/‖b‖ and numerical rank; ``clamped_fraction``:
    its negative diagonal mass over its positive trace; ``refine_residual``
    and ``refine_sweeps``: the refined band's relative residual and the
    sweeps run, at most ``MAX_SWEEPS``; ``eigen_gap``: λ1/λ2 of the
    phase-normalized matrix, None when nothing was synchronized.  Zero
    measurements report the defaults."""

    residual: float = 0.0
    eigen_gap: float | None = None
    rank: int = 0
    clamped_fraction: float = 0.0
    refine_residual: float = 0.0
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
        return {"frequencies": [float(w) for w in self.frequencies],
                "f_hat": [[float(v.real), float(v.imag)] for v in self.f_hat],
                "diagnostics": asdict(self.diagnostics)}


_system_cache: dict[tuple, LiftedSystem] = {}
_cache_lock = threading.Lock()


def cached_system(window: Window, grid: MeasurementGrid) -> LiftedSystem:
    """Assembled system, shared per (window, grid), so its factorization
    is computed once and then reused.

    Only the lookup and the assembly run under the cache lock.  The
    factorization is computed lazily under the system's own lock, so
    recoveries that start concurrently on a new system compute it once,
    and recoveries on other systems do not wait for it.
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

    It runs on the factors that :attr:`LiftedSystem.factorization` holds,
    ``x = Σ_b C_bᵀ vh_bᵀ (u_bᵀ R_b b / s_b)`` in real coordinates, whose
    ranks add up to the whole system's, and its residual is the operator's,
    ``‖forward(F) - b‖``.  :meth:`LiftedSystem.unpack` turns the
    solution into a Hermitian N x N array with no projection step, because
    every real coordinate vector describes one.  The operator's null space
    can push diagonal entries slightly negative; that mass is reported as a
    fraction of the positive trace but kept in the solution so the forward
    image still reproduces the data, and it is floored at zero later when
    magnitudes are extracted.  ``cfg`` defaults to
    :meth:`RecoveryConfig.for_data`.
    """
    cfg = cfg or RecoveryConfig.for_data(data)
    if data.values.shape != (system.n_measurements,):
        raise DimensionError("measurement vector does not match the system")
    scaled, lift, rank = _factors(system, cfg.rank_tol)
    f = system.unpack(lift(scaled(data.values)))
    bnorm = float(np.linalg.norm(data.values))
    residual = float(np.linalg.norm(system.forward(f) - data.values))
    diag = f.diagonal().real
    clamped = float(-diag[diag < 0].sum())
    trace = float(diag[diag > 0].sum())
    return f, RecoveryDiagnostics(
        residual / bnorm if bnorm > 0 else 0.0, rank=rank,
        clamped_fraction=clamped / trace if trace > 0 else 0.0)


def _factors(system: LiftedSystem, rank_tol: float) -> tuple:
    """The symmetry blocks' singular triplets above ``rank_tol`` times the
    largest of all blocks, as two maps and their count, the rank: ``r ↦
    [(u_bᵀ R_b r) / s_b]``, one array per block, and ``[g_b] ↦ Σ_b C_bᵀ
    vh_bᵀ g_b``, the sum one ``np.bincount`` over all the blocks' pairs."""
    blocks = system.factorization
    cutoff = rank_tol * max(block.s.max(initial=0.0) for block in blocks)
    ranks = [int(np.count_nonzero(block.s > cutoff)) for block in blocks]
    kept = [(block, block.u[:, :r], block.s[:r], block.vh[:r])
            for block, r in zip(blocks, ranks)]
    pairs = np.concatenate([block.pairs for block in blocks], axis=1).ravel()
    weights = np.concatenate([block.weights for block in blocks], axis=1)

    def scaled(r):
        return [(u.T @ block.rows_of(r)) / s for block, u, s, _ in kept]

    def lift(gs):
        z = np.concatenate([vh.T @ g for g, (*_, vh) in zip(gs, kept)])
        return np.bincount(pairs, (weights * z).ravel(), system.n_unknowns)
    return scaled, lift, sum(ranks)


def _rank_one_part(system: LiftedSystem, x: np.ndarray,
                   basis: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Dense dominant rank-one positive-semidefinite part of the Hermitian
    matrix H whose real coordinates are ``x``, and H's top eigenvectors for
    the next call.  From a ``basis`` V it takes at most ``RITZ_STEPS``
    steps ``q = qr(H V)``, ``(λ, W) = eigh(qᴴ H q)``, ``V = q W``, until
    the top Ritz pair has ‖Hv − λv‖ ≤ ``RITZ_TOL``·|λ|, λ > 0 and
    2λ² > ‖H‖_F²: then any other eigenvalue μ has μ² ≤ ‖H‖_F² − λ² < λ².
    Else, or with no basis, it keeps the top ``RITZ_VECTORS`` eigenvectors
    of a dense ``eigh``."""
    h = system.unpack(x)
    for _ in range(0 if basis is None else RITZ_STEPS):
        q = np.linalg.qr(h @ basis)[0]
        hq = h @ q
        evals, w = np.linalg.eigh(q.conj().T @ hq)
        basis, lam = q @ w, float(evals[-1])
        residual = np.linalg.norm(hq @ w[:, -1] - lam * basis[:, -1])
        if (residual <= RITZ_TOL * abs(lam) and lam > 0
                and 2 * lam ** 2 > np.linalg.norm(h) ** 2):
            break
    else:
        evals, evecs = np.linalg.eigh(h)
        basis, lam = evecs[:, -RITZ_VECTORS:], float(evals[-1])
    vec = basis[:, -1]
    return max(lam, 0.0) * np.outer(vec, np.conj(vec)), basis


def _refine_rank_one(system: LiftedSystem, b: np.ndarray, f: np.ndarray,
                     cfg: RecoveryConfig) -> tuple[np.ndarray, float, int]:
    """Alternate between the least-squares solution set and the banded
    rank-one positive-semidefinite cone, for at most ``MAX_SWEEPS`` sweeps,
    stopping on the gap plateau.

    Each sweep replaces the iterate by its dominant rank-one part y and
    then moves back onto the solution set by subtracting the minimum-norm
    correction, on the singular triplets that the solve keeps, of the
    mismatch ``r = A y - b``: per symmetry block (rows R, columns C),
    ``Cᵀ vtᵀ g`` with ``g = (uᵀ R r) / s``.  ``vt`` has orthonormal rows,
    so the norm of all ``g`` is the distance of y from the solution set;
    refinement stops after the sweep in which it exceeds ``PLATEAU_RATIO``
    times the previous sweep's.  r is taken against A by
    :meth:`LiftedSystem.forward`, not as ``vt C y - (uᵀ R b) / s``, which
    moves the solution set with the factors' backward error.  The
    correction takes r afresh, so no rounding stays in the iterate; the
    distance reads an r carried by the image of each change of y, whose
    rounding scales with that change, so rounding does not trip the stop.
    The final iterate is the band of the rank-one part.  Each rank-one
    part after the first starts from the previous one's eigenvectors,
    which this call alone holds.

    Returns the refined band, its relative residual and the sweep count.
    """
    scaled, lift, _ = _factors(system, cfg.rank_tol)
    x, sweeps, previous, basis = system.pack(f), 0, np.inf, None
    carried, last = -b, 0.0
    for sweeps in range(1, MAX_SWEEPS + 1):
        part, basis = _rank_one_part(system, x, basis)
        carried, last = carried + system.forward(part - last), part
        x = system.pack(part) - lift(scaled(system.forward(part) - b))
        gap = float(np.linalg.norm(np.concatenate(scaled(carried))))
        if gap > PLATEAU_RATIO * previous:
            break
        previous = gap
    refined = system.restrict(_rank_one_part(system, x, basis)[0])
    resid = float(np.linalg.norm(system.forward(refined) - b))
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
    rate of that gap.  The returned diagnostics hold only the eigen-gap;
    ``recover`` reports it with the solve's and the refinement's fields.

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
    return RecoveredSpectrum(f_hat, RecoveryDiagnostics(eigen_gap=gap))


def recover(data: SpectrogramData, window: Window,
            cfg: RecoveryConfig | None = None) -> RecoveredSpectrum:
    """Full inversion: assemble (cached), solve, refine, synchronize.

    Zero measurements short-circuit to the zero spectrum (there is no
    phase information to synchronize).  The measurements are scaled by the
    power of two ``2**(-2k)`` that brings their maximum into [0.5, 2)
    before the solve, and the spectrum by ``2**k`` after it.  Recovery is
    scale-equivariant and powers of two scale exactly, so the solve sees
    the same numbers at every scale and no norm in it overflows.  ``cfg``
    defaults to :meth:`RecoveryConfig.for_data`, the data's noise level.
    """
    cfg, grid = cfg or RecoveryConfig.for_data(data), data.grid
    if not np.any(data.values > 0):
        return RecoveredSpectrum(np.zeros(grid.n_frequencies, dtype=complex),
                                 RecoveryDiagnostics())

    k = int(np.frexp(data.values.max())[1]) // 2
    data = replace(data, values=np.ldexp(data.values, -2 * k))
    system = cached_system(window, grid)
    f, diagnostics = solve_band(system, data, cfg)
    f, diagnostics.refine_residual, diagnostics.refine_sweeps = \
        _refine_rank_one(system, data.values, f, cfg)
    spectrum = angular_synchronize(f)
    diagnostics.eigen_gap = spectrum.diagnostics.eigen_gap
    return RecoveredSpectrum(spectrum.f_hat * 2.0 ** k, diagnostics)
