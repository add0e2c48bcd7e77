"""Assembly of the truncated lifted linear system.

The quadratic measurements become linear in the rank-one outer-product
matrix of the unknown Fourier samples.  Each shift contributes a banded
Toeplitz block built from window-transform samples on the half-integer
lattice; stacking the blocks gives the map whose row for (shift l, frequency
w) reads a window of the outer-product matrix.  Because each Toeplitz row
reaches 2*delta indices either side of its center, the quadratic form
touches products up to 4*delta apart, so the banded unknown carries band
half-width 4*delta.

On Hermitian matrices that map is real-linear and its values are real, so
the unknown, a plain Hermitian array, gets real isometric coordinates: the
diagonal, then sqrt(2) times the real and the imaginary parts of the
strict upper band.  The measurement matrix over those coordinates is the
one lifted operator, materialized as a real array.  Its thin SVD is taken
in two shift-parity blocks when the shifts and the window allow it (see
:class:`LiftedSystem`).
"""

from __future__ import annotations

import threading

import numpy as np

from .exceptions import DimensionError
from .forward import MeasurementGrid, check_shift
from .kernels import thin_svd
from .signals import Window

__all__ = [
    "shift_vector",
    "toeplitz_block",
    "LiftedSystem",
    "assemble_system",
]

_SQRT2 = np.sqrt(2.0)
#: Cross-block entries of the parity-paired rows at most this times
#: max|matrix| lie inside the SVD's own backward error.
_SPLIT_FLOOR = 8 * np.finfo(float).eps


def _coordinates(diagonal: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Real coordinates from the real diagonal and the complex strict upper
    band (last axis), in the layout of :meth:`LiftedSystem.pack`."""
    return np.concatenate([diagonal, _SQRT2 * upper.real, _SQRT2 * upper.imag],
                          axis=-1)


def shift_vectors(window: Window, shifts, delta: int) -> list[np.ndarray]:
    """Lattice samples of the window transform, phase-twisted by each shift.

    Entry ``t + 2*delta`` of each read-only result holds
    ``exp(i pi l t) * ghat(-t/2)`` for the twice-index ``t`` in
    ``[-2*delta, 2*delta]`` (half-integer lattice points ``t/2``).  Both the
    phase and the argument match the series of
    :func:`~liftphase.forward.spectrogram_series`, whose term for lattice
    point ``m/2 = w + t/2`` carries ``ghat(w - m/2)``, so row (l, w) of the
    lifted operator models the window centered at ``+l``.  The window is
    transformed once, whatever the number of shifts.
    """
    t = np.arange(-2 * delta, 2 * delta + 1)
    ghat = window.fourier(-t / 2.0)
    out = []
    for l in shifts:
        check_shift(window, l)
        values = np.exp(1j * np.pi * l * t) * ghat
        values.setflags(write=False)
        out.append(values)
    return out


def shift_vector(window: Window, shift: float, delta: int) -> np.ndarray:
    """The shift vector of one shift; see :func:`shift_vectors`."""
    return shift_vectors(window, [shift], delta)[0]


def toeplitz_block(values: np.ndarray, n_frequencies: int) -> np.ndarray:
    """Dense banded Toeplitz block of a shift vector: entry (i, j) is
    ``values[j - i + 2*delta]`` when ``|j - i| <= 2*delta``, else zero."""
    reach = (len(values) - 1) // 2
    if n_frequencies < len(values):
        raise DimensionError(
            f"need at least {len(values)} frequencies for delta={reach // 2}"
        )
    block = np.zeros((n_frequencies, n_frequencies), dtype=complex)
    for t in range(-reach, reach + 1):
        idx = np.arange(n_frequencies - abs(t))
        if t >= 0:
            block[idx, idx + t] = values[t + reach]
        else:
            block[idx - t, idx] = values[t + reach]
    return block


def require_band(n_frequencies: int, delta: int) -> None:
    """Raise DimensionError unless a row's 4*delta + 1 frequencies fit."""
    if n_frequencies < 4 * delta + 1:
        raise DimensionError(
            f"{n_frequencies} frequencies are too few for delta={delta}: "
            f"the lifted system needs at least {4 * delta + 1}")


class LiftedSystem:
    """The lifted operator as a real matrix over the unknown's coordinates.

    The state kept from assembly is the K x (4*delta + 1) array of
    shift-vector values (O(K * delta) complex numbers).  The unknown is an
    N x N Hermitian array F, zero outside the band, in real coordinates
    ``x = [diag F; sqrt(2) Re F[upper]; sqrt(2) Im F[upper]]``, where
    ``upper`` holds the entries ``0 < j - i <= 4*delta`` in row-major
    order.  The coordinates are an isometry (``x . y`` is the Frobenius
    inner product of the two matrices) and differ from the complex entry
    coordinates by a unitary change of basis, so the real measurement
    matrix has the singular values of the complex one.  It is built lazily
    on first access, and its thin SVD is cached for repeated solves.  Both
    are computed under a per-system lock, so concurrent first accesses
    compute each once.

    The thin SVD is taken in two shift-parity blocks when the operator
    splits.  Row (k, r) is ``pack(conj(v) vᵀ / 4)`` with
    ``v_t = exp(i pi l_k t) ghat(-t/2)``, so entry (a, b) of
    ``conj(v) vᵀ`` is ``exp(i pi l d) conj(ghat_a) ghat_b`` with
    ``d = b - a``.  When those window products are real, the sum of the
    rows of +l and -l (over sqrt 2) holds ``cos(pi l d)`` and touches only
    the diagonal and Re-band coordinates, and their difference holds
    ``sin(pi l d)`` and touches only the Im-band ones; the row of l = 0
    lies in the first group.  That orthogonal change of rows T turns the
    matrix into ``blockdiag(A_even, A_odd)``, and the thin SVDs of the two
    blocks give the whole matrix's: ``u = Tᵀ blockdiag(u_even, u_odd)``.
    Each block costs about a quarter of the whole one's flops (m² n each).
    The split is taken when the shifts equal their negated reverse and
    every cross-block entry of the paired rows is at most
    ``_SPLIT_FLOOR * max|matrix|``, inside the SVD's own backward error;
    the factors it gives agree with the one-block SVD to roundoff.  A
    window with a complex transform of varying phase (a real window that
    is not even) or an asymmetric shift set keeps one block.
    """

    def __init__(self, window: Window, grid: MeasurementGrid):
        n = grid.n_frequencies
        require_band(n, grid.delta)
        self.grid = grid
        self.band = 4 * grid.delta
        self.shift_vectors = shift_vectors(window, grid.shifts, grid.delta)
        offsets = np.subtract.outer(np.arange(n), np.arange(n))
        self.upper = np.nonzero((offsets < 0) & (offsets >= -self.band))
        self._matrix: np.ndarray | None = None
        self._factorization = None
        # reentrant: the factorization reads the matrix under it
        self._lock = threading.RLock()

    @property
    def n_measurements(self) -> int:
        return self.grid.n_shifts * self.grid.n_frequencies

    @property
    def n_unknowns(self) -> int:
        return self.grid.n_frequencies + 2 * self.upper[0].size

    def pack(self, dense: np.ndarray) -> np.ndarray:
        """Real coordinates of the band of a Hermitian N x N array; only its
        diagonal and upper band are read."""
        n = self.grid.n_frequencies
        if dense.shape != (n, n):
            raise DimensionError(f"expected a {n} x {n} matrix, got {dense.shape}")
        return _coordinates(dense.diagonal().real, dense[self.upper])

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack`: the Hermitian array, zero outside the
        band, whose real coordinates are ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_unknowns,):
            raise DimensionError("coordinate vector length mismatch")
        n, p = self.grid.n_frequencies, self.upper[0].size
        return self._mirror(x[:n], (x[n:n + p] + 1j * x[n + p:]) / _SQRT2)

    def restrict(self, dense: np.ndarray) -> np.ndarray:
        """``unpack(pack(dense))`` without the rounding of the sqrt(2)
        scaling: the diagonal's real part and the upper band, mirrored."""
        return self._mirror(dense.diagonal().real, dense[self.upper])

    def _mirror(self, diagonal: np.ndarray, upper: np.ndarray) -> np.ndarray:
        dense = np.diag(diagonal).astype(complex)
        dense[self.upper] = upper
        dense[self.upper[::-1]] = np.conj(upper)
        return dense

    @property
    def matrix(self) -> np.ndarray:
        """Real measurement matrix (n_measurements x n_unknowns).

        Measurement (k, r) is ``|v . fhat|^2 / 4 = sum_ij v_i conj(v_j)
        F_ij / 4`` for the shift vector v of shift k positioned at frequency
        r: the Frobenius inner product of the Hermitian matrix
        ``conj(v) vᵀ / 4`` with F.  Its row is therefore
        ``pack(conj(v) vᵀ / 4)``.
        """
        with self._lock:
            if self._matrix is None:
                n = self.grid.n_frequencies
                m = np.empty((self.n_measurements, self.n_unknowns))
                for k, vals in enumerate(self.shift_vectors):
                    # row r of the block is the shift vector positioned at r
                    g = toeplitz_block(vals, n)
                    m[k * n:(k + 1) * n] = _coordinates(
                        0.25 * np.abs(g) ** 2,
                        0.25 * np.conj(g[:, self.upper[0]])
                        * g[:, self.upper[1]])
                self._matrix = m
            return self._matrix

    @property
    def factorization(self):
        """Cached thin SVD ``(u, s, vh)`` of the real matrix, s descending,
        ``u`` and ``vh`` C-contiguous; see the class docstring for how the
        shift-parity blocks are factored apart."""
        with self._lock:
            if self._factorization is None:
                self._factorization = self._factor()
            return self._factorization

    def parity_blocks(self) -> list[tuple[list, slice]]:
        """The diagonal blocks of ``T @ matrix`` for an orthogonal row
        transform T, as a list of ``(recipe, columns)``.

        Row slab i of a block (``n_frequencies`` rows) is
        ``sum(w * slab[k] for k, w in recipe[i])`` over ``columns``, where
        ``slab[k]`` holds the matrix rows of shift k; outside ``columns``
        it is zero to within ``_SPLIT_FLOOR * max|matrix|``.  Two blocks,
        the sums and the differences of the rows of +l and -l, when the
        operator splits (see the class docstring); otherwise the matrix
        itself as one block.
        """
        k_shifts, n = self.grid.n_shifts, self.grid.n_frequencies
        rows, cols = self.n_measurements, self.n_unknowns
        whole = [([[(k, 1.0)] for k in range(k_shifts)], slice(None))]
        shifts = self.grid.shifts
        if k_shifts < 2 or shifts != tuple(-l for l in reversed(shifts)):
            return whole
        half, c = k_shifts // 2, 1.0 / _SQRT2
        pairs = [(k, k_shifts - 1 - k) for k in range(half)]
        even = ([[(k, c), (j, c)] for k, j in pairs]
                + [[(half, 1.0)]] * (k_shifts % 2))
        odd = [[(k, c), (j, -c)] for k, j in pairs]
        cut = n + self.upper[0].size  # diagonal and Re-band | Im-band
        low, high = slice(0, cut), slice(cut, None)
        # a wide block beside a tall one would drop zero singular triplets
        if min(len(even) * n, cut) + min(len(odd) * n, cols - cut) \
                != min(rows, cols):
            return whole
        a = self.matrix
        floor = _SPLIT_FLOOR * max(a.max(initial=0.0), -a.min(initial=0.0))
        slabs = a.reshape(k_shifts, n, cols)
        for recipe, other in ((even, high), (odd, low)):
            for slab in recipe:
                cross = sum(w * slabs[k, :, other] for k, w in slab)
                if np.abs(cross).max() > floor:
                    return whole
        return [(even, low), (odd, high)]

    def _factor(self):
        """Thin SVD of the matrix from the thin SVDs of its parity blocks:
        ``u = Tᵀ blockdiag(u_b)``, each ``vh_b`` in its block's columns, and
        the triplets merged by descending singular value."""
        a = self.matrix
        k_shifts, n = self.grid.n_shifts, self.grid.n_frequencies
        slabs = a.reshape(k_shifts, n, a.shape[1])
        blocks = self.parity_blocks()
        factors = [thin_svd(np.vstack([
            sum(w * slabs[k, :, columns] for k, w in slab) for slab in recipe]))
            for recipe, columns in blocks]
        s = np.concatenate([sb for _, sb, _ in factors])
        order = np.argsort(-s, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        u = np.zeros((a.shape[0], s.size))
        vh = np.zeros((s.size, a.shape[1]))
        u_slabs = u.reshape(k_shifts, n, s.size)
        start = 0
        for (recipe, columns), (ub, sb, vhb) in zip(blocks, factors):
            where = position[start:start + sb.size]
            start += sb.size
            vh[where, columns] = vhb
            for i, slab in enumerate(recipe):
                for k, w in slab:
                    u_slabs[k][:, where] = w * ub[i * n:(i + 1) * n]
        return u, s[order], vh


def assemble_system(window: Window, grid: MeasurementGrid) -> LiftedSystem:
    """Build the lifted system for a window and measurement grid.

    The banded unknown has half-width ``4 * delta``, which covers every
    product the quadratic form can reach, so the lifted operator agrees
    with the truncated series exactly.
    """
    return LiftedSystem(window, grid)
