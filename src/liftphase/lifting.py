"""Assembly of the truncated lifted linear system.

The quadratic measurements become linear in the rank-one outer-product
matrix F of the unknown Fourier samples.  Measurement (k, r), at shift l_k
and frequency index r, is a quadratic form in the 4*delta + 1 samples
around r, so the banded unknown carries band half-width 4*delta.  Its
weight on the entry F[i, i + d] of band diagonal d, at t = i - r, is

    exp(i pi l_k d) * c_d[t],    c_d[t] = conj(ghat(-t/2)) ghat(-(t + d)/2) / 4,

a shift phase times a window kernel that does not depend on the shift:
A = (Phi ⊗ I_N) blockdiag_d(H_d), where the shift-independent map H_d
slides the kernel c_d along band diagonal d of F.  :class:`LiftedSystem`
applies A, a real matrix over real coordinates of the Hermitian band, from
the phases and the kernels, and writes rows of A from them: the whole
matrix, and the blocks that it factors and then drops.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import ConfigError, DimensionError
from .forward import MeasurementGrid, check_shift
from .kernels import thin_svd
from .signals import Window

__all__ = ["LiftedSystem", "SymmetryBlock", "assemble_system"]

_SQRT2 = np.sqrt(2.0)
#: Imaginary parts of the window kernels at most this times their largest
#: modulus lie inside the SVD's own backward error.
_SPLIT_FLOOR = 8 * np.finfo(float).eps
#: Largest dense lifted matrix, in bytes, that a LiftedSystem may build.
MATRIX_BUDGET = 2 * 2 ** 30


def check_matrix_budget(n: int, n_shifts: int, delta: int) -> None:
    """Raise ConfigError if a grid's dense lifted matrix, K*N rows by
    N + 2p float64 columns with p = sum_{d=1}^{4 delta} max(N - d, 0)
    upper-band entries, would exceed ``MATRIX_BUDGET``.  The size is
    computed from the integers alone, before anything is allocated."""
    band = min(4 * delta, n - 1)
    upper = band * n - band * (band + 1) // 2 if band > 0 else 0
    if 8 * n_shifts * n * (n + 2 * upper) > MATRIX_BUDGET:
        raise ConfigError(
            f"the lifted matrix of a {n}-frequency, {n_shifts}-shift grid at "
            f"delta={delta} would take more than the {MATRIX_BUDGET} bytes "
            f"allowed")


def _pairs(indices: np.ndarray, partner: np.ndarray, sign: float):
    """The orthogonal map onto the sums (``sign`` 1) or the differences
    (``sign`` -1), over sqrt(2), of ``indices`` and their images under the
    involution ``partner``, as index and weight rows (2 x pairs each); an
    index that is its own image, which only sums keep, keeps its entry."""
    first = indices[indices <= partner[indices] if sign > 0
                    else indices < partner[indices]]
    weight = np.where(first == partner[first], 0.5, 1.0 / _SQRT2)
    return np.stack([first, partner[first]]), np.stack([weight, sign * weight])


def _dense(partner: np.ndarray, sign: float) -> np.ndarray:
    """The map of :func:`_pairs` on all of ``partner``'s indices, as a
    matrix."""
    return _combine(np.eye(len(partner)),
                    *_pairs(np.arange(len(partner)), partner, sign)).T


def _combine(a: np.ndarray, pairs: np.ndarray, weights: np.ndarray):
    """The map of :func:`_pairs` applied along the last axis of ``a``."""
    return weights[0] * a[..., pairs[0]] + weights[1] * a[..., pairs[1]]


@dataclass(frozen=True)
class SymmetryBlock:
    """The thin SVD ``(u, s, vh)`` of a diagonal block ``M = R A Cᵀ`` of the
    lifted matrix A, held without M: R is ``shifts ⊗ frequencies``, and C
    the :func:`_pairs` map ``(pairs, weights)`` of the coordinates."""

    shifts: np.ndarray
    frequencies: np.ndarray
    pairs: np.ndarray
    weights: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(part.nbytes for part in vars(self).values())

    def rows_of(self, b: np.ndarray) -> np.ndarray:
        """``R b`` of each measurement vector in the stack ``b``."""
        by_shift = b.reshape(len(b), self.shifts.shape[1], -1)
        return (self.shifts @ by_shift @ self.frequencies.T).reshape(len(b), -1)


class LiftedSystem:
    """The lifted operator as a real matrix over the unknown's coordinates.

    The state kept from assembly is the K x (4*delta + 1) array ``phases``
    of ``exp(i pi l_k d)`` and the (4*delta + 1) x (4*delta + 1) array
    ``kernels`` of ``c_d[t]`` (row d, column t + 2*delta; zero where
    ``t + d > 2*delta``), both read-only.  The unknown is an N x N
    Hermitian array F, zero outside the band, in real coordinates
    ``x = [diag F; sqrt(2) Re F[upper]; sqrt(2) Im F[upper]]``, where
    ``upper`` holds the entries ``0 < j - i <= 4*delta`` in row-major
    order.  The coordinates are an isometry (``x . y`` is the Frobenius
    inner product of the two matrices) and differ from the complex entry
    coordinates by a unitary change of basis, so the real measurement
    matrix has the singular values of the complex one.  :meth:`forward`
    applies the matrix from the phases and the kernels alone, and
    :meth:`image` its image of a rank-one ``w wᴴ`` from ``w``.  The matrix
    and its factorization are each computed from them on first access,
    under a per-system lock, and cached; the factorization does not read
    the matrix.  A grid whose matrix would pass ``MATRIX_BUDGET`` raises
    ConfigError before anything is built.

    The factorization is the thin SVDs of up to four diagonal blocks
    ``M_b = R_b A C_bᵀ`` of two commuting symmetries (Z2 x Z2), whose
    orthogonal maps R_b of the rows and C_b of the coordinates take the sums
    or the differences of index pairs.  The shift parity pairs the rows of
    +l and -l (l = 0 joins the sums): the sums carry ``sqrt(2) cos(pi l d)
    c_d`` and touch only the diagonal and Re-band coordinates, the
    differences ``sqrt(2) i sin(pi l d) c_d`` and only the Im-band ones,
    when the shifts equal their negated reverse and ``max|Im c| <=
    _SPLIT_FLOOR * max|c|``.  The frequency reflection pairs the rows (k, r)
    and (k, N-1-r), and the coordinates of the entries (i, i+d) and
    (N-1-i-d, N-1-i), when ``c_d[-t-d] = c_d[t]`` within the same floor, as
    for every real window and shift set.  Each parity block is built one
    shift row at a time by :meth:`_block`, into both reflection halves,
    which factor in about a sixteenth of the whole matrix's flops and are
    then dropped.  A symmetry that fails, or whose blocks would drop zero
    singular triplets, is not taken.
    """

    def __init__(self, window: Window, grid: MeasurementGrid):
        n = grid.n_frequencies
        check_matrix_budget(n, grid.n_shifts, grid.delta)
        for l in grid.shifts:
            check_shift(window, l)
        self.grid = grid
        self.band = 4 * grid.delta
        d = np.arange(self.band + 1)
        t = d - 2 * grid.delta
        ghat = window.fourier(-t / 2.0)
        self.phases = np.exp(1j * np.pi * np.multiply.outer(grid.shifts, d))
        reach = np.minimum(d[:, None] + d, self.band + 1)  # t + d, or past it
        self.kernels = 0.25 * np.conj(ghat) * np.append(ghat, 0.0)[reach]
        for state in (self.phases, self.kernels):
            state.setflags(write=False)
        offsets = np.subtract.outer(np.arange(n), np.arange(n))
        self.upper = np.nonzero((offsets < 0) & (offsets >= -self.band))
        # forward's gather: band diagonal d, 2*delta zeros (index N*N) aside
        i = np.arange(-2 * grid.delta, n + 2 * grid.delta)
        self._diagonals = np.where((i >= 0) & (i + d[:, None] < n),
                                   (n + 1) * i + d[:, None], n * n)
        # image's taps B[t, k] and gather of w[r + t], which reads index N,
        # a padded zero, wherever r + t is off the grid
        self._taps = 0.5 * ghat[:, None] * np.exp(
            1j * np.pi * np.multiply.outer(t, grid.shifts))
        self._windows = np.clip(np.arange(n)[:, None] + t, -1, n) % (n + 1)
        self._matrix: np.ndarray | None = None
        self._factorization = None
        self._lock = threading.Lock()

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
        upper = dense[self.upper]
        return np.concatenate([dense.diagonal().real, _SQRT2 * upper.real,
                               _SQRT2 * upper.imag])

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

    def image(self, w: np.ndarray) -> np.ndarray:
        """``W_w B`` of each vector w of a stack, ``W_w[r, t] = w[r + t]``
        (zero off the grid), ``B[t, k] = ghat(-t/2) exp(i pi l_k t) / 2``, in
        measurement order: ``forward(outer(w, conj(w))) = |image(w)|²``."""
        padded = np.append(w, np.zeros((len(w), 1)), axis=1)[:, self._windows]
        return (padded @ self._taps).transpose(0, 2, 1).reshape(len(w), -1)

    def forward(self, dense: np.ndarray) -> np.ndarray:
        """``matrix @ pack(dense)`` without the matrix: ``Re(conj(phases) @
        (w q))``, w_0 = 1, w_d = 2 for d > 0, ``q_d[r] = sum_t conj(c_d[t])
        dense[r+t, r+t+d]``, read from the diagonal and upper band only."""
        diagonals = np.append(dense.ravel(), 0.0)[self._diagonals]
        width = len(self.kernels)
        windows = sliding_window_view(diagonals, width, axis=1)
        weights = np.where(np.arange(width) > 0, 2.0, 1.0)[:, None]
        q = windows @ (weights * np.conj(self.kernels))[..., None]
        return (np.conj(self.phases) @ q[..., 0]).real.ravel()

    def _block(self, transform: np.ndarray, columns: slice):
        """Yield, for each row of ``transform @ phases``, the N rows of the
        operator that weigh the kernels with that phase row, in the layout
        of :meth:`pack`, restricted to ``columns``.  The slice starts and
        stops on the boundaries between the diagonal, Re-band and Im-band
        coordinates."""
        n, width = self.grid.n_frequencies, self.band + 1
        index = []  # per row, each entry's weight in the padded kernels
        for i, j in ((np.arange(n),) * 2, self.upper):
            t = i - np.arange(n)[:, None] + 2 * self.grid.delta
            index.append(np.where((t >= 0) & (t + j - i < width),
                                  (j - i) * width + t, width * width))
        diagonal, upper = index
        cut = n + upper.shape[1]  # diagonal and Re-band | Im-band
        start, stop, _ = columns.indices(self.n_unknowns)
        for phase in transform @ self.phases:
            rows = np.empty((n, stop - start))
            kernel = np.append((phase[:, None] * self.kernels).ravel(), 0.0)
            for lo, source, where in ((0, kernel.real, diagonal),
                                      (n, _SQRT2 * kernel.real, upper),
                                      (cut, _SQRT2 * kernel.imag, upper)):
                hi = lo + where.shape[1]
                if start <= lo and hi <= stop:
                    np.take(source, where, out=rows[:, lo - start:hi - start])
            yield rows

    @property
    def matrix(self) -> np.ndarray:
        """Real measurement matrix (n_measurements x n_unknowns).

        Row (k, r) holds ``exp(i pi l_k d) c_d[i - r]`` at entry (i, i + d)
        of the band, in the real coordinates of :meth:`pack`: the rows of
        the identity shift transform.  :meth:`forward` applies it unbuilt.
        """
        with self._lock:
            if self._matrix is None:
                self._matrix = np.concatenate(list(self._block(
                    np.eye(self.grid.n_shifts), slice(None))))
            return self._matrix

    @property
    def factorization(self):
        """The cached symmetry blocks of the real matrix, each its maps and
        thin SVD, ``u`` and ``vh`` C-contiguous (see the class docstring)."""
        with self._lock:
            if self._factorization is None:
                self._factorization = self._factor()
            return self._factorization

    def _symmetries(self):
        """The candidate splits, both symmetries first and none last: the
        shift parity's (partner of each shift, columns of its sums and of
        its differences) times the frequency reflection's (partner of each
        frequency, partner of each coordinate), each before the identity,
        which also stands in for a symmetry that the input breaks."""
        k, n, c, width = (self.grid.n_shifts, self.grid.n_frequencies,
                          self.kernels, self.band + 1)
        floor, shifts = _SPLIT_FLOOR * np.abs(c).max(), self.grid.shifts
        parity = [(np.arange(k), (slice(None),))]
        if (k > 1 and shifts == tuple(-l for l in reversed(shifts))
                and np.abs(c.imag).max() <= floor):
            cut = n + self.upper[0].size
            parity.insert(0, (np.arange(k)[::-1],
                              (slice(0, cut), slice(cut, None))))
        reflection = [(np.arange(n), np.arange(self.n_unknowns))]
        if max(np.abs(row[:width - d] - row[width - d - 1::-1]).max()
               for d, row in enumerate(c)) <= floor:
            (i, j), p = self.upper, self.upper[0].size
            entry = np.zeros((n, n), dtype=int)
            entry[i, j] = np.arange(p)
            partner, mirror = entry[n - 1 - j, n - 1 - i], np.arange(n)[::-1]
            reflection.insert(0, (mirror, np.concatenate(
                [mirror, n + partner, n + p + partner])))
        return itertools.product(parity, reflection)

    def _factor(self) -> tuple[SymmetryBlock, ...]:
        """The symmetry blocks, each factored (see the class docstring):
        of both symmetries, one or none, the first whose blocks keep the
        whole matrix's count of singular triplets (a wide block beside a
        tall one would drop zero triplets).  Each shift row of a parity part
        is built once, into both reflection halves, which are factored."""
        coordinates = np.arange(self.n_unknowns)
        for (shifts, parts), (frequencies, partners) in self._symmetries():
            halves = [(_dense(shifts, sign), part, _dense(frequencies, flip),
                       _pairs(coordinates[part], partners, flip))
                      for sign, part in zip((1.0, -1.0), parts)
                      for flip in (1.0, -1.0)]
            halves = [half for half in halves if half[2].size]
            if sum(min(len(rows) * len(freq), cols[0].shape[1])
                   for rows, _, freq, cols in halves) \
                    == min(self.n_measurements, self.n_unknowns):
                break
        blocks = []
        for part, group in itertools.groupby(halves, lambda half: half[1]):
            group = list(group)
            matrices = [np.empty((len(rows), len(freq), cols[0].shape[1]))
                        for rows, _, freq, cols in group]
            for k, built in enumerate(self._block(group[0][0], part)):
                for h, (_, _, freq, (pairs, weights)) in enumerate(group):
                    matrices[h][k] = _combine(
                        freq @ built, pairs - (part.start or 0), weights)
            blocks += [SymmetryBlock(rows, freq, *cols, *thin_svd(
                matrices.pop(0).reshape(len(rows) * len(freq), -1)))
                       for rows, _, freq, cols in group]
        return tuple(blocks)


def assemble_system(window: Window, grid: MeasurementGrid) -> LiftedSystem:
    """Build the lifted system for a window and measurement grid.

    The banded unknown has half-width ``4 * delta``, which covers every
    product the quadratic form can reach, so the lifted operator agrees
    with the truncated series exactly.
    """
    return LiftedSystem(window, grid)
