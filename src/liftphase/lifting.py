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
writes row blocks of A, a real matrix over real coordinates of the
Hermitian band, from the phases and the kernels: the whole matrix, and the
blocks that it factors.
"""

from __future__ import annotations

import threading

import numpy as np

from .exceptions import ConfigError, DimensionError
from .forward import MeasurementGrid, check_shift
from .kernels import thin_svd
from .signals import Window

__all__ = ["LiftedSystem", "assemble_system"]

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
    matrix has the singular values of the complex one.  The matrix and its
    thin SVD are each computed from the phases and the kernels on first
    access and cached for repeated solves; the SVD does not read the
    matrix.  Both are computed under a per-system lock, so concurrent first
    accesses compute each once.  A grid whose matrix would pass
    ``MATRIX_BUDGET`` raises ConfigError before anything is built.

    The thin SVD is taken in two shift-parity blocks when the operator
    splits.  The sum of the rows of +l and -l over sqrt(2) carries
    ``sqrt(2) cos(pi l d) c_d``, their difference ``sqrt(2) i sin(pi l d)
    c_d``, and the row of l = 0 joins the sums.  When the kernels are real,
    the sums touch only the diagonal and Re-band coordinates and the
    differences only the Im-band ones, so this orthogonal change of rows T
    makes the matrix ``blockdiag(A_even, A_odd)``.  Each block is built from
    the phases ``T Phi`` and the kernels, and the blocks' thin SVDs, at
    about a quarter of the flops each, give the whole matrix's: ``u = Tᵀ
    blockdiag(u_even, u_odd)``.  The split is taken when the shifts equal
    their negated reverse and ``max|Im c| <= _SPLIT_FLOOR * max|c|``; a real
    window that is not even, or an asymmetric shift set, takes one block,
    that of T = I_K, through the same builder.
    """

    def __init__(self, window: Window, grid: MeasurementGrid):
        n = grid.n_frequencies
        check_matrix_budget(n, grid.n_shifts, grid.delta)
        for l in grid.shifts:
            check_shift(window, l)
        self.grid = grid
        self.band = 4 * grid.delta
        d = np.arange(self.band + 1)
        ghat = window.fourier(-(d - 2 * grid.delta) / 2.0)
        self.phases = np.exp(1j * np.pi * np.multiply.outer(grid.shifts, d))
        reach = np.minimum(d[:, None] + d, self.band + 1)  # t + d, or past it
        self.kernels = 0.25 * np.conj(ghat) * np.append(ghat, 0.0)[reach]
        for state in (self.phases, self.kernels):
            state.setflags(write=False)
        offsets = np.subtract.outer(np.arange(n), np.arange(n))
        self.upper = np.nonzero((offsets < 0) & (offsets >= -self.band))
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

    def _block(self, transform: np.ndarray, columns: slice) -> np.ndarray:
        """Rows of the operator after the shift transform ``transform``: for
        each row of ``transform @ phases``, the N rows of that phase row
        times the kernels, in the layout of :meth:`pack`, restricted to
        ``columns``.  The slice starts and stops on the boundaries between
        the diagonal, Re-band and Im-band coordinates."""
        n, width = self.grid.n_frequencies, self.band + 1
        index = []  # per row, each entry's weight in the padded kernels
        for i, j in ((np.arange(n),) * 2, self.upper):
            t = i - np.arange(n)[:, None] + 2 * self.grid.delta
            index.append(np.where((t >= 0) & (t + j - i < width),
                                  (j - i) * width + t, width * width))
        diagonal, upper = index
        cut = n + upper.shape[1]  # diagonal and Re-band | Im-band
        start, stop, _ = columns.indices(self.n_unknowns)
        block = np.empty((len(transform) * n, stop - start))
        for rows, phase in zip(np.split(block, len(transform)),
                               transform @ self.phases):
            kernel = np.append((phase[:, None] * self.kernels).ravel(), 0.0)
            for lo, source, where in ((0, kernel.real, diagonal),
                                      (n, _SQRT2 * kernel.real, upper),
                                      (cut, _SQRT2 * kernel.imag, upper)):
                hi = lo + where.shape[1]
                if start <= lo and hi <= stop:
                    np.take(source, where, out=rows[:, lo - start:hi - start])
        return block

    @property
    def matrix(self) -> np.ndarray:
        """Real measurement matrix (n_measurements x n_unknowns).

        Row (k, r) holds ``exp(i pi l_k d) c_d[i - r]`` at entry (i, i + d)
        of the band, in the real coordinates of :meth:`pack`: the one row
        block of the identity shift transform.
        """
        with self._lock:
            if self._matrix is None:
                self._matrix = self._block(np.eye(self.grid.n_shifts),
                                           slice(None))
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

    def _parity_split(self) -> list[tuple[np.ndarray, slice]]:
        """The row blocks of the orthogonal shift transform T and the columns
        their rows touch: ``[(T_even, columns), (T_odd, columns)]`` when the
        operator splits (see the class docstring), else ``[(I_K, all)]``."""
        shifts, n, c = self.grid.shifts, self.grid.n_frequencies, self.kernels
        k_shifts, half = len(shifts), len(shifts) // 2
        eye = np.eye(k_shifts)
        if (k_shifts < 2 or shifts != tuple(-l for l in reversed(shifts))
                or np.abs(c.imag).max() > _SPLIT_FLOOR * np.abs(c).max()):
            return [(eye, slice(None))]
        even = np.vstack([(eye + eye[::-1])[:half] / _SQRT2,
                          eye[half:half + k_shifts % 2]])
        odd = (eye - eye[::-1])[:half] / _SQRT2
        cut = n + self.upper[0].size  # diagonal and Re-band | Im-band
        # a wide block beside a tall one would drop zero singular triplets
        if min(len(even) * n, cut) + min(len(odd) * n, self.n_unknowns - cut) \
                != min(self.n_measurements, self.n_unknowns):
            return [(eye, slice(None))]
        return [(even, slice(0, cut)), (odd, slice(cut, None))]

    def _factor(self):
        """Thin SVD of the matrix from its row blocks' (see
        :meth:`_parity_split`): ``u = Tᵀ blockdiag(u_b)``, each ``vh_b`` in
        its block's columns, and the triplets merged by descending singular
        value.  No block is held through the merge, where memory peaks."""
        split, n = self._parity_split(), self.grid.n_frequencies
        factors = [thin_svd(self._block(*block)) for block in split]
        s = np.concatenate([sb for _, sb, _ in factors])
        order = np.argsort(-s, kind="stable")
        position = np.argsort(order)  # the inverse permutation
        u = np.zeros((self.grid.n_shifts, n, s.size))
        vh = np.zeros((s.size, self.n_unknowns))
        start = 0
        for (transform, columns), (ub, sb, vhb) in zip(split, factors):
            where = position[start:start + sb.size]
            start += sb.size
            vh[where, columns] = vhb
            for i, k in zip(*np.nonzero(transform)):
                u[k][:, where] = transform[i, k] * ub[i * n:(i + 1) * n]
        return u.reshape(-1, s.size), s[order], vh


def assemble_system(window: Window, grid: MeasurementGrid) -> LiftedSystem:
    """Build the lifted system for a window and measurement grid.

    The banded unknown has half-width ``4 * delta``, which covers every
    product the quadratic form can reach, so the lifted operator agrees
    with the truncated series exactly.
    """
    return LiftedSystem(window, grid)
