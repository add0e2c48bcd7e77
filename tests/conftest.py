"""Shared fixtures: grids, catalog signals, and the expensive measurement
vectors / factorizations are computed once per session."""

import warnings

import numpy as np
import pytest
from scipy import integrate

import liftphase as lp
from liftphase.exceptions import DimensionError


@pytest.fixture(scope="session")
def grid():
    return lp.paper_grid()


@pytest.fixture(scope="session")
def window():
    return lp.get_window("gaussian")


@pytest.fixture(scope="session")
def gaussian():
    return lp.get_signal("gaussian")


@pytest.fixture(scope="session")
def modulated():
    return lp.get_signal("modulated")


@pytest.fixture(scope="session")
def b_quad(grid, window, gaussian, modulated):
    """Quadrature measurement vectors for both catalog signals."""
    return {
        "gaussian": lp.measure(gaussian, window, grid, method="quadrature"),
        "modulated": lp.measure(modulated, window, grid, method="quadrature"),
    }


@pytest.fixture(scope="session")
def b_quad_rotated(grid, window, gaussian):
    """Quadrature measurements of the globally phase-rotated first signal."""
    rotated = lp.phase_rotated(gaussian, 0.7)
    return lp.measure(rotated, window, grid, method="quadrature")


@pytest.fixture(scope="session")
def b_series(grid, window, gaussian, modulated):
    return {
        "gaussian": lp.measure(gaussian, window, grid, method="series"),
        "modulated": lp.measure(modulated, window, grid, method="series"),
    }


@pytest.fixture(scope="session")
def paper_system(grid, window):
    """Assembled lifted system for the bundled grid, SVD cached."""
    return lp.cached_system(window, grid)


@pytest.fixture(scope="session")
def small_setup(window):
    """Small grid (N=21, K=7, delta=3) for oracle-scale tests."""
    grid = lp.half_integer_grid(21, 7, 0.5 / 7.0, 3)
    system = lp.cached_system(window, grid)
    return grid, system


def skewed_specimen():
    """Complex, non-even test signal (not in the catalog).  The catalog's
    specimens are real and even, so their spectrograms do not change when
    the shift changes sign; this one's do, so a wrong sign of the shift
    phase shows."""
    return lp.Signal(
        "skewed",
        lambda t: 2 ** 0.25 * np.exp(-(400.0 / 9.0) * (t - 0.1) ** 2)
        * np.exp(9j * t) + 0.4j * np.exp(-60.0 * (t + 0.15) ** 2),
    )


def tilted_window():
    """Real, non-even test window (not in the catalog): the catalog
    Gaussian times 1 + 0.8 t on [-1/2, 1/2]."""
    return lp.Window("tilted", lambda t: 2 ** 0.25 * np.exp(-16.0 * np.pi * t * t)
                     * (1.0 + 0.8 * t), 0.5)


def chirped_window():
    """Complex test window (not in the catalog): the catalog Gaussian times
    e^{3 i t} on [-1/2, 1/2].  With :func:`tilted_window` it makes a wrong
    sign of a window transform's argument show, which the catalog's real,
    even window cannot."""
    return lp.Window("chirped", lambda t: 2 ** 0.25 * np.exp(-16.0 * np.pi * t * t)
                     * np.exp(3j * t), 0.5)


def shift_vector(window, shift, delta):
    """Oracle: lattice samples of the window transform, phase-twisted by
    the shift.

    Entry ``t + 2*delta`` holds ``exp(i pi l t) * ghat(-t/2)`` for the
    twice-index ``t`` in ``[-2*delta, 2*delta]`` (half-integer lattice
    points ``t/2``).  Both the phase and the argument match the series of
    ``spectrogram_series``, whose term for lattice point ``m/2 = w + t/2``
    carries ``ghat(w - m/2)``, so the measurement at (l, w) is one quarter
    of the squared modulus of this vector, positioned at w, dotted with
    the Fourier samples.
    """
    t = np.arange(-2 * delta, 2 * delta + 1)
    return np.exp(1j * np.pi * shift * t) * window.fourier(-t / 2.0)


def toeplitz_block(values, n_frequencies):
    """Oracle: dense banded Toeplitz block of a shift vector, whose row r
    is the vector positioned at r: entry (i, j) is ``values[j - i +
    2*delta]`` when ``|j - i| <= 2*delta``, else zero."""
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


def dense_column_oracle(window, grid, band):
    """The lifted map over complex entry coordinates, by pushing basis
    elements through the dense stacked-Toeplitz quadratic form.

    Returns ``(m, rows, cols)``: column q of ``m`` holds the measurements
    of the matrix whose only nonzero entry is a 1 at ``(rows[q], cols[q])``,
    for every in-band entry in row-major order, so ``m @ F[rows, cols]`` is
    the measurement vector of F."""
    n = grid.n_frequencies
    blocks = [toeplitz_block(shift_vector(window, l, grid.delta), n)
              for l in grid.shifts]
    g = np.vstack(blocks)
    rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
                            <= band)
    m = np.zeros((g.shape[0], rows.size), dtype=complex)
    for q, (i, j) in enumerate(zip(rows, cols)):
        basis = np.zeros((n, n), dtype=complex)
        basis[i, j] = 1.0
        m[:, q] = 0.25 * np.diagonal(g @ basis @ g.conj().T)
    return m, rows, cols


def merged_factorization(system):
    """The whole lifted matrix's thin SVD ``(u, s, vh)``, s descending,
    assembled from the symmetry blocks of ``system.factorization``: each
    block's ``u`` taken back through its rows R (``Rᵀ u_b``), its ``vh``
    through its columns C (``vh_b C``), and the triplets merged by
    descending singular value.  ``R`` is read off by mapping unit vectors,
    and ``Cᵀ``, a sum over the block's index pairs, is applied to each row
    of ``vh_b``."""
    us, ss, vhs = [], [], []
    for block in system.factorization:
        rows = np.array([block.rows_of(e)
                         for e in np.eye(system.n_measurements)])
        us.append(rows @ block.u)
        ss.append(block.s)
        vhs.append(np.array([np.bincount(block.pairs.ravel(),
                                         (block.weights * row).ravel(),
                                         system.n_unknowns)
                             for row in block.vh]).reshape(-1, system.n_unknowns))
    s = np.concatenate(ss)
    order = np.argsort(-s, kind="stable")
    return (np.ascontiguousarray(np.hstack(us)[:, order]), s[order],
            np.vstack(vhs)[order])


def band_part(dense, half_width):
    """Band restriction of a dense matrix, mirrored from its upper triangle
    and with a real diagonal: an exactly Hermitian array."""
    upper = np.triu(np.tril(dense, half_width), 1)
    return upper + upper.conj().T + np.diag(dense.diagonal().real)


def random_banded_hermitian(n, half_width, rng):
    """Random exactly Hermitian array, zero outside the band."""
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return band_part(dense, half_width)


def random_lattice_vector(n, rng, min_mag=0.1):
    """Random complex vector with magnitudes bounded away from zero."""
    mags = rng.uniform(min_mag, 1.0, n)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    return mags * phases


def rank_one_banded(vec, half_width):
    """Band restriction of the outer product vec vec*."""
    return band_part(np.outer(vec, np.conj(vec)), half_width)


class BandWindows:
    """A banded Hermitian matrix kept as its diagonals and read only through
    square index windows: it holds no N x N array and offers none."""

    def __init__(self, dense, half_width):
        self.size = dense.shape[0]
        self.half_width = half_width
        self._diagonals = {d: np.diagonal(dense, d).copy()
                           for d in range(-half_width, half_width + 1)}

    def window(self, center, radius):
        """``(lo, A[lo:hi, lo:hi])`` for the index window around ``center``."""
        lo = max(0, center - radius)
        hi = min(self.size, center + radius + 1)
        block = np.zeros((hi - lo, hi - lo), dtype=complex)
        for d, values in self._diagonals.items():
            rows = np.arange(max(lo, lo - d), min(hi, hi - d))
            block[rows - lo, rows + d - lo] = values[rows + min(d, 0)]
        return lo, block


class OperationCounter:
    """Accumulates complex-multiplication counts of :func:`forward_lifted`."""

    def __init__(self):
        self.multiplications = 0


def forward_lifted(system, window, f, counter=None):
    """Oracle: the lifted operator of ``system``, whose window is
    ``window``, applied row by row to a :class:`BandWindows` matrix.

    Each measurement row is one quarter of the local window's quadratic
    form, so the work is O(K * N * (4*delta + 1)^2) complex multiplications
    and no N x N matrix is formed.  Equals ``system.matrix @
    system.pack(F)``.
    """
    n = system.grid.n_frequencies
    delta = system.grid.delta
    assert f.size == n and f.half_width == system.band
    # window blocks depend only on the row, not the shift
    blocks = [f.window(r, 2 * delta) for r in range(n)]
    out = np.empty(system.n_measurements)
    for k, shift in enumerate(system.grid.shifts):
        vals = shift_vector(window, shift, delta)
        for r in range(n):
            lo, block = blocks[r]
            x = vals[(lo - r) + 2 * delta:(lo - r) + 2 * delta + block.shape[0]]
            y = block @ np.conj(x)
            out[k * n + r] = 0.25 * float(np.real(np.dot(x, y)))
            if counter is not None:
                w = block.shape[0]
                counter.multiplications += w * w + w
    return out


def align_phase(candidate, reference):
    """Rotate candidate by the best global phase toward reference."""
    corr = np.vdot(candidate, reference)
    if corr == 0:
        return candidate
    return candidate * np.exp(1j * np.angle(corr))


def adaptive_integral(integrand, lower, upper, tolerance):
    """Oracle: adaptive Gauss-Kronrod quadrature (quadpack) of a scalar
    complex integrand, real and imaginary parts separately.  Returns the
    value and the sum of the two parts' error estimates."""
    # quadpack stops once its estimate crosses the request, so ask for an
    # eighth of the tolerance to keep the reported estimate below it
    inner = tolerance * 0.125
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re_val, re_err = integrate.quad(
            lambda t: complex(integrand(t)).real, lower, upper,
            epsabs=inner, epsrel=0.0, limit=400)
        im_val, im_err = integrate.quad(
            lambda t: complex(integrand(t)).imag, lower, upper,
            epsabs=inner, epsrel=0.0, limit=400)
    err = re_err + im_err
    assert err <= tolerance, f"oracle error estimate {err:.2e} above {tolerance:.2e}"
    return complex(re_val, im_val), err


def adaptive_fourier(obj, freq, lower, upper, tolerance=5e-13):
    """Oracle for ``Signal.fourier`` / ``Window.fourier`` at one frequency,
    over the support [lower, upper]."""
    return adaptive_integral(
        lambda t: obj.evaluate(t) * np.exp(-2j * np.pi * freq * t),
        lower, upper, tolerance)[0]


def adaptive_spectrogram(signal, window, shift, freq, tolerance=2e-11):
    """Oracle for ``spectrogram_quadrature``: the windowed Fourier integral
    (before its squared modulus is taken) at one (shift, frequency)."""
    lo = max(-1.0, shift - window.half_width)
    hi = min(1.0, shift + window.half_width)
    return adaptive_integral(
        lambda t: signal.evaluate(t) * window.evaluate(t - shift)
        * np.exp(-2j * np.pi * freq * t), lo, hi, tolerance)[0]
