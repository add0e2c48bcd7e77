import mpmath
import numpy as np
import pytest

from liftphase import (BandedMatrix, NonConvergence, QuadratureSpec,
                       integrate_complex, kernels, leading_eigenvector,
                       min_norm_least_squares)
from liftphase.exceptions import DecompositionFailure, DimensionError
from liftphase.kernels import MAX_NODES, thin_svd

from conftest import align_phase, band_part, random_banded_hermitian


class TestQuadrature:
    def test_constant(self):
        val, err = integrate_complex(lambda t: 1.0 + 0.0j,
                                     QuadratureSpec(0.0, 1.0))
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert err <= 1e-10

    def test_full_period_exponential(self):
        val, _ = integrate_complex(lambda t: np.exp(2j * np.pi * t),
                                   QuadratureSpec(-1.0, 1.0))
        assert abs(val) < 1e-12

    def test_truncated_gaussian_vs_erf(self):
        # oracle: erf closed form of int_{-1/2}^{1/2} e^{-16 pi t^2} dt
        a = 16 * np.pi
        expected = float(mpmath.sqrt(mpmath.pi / a)
                         * mpmath.erf(mpmath.sqrt(a) / 2))
        val, _ = integrate_complex(lambda t: np.exp(-a * t * t) + 0.0j,
                                   QuadratureSpec(-0.5, 0.5))
        assert val.real == pytest.approx(expected, abs=1e-12)
        assert abs(val.imag) < 1e-14

    @pytest.mark.parametrize("freq", [0.5, 3.0, 11.0])
    def test_halving_tolerance_tightens_estimate(self, freq):
        def integrand(t):
            return np.exp(-16.0 * t * t) * np.exp(-2j * np.pi * freq * t)

        tol = 1e-6
        _, prev_err = integrate_complex(integrand, QuadratureSpec(-1, 1, tol))
        prev_val = None
        for _ in range(8):
            val, err = integrate_complex(integrand, QuadratureSpec(-1, 1, tol))
            assert err <= prev_err or err <= 1e-14
            if prev_val is not None:
                assert abs(val - prev_val) <= prev_err + err
            prev_val, prev_err = val, err
            tol /= 2

    def test_nonconvergence_below_roundoff(self):
        spec = QuadratureSpec(-1.0, 1.0, tolerance=1e-16)
        with pytest.raises(NonConvergence):
            integrate_complex(lambda t: np.cos(40 * t) + 0.0j, spec)

    def test_jump_inside_interval_raises(self):
        # a jump inside the interval converges only algebraically, so no
        # pair of rules up to the node cap agrees to the tolerance
        spec = QuadratureSpec(-1.0, 1.0, tolerance=1e-10)
        with pytest.raises(NonConvergence, match=f"up to {MAX_NODES} nodes"):
            integrate_complex(lambda t: np.where(t < 0.3, 1.0, 0.0) + 0j, spec)

    def test_columns_do_not_depend_on_each_other(self):
        freqs = np.random.default_rng(4).uniform(-40.0, 40.0, 25)

        def integrand(w):
            return lambda t: (np.exp(-8.0 * t * t)[:, None]
                              * np.exp(-2j * np.pi * np.multiply.outer(t, w)))

        spec = QuadratureSpec(-1.0, 1.0, tolerance=1e-12)
        together, err = integrate_complex(integrand(freqs), spec)
        assert together.shape == (25,)
        for i in range(freqs.size):
            alone, alone_err = integrate_complex(integrand(freqs[i:i + 1]), spec)
            assert alone[0] == together[i]
            assert alone_err <= err

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1.0, 0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 1.0, tolerance=0.0)


class TestMinNormLeastSquares:
    def test_identity_system(self):
        b = np.array([1.0, 1j, -2.0])
        x, resid, rank = min_norm_least_squares(np.eye(3), b)
        assert np.allclose(x, b, atol=1e-14)
        assert resid < 1e-14
        assert rank == 3

    def test_averaging_column(self):
        a = np.array([[1.0], [1.0]])
        x, resid, rank = min_norm_least_squares(a, np.array([1.0, 3.0]))
        assert x[0] == pytest.approx(2.0, abs=1e-14)
        assert resid == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert rank == 1

    def test_minimum_norm_against_pinv(self):
        # deliberately rank-deficient systems; oracle is the dense pseudoinverse
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.integers(4, 50)
            n = rng.integers(4, 50)
            r = int(min(m, n) // 2) or 1
            left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            a = left @ right
            b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x, _, rank = min_norm_least_squares(a, b)
            expected = np.linalg.pinv(a, rcond=1e-10) @ b
            assert rank == r
            assert np.linalg.norm(x - expected) <= 1e-9 * max(np.linalg.norm(expected), 1.0)

    def test_zero_matrix(self):
        x, resid, rank = min_norm_least_squares(np.zeros((3, 2)), np.ones(3))
        assert rank == 0
        assert np.all(x == 0)
        assert resid == pytest.approx(np.sqrt(3.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            min_norm_least_squares(np.eye(3), np.ones(2))

    def test_truncation_sets_the_rank(self):
        # the solve keeps the singular values above rank_tol times the
        # largest, and solves on exactly those triplets
        a = np.diag([4.0, 1.0, 1e-3, 1e-9])
        factors = thin_svd(a)
        for rank_tol, rank in ((1e-10, 4), (1e-6, 3), (1e-2, 2), (0.5, 1)):
            x, _, kept = min_norm_least_squares(a, np.ones(4), rank_tol=rank_tol,
                                                factorization=factors)
            assert kept == rank
            assert np.allclose(x, np.where(np.arange(4) < rank,
                                           1.0 / a.diagonal(), 0.0))
        assert min_norm_least_squares(np.zeros((3, 2)), np.ones(3),
                                      factorization=thin_svd(np.zeros((3, 2))))[2] == 0

    def test_svd_failure_is_a_decomposition_failure(self, monkeypatch):
        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", diverges)
        with pytest.raises(DecompositionFailure):
            min_norm_least_squares(np.eye(3), np.ones(3))


def _rank_three(m, n, rng):
    return rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))


class TestThinSvd:
    """The SVD of the tall orientation against LAPACK's SVD of ``a`` itself."""

    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((7, 19)),
        lambda rng: rng.standard_normal((19, 7)),
        lambda rng: rng.standard_normal((9, 9)),
        lambda rng: _rank_three(8, 15, rng),
        lambda rng: _rank_three(15, 8, rng),
        lambda rng: (rng.standard_normal((6, 11))
                     + 1j * rng.standard_normal((6, 11))),
    ], ids=["wide", "tall", "square", "rank-deficient-wide",
            "rank-deficient-tall", "complex-wide"])
    def test_matches_direct_svd(self, make):
        a = make(np.random.default_rng(5))
        u, s, vh = thin_svd(a)
        k = min(a.shape)
        assert u.shape == (a.shape[0], k) and vh.shape == (k, a.shape[1])
        scale = s[0]
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.abs(s - reference).max() <= 1e-13 * scale
        assert np.all(np.diff(s) <= 0)
        assert np.abs(u.conj().T @ u - np.eye(k)).max() <= 1e-13
        assert np.abs(vh @ vh.conj().T - np.eye(k)).max() <= 1e-13
        assert np.abs((u * s) @ vh - a).max() <= 1e-13 * scale
        # row prefixes of C-ordered factors stay cheap to multiply
        assert u.flags.c_contiguous and vh.flags.c_contiguous


def centred_shift(h):
    """−(λ₂ + λ_min)/2 of ``h``: the shift that synchronization passes."""
    evals = np.linalg.eigvalsh(h)
    return -0.5 * (evals[-2] + evals[0])


class TestLeadingEigenvector:
    def test_diagonal(self):
        v, lam = leading_eigenvector(BandedMatrix(np.diag([3.0, 1.0])), -1.0)
        assert lam == pytest.approx(3.0, abs=1e-10)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-9)

    def test_rank_one(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        u += 0.3 * np.sign(u.real) + 0.3j * np.sign(u.imag)  # keep entries away from 0
        u /= np.linalg.norm(u)
        h = np.outer(u, np.conj(u))
        h = 0.5 * (h + h.conj().T)  # exactly Hermitian
        v, lam = leading_eigenvector(BandedMatrix(h), 0.0)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(v, u)) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(h @ v - lam * v) <= 1e-10

    def test_banded_phase_matrix_vs_dense_eigh(self):
        # phase-normalized banded outer product; oracle is a dense eigensolve
        rng = np.random.default_rng(3)
        n, half_width = 21, 12
        f = np.exp(2j * np.pi * rng.uniform(0, 1, n)) * rng.uniform(0.2, 1.0, n)
        outer = np.outer(f, np.conj(f))
        phases = band_part(outer / np.abs(outer), half_width)
        np.fill_diagonal(phases, 1.0)
        v, lam = leading_eigenvector(BandedMatrix(phases), centred_shift(phases))
        evals, evecs = np.linalg.eigh(phases)
        assert lam == pytest.approx(evals[-1], abs=1e-9)
        assert abs(np.vdot(v, evecs[:, -1])) == pytest.approx(1.0, abs=1e-9)
        # entrywise phases match the true vector's up to one global phase
        target = f / np.abs(f)
        aligned = align_phase(v / np.abs(v), target)
        assert np.allclose(aligned, target, atol=1e-8)

    def test_rayleigh_quotient_and_scaling_invariance(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h = 0.5 * (h + h.conj().T)
        v, lam = leading_eigenvector(BandedMatrix(h), centred_shift(h))
        assert np.real(np.vdot(v, h @ v)) == pytest.approx(lam, abs=1e-10)
        v2, lam2 = leading_eigenvector(BandedMatrix(2.5 * h),
                                       centred_shift(2.5 * h))
        assert lam2 == pytest.approx(2.5 * lam, rel=1e-8)
        assert abs(np.vdot(v, v2)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_shifted_iteration_matches_dense_eigh(self, seed):
        # random Hermitian matrices whose top eigenvalue stands 0.5 above the
        # rest of a spectrum in [-1, 1]; the oracle is a dense eigh
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        spectrum = np.append(rng.uniform(-1.0, 1.0, n - 1), 1.5)
        h = (q * spectrum) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
        v, lam = leading_eigenvector(BandedMatrix(h), centred_shift(h))
        evals, evecs = np.linalg.eigh(h)
        assert lam == pytest.approx(evals[-1], abs=1e-10)
        assert np.linalg.norm(h @ v - lam * v) <= kernels.POWER_TOL
        assert np.linalg.norm(align_phase(v, evecs[:, -1])
                              - evecs[:, -1]) <= 1e-9

    def test_nonconvergence(self, monkeypatch):
        # the shift 0 leaves |-1| = 1: the iterate never settles on e1
        monkeypatch.setattr(kernels, "MAX_POWER_ITERS", 100)
        with pytest.raises(NonConvergence):
            leading_eigenvector(BandedMatrix(np.diag([1.0, -1.0])), 0.0)

    def test_rejects_non_hermitian(self):
        # the operand type admits only exactly Hermitian matrices
        with pytest.raises(DimensionError):
            leading_eigenvector(BandedMatrix(
                np.array([[0.0, 1.0], [0.0, 0.0]])), 0.0)


class TestBandedMatrix:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        dense = random_banded_hermitian(11, 4, rng)
        v = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        assert np.array_equal(BandedMatrix(dense).matvec(v), dense @ v)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            BandedMatrix(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            BandedMatrix(np.zeros(3))
        with pytest.raises(DimensionError):
            BandedMatrix(np.eye(4)).matvec(np.zeros(3))
        with pytest.raises(DimensionError):
            BandedMatrix(np.diag([1.0 + 1e-300j, 2.0]))
