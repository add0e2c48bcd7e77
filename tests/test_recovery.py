import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import liftphase as lp
from liftphase import lifting, recovery
from liftphase.exceptions import (ConfigError, DegenerateSpectrum,
                                  DimensionError)

from conftest import (BandWindows, align_phase, dense_column_oracle,
                      forward_lifted, random_lattice_vector, rank_one_banded,
                      skewed_specimen, tilted_window)


class TestSolveBand:
    def test_zero_measurements_give_zero_solution(self, small_setup):
        grid, system = small_setup
        data = lp.SpectrogramData(np.zeros(system.n_measurements), grid,
                                  provenance="series")
        f, diag = lp.solve_band(system, data)
        assert f.shape == (grid.n_frequencies, grid.n_frequencies)
        assert np.all(f == 0)
        assert diag.residual == 0.0

    def test_rank_one_forward_residual(self, small_setup, window):
        # the matrix is rank-deficient, so the solution is only pinned up to
        # null-space components; the forward image must still reproduce b
        grid, system = small_setup
        rng = np.random.default_rng(21)
        vec = random_lattice_vector(grid.n_frequencies, rng)
        truth = rank_one_banded(vec, system.band)
        b = forward_lifted(system, window, BandWindows(truth, system.band))
        data = lp.SpectrogramData(b, grid, provenance="series")
        f, diag = lp.solve_band(system, data)
        reproduced = forward_lifted(system, window, BandWindows(f, system.band))
        assert np.linalg.norm(reproduced - b) / np.linalg.norm(b) <= 1e-8
        assert diag.residual <= 1e-8

    def test_paper_gaussian_residual(self, paper_system, b_quad):
        f, diag = lp.solve_band(paper_system, b_quad["gaussian"])
        assert diag.residual <= 1e-3
        assert np.array_equal(f, f.conj().T)
        # negative-diagonal mass is a reported diagnostic, not silently fixed
        assert diag.clamped_fraction < 0.01

    def test_factors_before_building_the_matrix(self, grid, window, b_series,
                                                monkeypatch):
        # the solve reads the symmetry blocks only, so no peak holds the
        # dense matrix
        system = lp.assemble_system(window, grid)
        unbuilt = []
        real_svd = lifting.thin_svd

        def recording_svd(a):
            unbuilt.append(system._matrix is None)
            return real_svd(a)

        monkeypatch.setattr(lifting, "thin_svd", recording_svd)
        lp.solve_band(system, b_series["gaussian"])
        assert unbuilt == [True] * 4
        assert system._matrix is None

    @pytest.mark.parametrize("method", ["quadrature", "series"])
    @pytest.mark.parametrize("signal", ["gaussian", "modulated"])
    def test_residuals_match_the_matrix_route(self, paper_system, b_quad,
                                              b_series, signal, method):
        # the solve's and the refinement's residuals are the operator's,
        # taken through forward: the dense matrix gives them to 1e-14
        data = (b_quad if method == "quadrature" else b_series)[signal]
        b, a = data.values, paper_system.matrix
        bnorm = np.linalg.norm(b)
        f, diagnostics = lp.solve_band(paper_system, data)
        assert abs(diagnostics.residual - np.linalg.norm(
            a @ paper_system.pack(f) - b) / bnorm) <= 1e-14
        refined, residual, _ = recovery._refine_rank_one(
            paper_system, b, f, lp.RecoveryConfig.for_data(data))
        assert abs(residual - np.linalg.norm(
            a @ paper_system.pack(refined) - b) / bnorm) <= 1e-14

    def test_dimension_mismatch(self, paper_system, small_setup):
        grid, _ = small_setup
        data = lp.SpectrogramData(np.zeros(grid.n_shifts * grid.n_frequencies),
                                  grid, provenance="series")
        with pytest.raises(DimensionError):
            lp.solve_band(paper_system, data)


class TestAngularSynchronize:
    def test_rank_one_oracle(self, small_setup):
        grid, system = small_setup
        rng = np.random.default_rng(3)
        vec = random_lattice_vector(grid.n_frequencies, rng)
        spectrum = lp.angular_synchronize(rank_one_banded(vec, system.band))
        aligned = align_phase(spectrum.f_hat, vec)
        assert np.linalg.norm(aligned - vec) / np.linalg.norm(vec) <= 1e-10

    def test_diagonal_only_is_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            lp.angular_synchronize(np.eye(9, dtype=complex))

    def test_real_positive_vector_gives_constant_phase(self):
        rng = np.random.default_rng(8)
        vec = rng.uniform(0.2, 1.0, 15).astype(complex)
        spectrum = lp.angular_synchronize(rank_one_banded(vec, 6))
        aligned = align_phase(spectrum.f_hat, vec)
        assert np.allclose(aligned.imag, 0.0, atol=1e-10)
        assert np.all(aligned.real > 0)

    def test_idempotence_on_own_output(self, small_setup):
        grid, system = small_setup
        rng = np.random.default_rng(13)
        vec = random_lattice_vector(grid.n_frequencies, rng)
        first = lp.angular_synchronize(rank_one_banded(vec, system.band))
        rebuilt = rank_one_banded(first.f_hat, system.band)
        second = lp.angular_synchronize(rebuilt)
        aligned = align_phase(second.f_hat, first.f_hat)
        assert np.linalg.norm(aligned - first.f_hat) <= 1e-10

    def test_requires_hermitian_storage(self):
        vec = random_lattice_vector(5, np.random.default_rng(6))
        f = rank_one_banded(vec, 2)
        for bad in (f[:, :4], f[None], f + np.triu(np.full((5, 5), 1e-15), 1),
                    f + 1e-15j * np.eye(5)):
            with pytest.raises(DimensionError):
                lp.angular_synchronize(bad)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_is_a_dimension_error(self, n):
        # one sample has no second eigenvalue, and none has no entries
        with pytest.raises(DimensionError):
            lp.angular_synchronize(np.eye(n, dtype=complex))

    def test_eigen_gap_reported(self, small_setup):
        grid, system = small_setup
        vec = random_lattice_vector(grid.n_frequencies,
                                    np.random.default_rng(2))
        spectrum = lp.angular_synchronize(rank_one_banded(vec, system.band))
        assert spectrum.diagnostics.eigen_gap is None \
            or spectrum.diagnostics.eigen_gap > 1.5


class TestSynchronizationShift:
    """The power iteration of ``angular_synchronize``, shifted by
    −(λ₂ + λ_min)/2 of the spectrum it computes first, against a dense
    ``eigh`` of the phase matrix it is handed."""

    @pytest.mark.parametrize("level", [0.0, 1e-4, 1e-3])
    @pytest.mark.parametrize("signal", ["gaussian", "modulated"])
    def test_vector_matches_dense_eigh(self, grid, window, signal, level,
                                       monkeypatch):
        data = lp.measure(lp.get_signal(signal), window, grid,
                          method="series", noise=lp.NoiseSpec(17, level))
        runs, real = [], recovery.leading_eigenvector

        def recording(h, shift):
            matvec, count = h.matvec, []
            monkeypatch.setattr(h, "matvec",
                                lambda v: count.append(1) or matvec(v))
            vec, lam = real(h, shift)
            dense = np.column_stack([matvec(e) for e in np.eye(h.size)])
            runs.append((dense, vec, len(count)))
            return vec, lam

        monkeypatch.setattr(recovery, "leading_eigenvector", recording)
        lp.recover(data, window)
        [(dense, vec, iterations)] = runs
        expected = np.linalg.eigh(dense)[1][:, -1]
        assert np.linalg.norm(align_phase(vec, expected) - expected) <= 1e-10
        # the shift ‖H‖₁ + 1 took 51 to 68 iterations on these inputs
        assert iterations <= 25

    @pytest.mark.parametrize("split", [0.0, 2e-3], ids=["equal", "within-1e-6"])
    def test_double_top_eigenvalue_raises_before_iterating(self, split,
                                                           monkeypatch):
        # two decoupled all-phase blocks of 4, λ₁ = 4 and, with the phase
        # split, λ₂ = λ₁/(1 + 1.25e-7): the shift ‖H‖₁ + 1 never converged
        # on the second, so synchronization raised NonConvergence
        block = np.ones((4, 4), dtype=complex)
        f = np.zeros((8, 8), dtype=complex)
        f[:4, :4], f[4:, 4:] = block, block
        f[4, 5], f[5, 4] = np.exp(1j * split), np.exp(-1j * split)

        def forbidden(*args, **kwargs):
            raise AssertionError("synchronization iterated")

        monkeypatch.setattr(recovery, "leading_eigenvector", forbidden)
        with pytest.raises(DegenerateSpectrum):
            lp.angular_synchronize(f)


def pinv_eigh_reference(window, grid, b, cfg):
    """The refinement written on the complex entry-coordinate oracle with
    the dense pseudo-inverse and a dense eigh: minimum-norm start, then per
    sweep the dominant rank-one part and the minimum-norm correction back
    onto the least-squares solution set, for at most ``MAX_SWEEPS`` sweeps.  It stops after the sweep whose correction, as a Hermitian
    array, is more than 0.99 times the previous one in Frobenius norm.
    Returns the refined spectrum (up to a global phase), its relative
    residual and the sweep count."""
    band = 4 * grid.delta
    a, rows, cols = dense_column_oracle(window, grid, band)
    pinv = np.linalg.pinv(a, rcond=cfg.rank_tol)
    n = grid.n_frequencies

    def hermitian(x):
        dense = np.zeros((n, n), dtype=complex)
        dense[rows, cols] = x
        return 0.5 * (dense + dense.conj().T)

    def rank_one_coordinates(x):
        evals, evecs = np.linalg.eigh(hermitian(x))
        v = evecs[:, -1]
        lam = max(evals[-1], 0.0)
        return lam * v[rows] * np.conj(v[cols]), np.sqrt(lam) * v

    x, sweeps, previous = pinv @ b, 0, np.inf
    while sweeps < recovery.MAX_SWEEPS:
        y, _ = rank_one_coordinates(x)
        correction = pinv @ (a @ y - b)
        x = y - correction
        sweeps += 1
        distance = np.linalg.norm(hermitian(correction))
        if distance > 0.99 * previous:
            break
        previous = distance
    y, spectrum = rank_one_coordinates(x)
    return spectrum, np.linalg.norm(a @ y - b) / np.linalg.norm(b), sweeps


class TestRefinement:
    @staticmethod
    def _check_against_reference(grid, system, window, cfg, noise):
        rng = np.random.default_rng(0)
        vec = random_lattice_vector(grid.n_frequencies, rng)
        clean = forward_lifted(system, window, BandWindows(
            rank_one_banded(vec, system.band), system.band))
        b = clean * (1.0 + rng.uniform(-noise, noise, clean.size))
        expected, residual, sweeps = pinv_eigh_reference(window, grid, b, cfg)
        spectrum = lp.recover(lp.SpectrogramData(b, grid, provenance="series"),
                              window, cfg=cfg)
        aligned = align_phase(spectrum.f_hat, expected)
        assert np.linalg.norm(aligned - expected) / np.linalg.norm(expected) \
            <= 1e-9
        assert spectrum.diagnostics.refine_residual == pytest.approx(
            residual, rel=1e-9)
        assert spectrum.diagnostics.refine_sweeps == sweeps
        return sweeps

    def test_refined_output_matches_pinv_eigh_reference(self, small_setup,
                                                         window):
        # the plateau stops both after 14 sweeps, at a distance ratio of
        # 0.9904 (0.9884 a sweep before); one sweep fewer moves the
        # reference by 8.8e-3
        grid, system = small_setup
        assert self._check_against_reference(
            grid, system, window, lp.RecoveryConfig(), 1e-3) < 30

    def test_truncated_refinement_matches_pinv_eigh_reference(self, small_setup,
                                                              window):
        grid, system = small_setup
        assert self._check_against_reference(
            grid, system, window, lp.RecoveryConfig(rank_tol=1e-2), 1e-3) < 30

    @pytest.mark.parametrize("signal", ["gaussian", "modulated"])
    def test_paper_quadrature_stops_on_the_plateau(self, b_quad, window,
                                                   signal):
        # quadrature data do not fit the truncated model exactly: the
        # iterate stops nearing the solution set after 9 (gaussian) and 7
        # (modulated) sweeps, and further sweeps only drift along it
        spectrum = lp.recover(b_quad[signal], window)
        assert 0 < spectrum.diagnostics.refine_sweeps < 30

    @pytest.mark.parametrize("signal", ["gaussian", "modulated"])
    def test_paper_series_runs_to_the_cap(self, b_series, window, signal):
        # series data fit the model: at the cap the distance still falls by
        # 2.5% (gaussian) and 10% (modulated) per sweep
        spectrum = lp.recover(b_series[signal], window)
        assert spectrum.diagnostics.refine_sweeps == 30

    @pytest.mark.parametrize("cap", [1, 5])
    def test_refine_iterations_caps_the_sweeps(self, b_series, window, cap,
                                               monkeypatch):
        monkeypatch.setattr(recovery, "MAX_SWEEPS", cap)
        spectrum = lp.recover(b_series["modulated"], window)
        assert spectrum.diagnostics.refine_sweeps == cap
        assert spectrum.diagnostics.refine_residual > 0


LADDER_GRID = {"n_frequencies": 101, "n_shifts": 15,
               "shift_spacing": 1.0 / 30.0, "delta": 7}


def count_eigh(monkeypatch, n):
    """The list to which every later ``np.linalg.eigh`` call on an n x n
    array appends its shape."""
    calls, real_eigh = [], np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if a.shape[0] == n:
            calls.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


class TestWarmRankOnePart:
    """The warm-started top eigenpair of the refinement against a dense
    ``np.linalg.eigh`` of the same iterate."""

    @staticmethod
    def _part(lam, vec):
        return max(lam, 0.0) * np.outer(vec, np.conj(vec))

    def _dense_part(self, h):
        evals, evecs = np.linalg.eigh(h)
        return float(evals[-1]), self._part(float(evals[-1]), evecs[:, -1])

    @pytest.mark.parametrize("level", [0.0, 1e-3], ids=["clean", "noisy"])
    @pytest.mark.parametrize("grid_size", ["paper", "101-15"])
    def test_warm_pair_matches_dense_eigh(self, window, modulated, monkeypatch,
                                          grid_size, level):
        grid = lp.paper_grid() if grid_size == "paper" \
            else lp.half_integer_grid(**LADDER_GRID)
        data = lp.measure(modulated, window, grid, method="series",
                          noise=lp.NoiseSpec(11, level))
        system = lp.cached_system(window, grid)
        system.factorization
        calls, real_part = [], recovery._rank_one_part

        def recording_part(system, x, basis):
            lam, vec, kept = real_part(system, x, basis)
            calls.append((x, basis, lam, vec, kept))
            return lam, vec, kept

        monkeypatch.setattr(recovery, "_rank_one_part", recording_part)
        dense_calls = count_eigh(monkeypatch, grid.n_frequencies)
        spectrum = lp.recover(data, window)
        monkeypatch.undo()
        # one dense eigh per recovery, in its first sweep; every later
        # sweep and the final part start from the previous basis
        assert len(dense_calls) == 1
        assert len(calls) == spectrum.diagnostics.refine_sweeps + 1
        assert calls[0][1] is None
        assert all(basis is not None for _, basis, *_ in calls[1:])
        for x, basis, lam, vec, kept in calls:
            expected_lam, expected = self._dense_part(system.unpack(x))
            assert lam == pytest.approx(expected_lam, rel=1e-12)
            assert np.linalg.norm(self._part(lam, vec) - expected) \
                <= 1e-10 * np.linalg.norm(expected)
            assert kept.shape == (grid.n_frequencies, recovery.RITZ_VECTORS)

    def _check_fallback(self, system, h, monkeypatch):
        """From a stale random basis, ``_rank_one_part`` must return the
        dense top pair and basis.  In both cases below the rest of the
        spectrum lies within 0.01 of zero, so orthogonal iteration
        converges in a few steps, and only the certificate sends them to
        the dense eigh."""
        h = system.unpack(system.pack(h))  # as _rank_one_part sees it
        rng = np.random.default_rng(5)
        n = h.shape[0]
        stale = np.linalg.qr(rng.standard_normal((n, recovery.RITZ_VECTORS))
                             + 1j * rng.standard_normal(
                                 (n, recovery.RITZ_VECTORS)))[0]
        dense_calls = count_eigh(monkeypatch, n)
        lam, vec, basis = recovery._rank_one_part(system, system.pack(h), stale)
        monkeypatch.undo()
        evals, evecs = np.linalg.eigh(h)
        assert dense_calls == [(n, n)]
        assert lam == evals[-1]
        assert np.array_equal(self._part(lam, vec), self._dense_part(h)[1])
        assert np.array_equal(basis, evecs[:, -recovery.RITZ_VECTORS:])

    def test_dominant_negative_eigenvalue_falls_back(self, small_setup,
                                                     monkeypatch):
        # the top pair converges, but |λ_min| = 10 > λ1 = 0.5 leaves it
        # uncertified: 2λ1² ≤ ‖H‖_F²
        _, system = small_setup
        d = np.random.default_rng(4).uniform(0.0, 0.01, 21)
        d[[3, 12]] = -10.0, 0.5
        self._check_fallback(system, np.diag(d).astype(complex), monkeypatch)

    def test_double_top_eigenvalue_falls_back(self, small_setup, monkeypatch):
        # λ1 = λ2: any vector of the top eigenspace has a zero residual,
        # but 2λ1² ≤ ‖H‖_F² leaves it uncertified
        _, system = small_setup
        d = np.random.default_rng(6).uniform(0.0, 0.01, 21)
        d[[2, 9]] = 3.0
        self._check_fallback(system, np.diag(d).astype(complex), monkeypatch)


class TestRecover:
    @pytest.mark.parametrize("method, bound", [
        ("series", 1.1 * 2.8616e-5), ("quadrature", 1.1 * 3.7632e-4)],
        ids=["series", "quadrature"])
    def test_complex_specimen(self, grid, window, method, bound):
        # the one paper-scale input whose spectrum is complex and not even,
        # so synchronization must find phases other than zero; with the
        # phases dropped the error is 0.80
        signal = skewed_specimen()
        spectrum = lp.recover(lp.measure(signal, window, grid, method=method),
                              window)
        grid_pts = lp.default_grid()
        assert lp.aligned_relative_error(lp.synthesize(spectrum, grid_pts),
                                         signal) <= bound
        unphased = lp.RecoveredSpectrum(np.abs(spectrum.f_hat),
                                        spectrum.diagnostics)
        assert lp.aligned_relative_error(lp.synthesize(unphased, grid_pts),
                                         signal) > 0.5

    def test_zero_measurements(self, grid, window):
        data = lp.SpectrogramData(np.zeros(671), grid, provenance="series")
        spectrum = lp.recover(data, window)
        assert np.all(spectrum.f_hat == 0)
        assert spectrum.diagnostics.eigen_gap is None

    def test_scale_equivariance(self, b_series, window):
        data = b_series["gaussian"]
        c = 4.0
        scaled = lp.SpectrogramData(c ** 2 * data.values, data.grid,
                                    provenance="series")
        base = lp.recover(data, window)
        boosted = lp.recover(scaled, window)
        assert np.allclose(np.abs(boosted.f_hat), c * np.abs(base.f_hat),
                           atol=1e-8 * np.max(np.abs(base.f_hat)))
        mask = np.abs(base.f_hat) > 1e-6 * np.max(np.abs(base.f_hat))
        phase_base = base.f_hat[mask] / np.abs(base.f_hat[mask])
        phase_boost = boosted.f_hat[mask] / np.abs(boosted.f_hat[mask])
        assert np.allclose(phase_base, phase_boost, atol=1e-8)

    def test_gauge_invariance_of_aligned_error(self, b_quad, b_quad_rotated,
                                               window, gaussian):
        base = lp.recover(b_quad["gaussian"], window)
        rotated = lp.recover(b_quad_rotated, window)
        grid_pts = lp.default_grid()
        err_base = lp.aligned_relative_error(lp.synthesize(base, grid_pts),
                                             gaussian)
        err_rot = lp.aligned_relative_error(lp.synthesize(rotated, grid_pts),
                                            gaussian)
        assert abs(err_base - err_rot) <= 1e-8

    def test_spectrum_matches_truth_up_to_phase(self, b_quad, window, gaussian,
                                                grid):
        spectrum = lp.recover(b_quad["gaussian"], window)
        truth = gaussian.fourier(grid.frequencies)
        aligned = align_phase(spectrum.f_hat, truth)
        assert np.linalg.norm(aligned - truth) / np.linalg.norm(truth) <= 5e-3

    def test_refinement_disabled_still_recovers(self, b_series, window,
                                                gaussian):
        # the unrefined pipeline, built from the public parts: the
        # minimum-norm solution synchronized as it is
        data = b_series["gaussian"]
        f, _ = lp.solve_band(lp.cached_system(window, data.grid), data)
        spectrum = lp.angular_synchronize(f)
        grid_pts = lp.default_grid()
        err = lp.aligned_relative_error(lp.synthesize(spectrum, grid_pts),
                                        gaussian)
        assert err <= 5e-3

    def test_noise_monotonicity_smoke(self, b_series, window, gaussian, grid):
        medians = []
        grid_pts = lp.default_grid()
        clean = b_series["gaussian"].values
        for level in (0.0, 1e-3, 1e-2):
            errs = []
            for seed in range(10):
                rng = np.random.default_rng(seed)
                eps = rng.uniform(-level, level, clean.size) if level else 0.0
                noisy = lp.SpectrogramData(np.maximum(clean * (1 + eps), 0.0),
                                           grid, provenance="series")
                spectrum = lp.recover(noisy, window)
                errs.append(lp.aligned_relative_error(
                    lp.synthesize(spectrum, grid_pts), gaussian))
            medians.append(np.median(errs))
        assert medians[0] <= medians[1] <= medians[2]

    def test_power_of_two_scaling_is_exact(self, b_series, window):
        data = b_series["modulated"]
        scaled = lp.SpectrogramData(data.values * 2.0 ** 600, data.grid,
                                    provenance="series")
        base = lp.recover(data, window)
        assert np.array_equal(lp.recover(scaled, window).f_hat,
                              2.0 ** 300 * base.f_hat)

    def test_near_degenerate_second_eigenvalue(self, grid, window, gaussian):
        # a noisy draw whose phase matrix has lambda_2 = 7.3945 and
        # lambda_3 = 7.3719: a deflated power iteration for lambda_2 needs
        # about 68k iterations there, so the eigen-gap comes from a dense
        # eigensolve
        data = lp.measure(gaussian, window, grid, method="series",
                          noise=lp.NoiseSpec(3451414211, 1e-3))
        spectrum = lp.recover(data, window, cfg=lp.RecoveryConfig(rank_tol=1e-2))
        err = lp.aligned_relative_error(
            lp.synthesize(spectrum, lp.default_grid()), gaussian)
        assert err <= 5e-2
        assert spectrum.diagnostics.eigen_gap > 1.0

    @pytest.mark.parametrize("name", ["gaussian", "modulated"])
    def test_cutoff_follows_the_noise_level(self, grid, window, name):
        # without a cfg, recover truncates at max(1e-10, 10 * level): the
        # same numbers, bit for bit, as a caller that passes that cutoff
        signal = lp.get_signal(name)
        for level in (0.0, 1e-4, 1e-3):
            data = lp.measure(signal, window, grid, method="series",
                              noise=lp.NoiseSpec(7, level))
            cfg = lp.RecoveryConfig(rank_tol=max(1e-10, 10 * level))
            assert np.array_equal(lp.recover(data, window).f_hat,
                                  lp.recover(data, window, cfg=cfg).f_hat)

    def test_derived_cutoff(self, b_series):
        from dataclasses import replace
        data = b_series["gaussian"]
        assert lp.RecoveryConfig.for_data(data).rank_tol == 1e-10
        for level, rank_tol in ((0.0, 1e-10), (1e-4, 1e-3), (0.01, 0.1),
                                (2.0, 0.1), (8e307, 0.1)):
            noisy = replace(data, noise=lp.NoiseSpec(0, level))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert lp.RecoveryConfig.for_data(noisy).rank_tol == rank_tol

    def test_config_validation(self):
        # a relative cutoff of 1 or more keeps no singular value
        for rank_tol in (0.0, 1.0, 1.7e308, float("nan")):
            with pytest.raises(ConfigError, match="rank_tol"):
                lp.RecoveryConfig(rank_tol=rank_tol)

    def test_recover_checks_the_budget_before_building(self, window, gaussian,
                                                       monkeypatch):
        # the library path, too, refuses a lifted matrix past the budget
        # before it builds any row of it
        def forbidden(*args):
            raise AssertionError("a matrix past the budget was built")

        grid = lp.half_integer_grid(21, 3, 0.1, 2)
        data = lp.measure(gaussian, window, grid, method="series")
        monkeypatch.setattr(recovery, "_system_cache", {})
        monkeypatch.setattr(lp.LiftedSystem, "_block", forbidden)
        monkeypatch.setattr(lifting, "MATRIX_BUDGET", 8 * 3 * 21 * 21)
        with pytest.raises(ConfigError, match="lifted matrix"):
            lp.recover(data, window)

    @pytest.mark.parametrize("make_window, level, rank_tol", [
        (lambda: lp.get_window("gaussian"), 0.0, None),
        (lambda: lp.get_window("gaussian"), 1e-3, 1e-2),
        (tilted_window, 0.0, None),
    ], ids=["clean", "noisy", "tilted"])
    def test_recover_never_builds_the_matrix(self, grid, gaussian, make_window,
                                             level, rank_tol, monkeypatch):
        # the solve and the refinement run on the held block factors, from
        # a cold factorization on
        window = make_window()
        data = lp.measure(gaussian, window, grid, method="series",
                          noise=lp.NoiseSpec(5, level) if level else None)
        cfg = lp.RecoveryConfig(rank_tol) if rank_tol else None
        expected = lp.recover(data, window, cfg).f_hat

        def forbidden(self):
            raise AssertionError("recover built the dense matrix")

        monkeypatch.setattr(recovery, "_system_cache", {})
        monkeypatch.setattr(lp.LiftedSystem, "matrix", property(forbidden))
        got = lp.recover(data, window, cfg).f_hat
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_warm_recover_applies_forward_once(self, b_series, window,
                                               monkeypatch):
        # the solve's residual is the only full forward; the refinement
        # reads the images of its top eigenvectors
        calls, real_forward = [], lp.LiftedSystem.forward

        def counting(self, dense):
            calls.append(dense.shape)
            return real_forward(self, dense)

        lp.cached_system(window, b_series["modulated"].grid).factorization
        monkeypatch.setattr(lp.LiftedSystem, "forward", counting)
        spectrum = lp.recover(b_series["modulated"], window)
        assert spectrum.diagnostics.refine_sweeps == 30
        assert calls == [(61, 61)]

    def test_system_cache_shares_instances(self, window, grid):
        # the grid is its own key: equal grids share, unequal ones do not
        system = lp.cached_system(window, grid)
        assert lp.cached_system(window, grid) is system
        assert lp.cached_system(window, lp.paper_grid()) is system
        assert lp.cached_system(
            window, lp.half_integer_grid(21, 7, 0.5 / 7, 3)) is not system

    def test_concurrent_recoveries_factor_a_new_system_once(
            self, b_series, window, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor
        from liftphase import lifting, recovery

        calls = []
        real_svd = lifting.thin_svd

        def slow_counting_svd(a):
            calls.append(a.shape)
            time.sleep(0.2)  # holds the race window open
            return real_svd(a)

        monkeypatch.setattr(recovery, "_system_cache", {})
        monkeypatch.setattr(lifting, "thin_svd", slow_counting_svd)
        workers = 4
        start = threading.Barrier(workers)

        def run():
            start.wait(timeout=30)
            return lp.recover(b_series["gaussian"], window)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run) for _ in range(workers)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        # one call per symmetry block of the paper-grid matrix
        assert calls == [(186, 689), (180, 674), (155, 658), (150, 644)]
        # concurrent BLAS calls may split sums differently: compare to 1e-9
        scale = np.linalg.norm(results[0].f_hat)
        assert all(np.linalg.norm(r.f_hat - results[0].f_hat) <= 1e-9 * scale
                   for r in results)


class TestSpectrumSerialization:
    def test_round_trip(self, small_setup):
        grid, system = small_setup
        vec = random_lattice_vector(grid.n_frequencies,
                                    np.random.default_rng(4))
        spectrum = lp.angular_synchronize(rank_one_banded(vec, system.band))
        doc = json.loads(json.dumps(spectrum.to_dict()))
        f_hat = np.array([complex(re, im) for re, im in doc["f_hat"]])
        assert np.array_equal(f_hat, spectrum.f_hat)
        assert np.array_equal(doc["frequencies"], spectrum.frequencies)
        assert np.array_equal(spectrum.frequencies, grid.frequencies)
        assert doc["diagnostics"]["eigen_gap"] == spectrum.diagnostics.eigen_gap

    def test_zero_spectrum_serializes_null_gap(self, grid, window):
        data = lp.SpectrogramData(np.zeros(671), grid, provenance="series")
        doc = lp.recover(data, window).to_dict()
        assert doc["diagnostics"]["eigen_gap"] is None
