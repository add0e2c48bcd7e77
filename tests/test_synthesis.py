import csv

import numpy as np
import pytest

import liftphase as lp
from liftphase.exceptions import GridError, ZeroSignal
from liftphase.recovery import RecoveredSpectrum, RecoveryDiagnostics


def make_spectrum(f_hat):
    return RecoveredSpectrum(np.asarray(f_hat, dtype=complex),
                             RecoveryDiagnostics(0.0, None, 0))


class TestSynthesize:
    def test_zero_spectrum(self):
        spectrum = make_spectrum(np.zeros(5))
        rec = lp.synthesize(spectrum, lp.default_grid())
        assert np.all(rec.values == 0)

    def test_single_constant_coefficient(self):
        spectrum = make_spectrum([0, 0, 2.0, 0, 0])
        rec = lp.synthesize(spectrum, np.linspace(-1, 1, 41))
        assert np.allclose(rec.values, 1.0, atol=1e-14)

    def test_ground_truth_synthesis_matches_signal(self, gaussian, grid):
        spectrum = make_spectrum(lp.fourier_samples(gaussian, grid.frequencies))
        rec = lp.synthesize(spectrum, lp.default_grid())
        truth = gaussian.evaluate(rec.points)
        err = np.linalg.norm(truth - rec.values) / np.linalg.norm(truth)
        assert err <= 1e-3

    def test_linearity(self, grid):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        b = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        pts = lp.default_grid()
        lhs = lp.synthesize(make_spectrum(2.0 * a - 0.5 * b), pts).values
        rhs = (2.0 * lp.synthesize(make_spectrum(a), pts).values
               - 0.5 * lp.synthesize(make_spectrum(b), pts).values)
        assert np.allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))

    def test_rejects_non_lattice_frequencies(self):
        # three samples have no half-integer lattice (4n + 1 points)
        spectrum = make_spectrum(np.ones(3))
        with pytest.raises(GridError):
            lp.synthesize(spectrum, lp.default_grid())

    def test_default_grid_shape(self):
        pts = lp.default_grid()
        assert pts.size == 82
        assert pts[0] == -1.0
        assert pts[1] - pts[0] == pytest.approx(1.0 / 40.96)

    def test_parseval_consistency(self, gaussian, grid):
        f_hat = lp.fourier_samples(gaussian, grid.frequencies)
        spectrum = make_spectrum(f_hat)
        pts = np.linspace(-1.0, 1.0, 4001)
        rec = lp.synthesize(spectrum, pts)
        h = pts[1] - pts[0]
        grid_energy = float(np.sum(np.abs(rec.values) ** 2) * h)
        coefficient_energy = 0.5 * float(np.sum(np.abs(f_hat) ** 2))
        assert grid_energy == pytest.approx(coefficient_energy, rel=0.01)


class TestAlignedError:
    def test_exact_samples(self, gaussian):
        pts = lp.default_grid()
        rec = lp.PhysicalReconstruction(pts, gaussian.evaluate(pts))
        assert lp.aligned_relative_error(rec, gaussian) == pytest.approx(0.0, abs=1e-14)

    def test_global_rotation_removed(self, gaussian):
        pts = lp.default_grid()
        rec = lp.PhysicalReconstruction(
            pts, np.exp(1j * np.pi / 3) * gaussian.evaluate(pts))
        assert lp.aligned_relative_error(rec, gaussian) <= 1e-12
        assert rec.alignment_phase == pytest.approx(-np.pi / 3, abs=1e-10)

    def test_unimodular_invariance(self, gaussian):
        pts = lp.default_grid()
        base_vals = gaussian.evaluate(pts) * (1.0 + 0.05j)
        base = lp.PhysicalReconstruction(pts, base_vals)
        rotated = lp.PhysicalReconstruction(pts, np.exp(0.83j) * base_vals)
        e1 = lp.aligned_relative_error(base, gaussian)
        e2 = lp.aligned_relative_error(rotated, gaussian)
        assert abs(e1 - e2) <= 1e-12

    def test_zero_reference(self):
        pts = np.linspace(-1, 1, 11)
        rec = lp.PhysicalReconstruction(pts, np.ones(11))
        with pytest.raises(ZeroSignal):
            lp.aligned_relative_error(rec, lp.get_signal("zero"))

    def test_grid_validation(self):
        with pytest.raises(GridError):
            lp.PhysicalReconstruction(np.array([0.5, 0.0]), np.zeros(2))
        with pytest.raises(GridError):
            lp.PhysicalReconstruction(np.array([0.5]), np.zeros(1))


class TestCsv:
    def test_columns_and_alignment(self, gaussian, tmp_path):
        pts = lp.default_grid()
        rec = lp.PhysicalReconstruction(
            pts, np.exp(1j * 0.4) * gaussian.evaluate(pts))
        path = tmp_path / "rec.csv"
        lp.write_reconstruction_csv(path, rec, gaussian)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "f_true_re", "f_true_im", "f_rec_re", "f_rec_im"]
        assert len(rows) == 83
        x = np.array([float(r[0]) for r in rows[1:]])
        rec_re = np.array([float(r[3]) for r in rows[1:]])
        true_re = np.array([float(r[1]) for r in rows[1:]])
        assert np.allclose(x, pts)
        # written reconstruction is already phase-aligned to the truth
        assert np.allclose(rec_re, true_re, atol=1e-10)
        # with no truth, the reconstruction is written alone and unrotated
        lp.write_reconstruction_csv(path, rec, None)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "f_rec_re", "f_rec_im"]
        written = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
        assert np.array_equal(written, rec.values)
