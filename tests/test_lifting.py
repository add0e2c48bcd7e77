import tracemalloc

import numpy as np
import pytest

import liftphase as lp
from liftphase.exceptions import DimensionError, GridError

from conftest import (BandWindows, OperationCounter, chirped_window,
                      dense_column_oracle, forward_lifted,
                      merged_factorization, random_banded_hermitian,
                      rank_one_banded, shift_vector, skewed_specimen,
                      tilted_window, toeplitz_block)


def lifted(system, f):
    """The pipeline's lifted operator applied to a Hermitian array."""
    return system.matrix @ system.pack(f)


class TestShiftVector:
    """The shift-vector oracle, and the closed form's phases and kernels
    against it."""

    def test_zero_shift_is_plain_transform(self, window):
        # twice-index t reads the window transform at -t/2 (the series
        # term for lattice point w + t/2 carries ghat(w - m/2))
        sv = shift_vector(window, 0.0, 3)
        expected = np.array([window.fourier(-t / 2.0) for t in range(-6, 7)])
        assert np.array_equal(sv, expected)

    def test_magnitudes_independent_of_shift(self, window):
        a = shift_vector(window, 0.0, 5)
        b = shift_vector(window, 0.21, 5)
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-15)

    def test_entry_formula(self, window):
        shift = 0.5 / 11.0
        sv = shift_vector(window, shift, 7)
        # twice-index 1 is stored at 1 + 2*delta and reads ghat(-1/2)
        expected = np.exp(1j * np.pi * shift) * window.fourier(-0.5)
        assert sv[1 + 14] == pytest.approx(expected, abs=1e-15)
        # twice-indices beyond 2*delta are not stored
        assert sv.shape == (29,)

    @pytest.mark.parametrize("make_window", [
        lambda: lp.get_window("gaussian"), tilted_window, chirped_window],
        ids=["gaussian", "tilted", "chirped"])
    def test_closed_form_is_the_outer_product(self, make_window):
        # phase d of shift k times kernel (d, t) is the entry (t, t + d) of
        # conj(v) vᵀ / 4 for the oracle shift vector v, and nothing lies
        # past the window's reach
        window = make_window()
        grid = lp.half_integer_grid(21, 5, 0.05, 3)
        system = lp.assemble_system(window, grid)
        width = 4 * grid.delta + 1
        assert not system.phases.flags.writeable
        assert not system.kernels.flags.writeable
        for k, shift in enumerate(grid.shifts):
            v = shift_vector(window, shift, grid.delta)
            outer = 0.25 * np.outer(np.conj(v), v)
            for d in range(width):
                got = system.phases[k, d] * system.kernels[d]
                want = np.concatenate([np.diagonal(outer, d), np.zeros(d)])
                assert np.max(np.abs(got - want)) <= 1e-15 * np.abs(outer).max()

    def test_shift_bound(self, window):
        frequencies = lp.half_integer_grid(21, 1, 0.1, 3).frequencies
        with pytest.raises(GridError):
            lp.assemble_system(window, lp.MeasurementGrid((0.6,), frequencies, 3))


class TestToeplitzBlock:
    """The dense Toeplitz oracle behind :func:`dense_column_oracle`."""

    def test_zero_vector(self):
        assert np.all(toeplitz_block(np.zeros(5, dtype=complex), 6) == 0)

    def test_explicit_five_by_five_layout(self):
        m = np.array([10, 20, 30, 40, 50], dtype=complex)  # twice-index -2..2
        block = toeplitz_block(m, 5)
        # middle row carries the full reversed-window read-out
        assert np.array_equal(block[2], np.array([10, 20, 30, 40, 50]))
        assert np.array_equal(block[0], np.array([30, 40, 50, 0, 0]))
        assert np.array_equal(block[4], np.array([0, 0, 10, 20, 30]))

    def test_paper_scale_toeplitz_property(self, window):
        sv = shift_vector(window, 0.1, 7)
        block = toeplitz_block(sv, 61)
        assert block.shape == (61, 61)
        nonzero_diags = sum(
            1 for d in range(-60, 61) if np.any(np.diagonal(block, d) != 0))
        assert nonzero_diags == 29
        for i, j in [(0, 5), (10, 20), (40, 31)]:
            assert block[i, j] == block[i + 1, j + 1]

    def test_too_small(self, window):
        sv = shift_vector(window, 0.0, 7)
        with pytest.raises(DimensionError):
            toeplitz_block(sv, 28)


class TestBandCoordinates:
    def test_count_formula_matches_enumeration(self, window):
        # one real coordinate per in-band entry |i - j| <= 4*delta
        for n, delta in [(5, 1), (9, 2), (21, 3), (29, 7), (61, 7)]:
            system = lp.assemble_system(window, lp.half_integer_grid(n, 1, 0.1,
                                                                     delta))
            count = sum(1 for i in range(n) for j in range(n)
                        if abs(i - j) <= 4 * delta)
            assert system.n_unknowns == count

    def test_paper_scale_counts(self, paper_system):
        # the working band 4*delta: N(8d+1) - 4d(4d+1)
        assert paper_system.n_unknowns == 61 * 57 - 28 * 29 == 2665


class TestAssembleSystem:
    @staticmethod
    def _check_against_oracle(window, grid, draws):
        # the real matrix applied to the real coordinates of F gives what
        # the complex entry-coordinate oracle gives applied to F's entries
        system = lp.assemble_system(window, grid)
        oracle, rows, cols = dense_column_oracle(window, grid, system.band)
        assert system.matrix.dtype == np.float64
        assert system.matrix.shape == oracle.shape
        rng = np.random.default_rng(5)
        for _ in range(draws):
            f = random_banded_hermitian(grid.n_frequencies, system.band, rng)
            expected = oracle @ f[rows, cols]
            got = lifted(system, f)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_columns_match_dense_basis_oracle_tiny(self, window):
        # more draws than unknowns, so the draws span the coordinate space
        grid = lp.half_integer_grid(5, 1, 0.1, 1)
        self._check_against_oracle(window, grid, 40)

    def test_columns_match_dense_basis_oracle_small(self, window):
        grid = lp.half_integer_grid(9, 3, 0.07, 2)
        assert lp.assemble_system(window, grid).n_unknowns == 81
        self._check_against_oracle(window, grid, 120)

    @pytest.mark.parametrize("make_window", [tilted_window, chirped_window],
                             ids=["tilted", "chirped"])
    @pytest.mark.parametrize("shifts", [
        (-0.14, -0.07, 0.0, 0.07, 0.14),
        (-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4),
        (0.05,),
    ], ids=["symmetric", "asymmetric", "one-shift"])
    def test_columns_match_dense_basis_oracle_non_even(self, make_window,
                                                       shifts):
        # complex kernels (tilted) and real kernels with a complex window
        # (chirped), on shift sets that do and do not pair
        frequencies = lp.half_integer_grid(9, 1, 0.1, 2).frequencies
        grid = lp.MeasurementGrid(shifts, frequencies, 2)
        self._check_against_oracle(make_window(), grid, 120)

    def test_singular_values_and_rank_match_oracle(self, small_setup, window):
        # real and entry coordinates differ by a unitary change of basis
        grid, system = small_setup
        oracle, _, _ = dense_column_oracle(window, grid, system.band)
        s_oracle = np.linalg.svd(oracle, compute_uv=False)
        _, s, _ = merged_factorization(system)
        assert np.max(np.abs(s - s_oracle)) <= 1e-13 * s_oracle[0]
        # the solve's cutoff is relative to the largest singular value of
        # all blocks, not to each block's own
        data = lp.SpectrogramData(np.ones(system.n_measurements), grid,
                                  provenance="series")
        for rank_tol in (1e-10, 1e-2):
            _, diagnostics = lp.solve_band(system, data,
                                           lp.RecoveryConfig(rank_tol))
            assert diagnostics.rank == int(
                (s_oracle > rank_tol * s_oracle[0]).sum())

    def test_paper_dimensions(self, paper_system):
        assert paper_system.matrix.shape == (671, 2665)
        assert paper_system.matrix.dtype == np.float64
        assert paper_system.band == 28
        assert paper_system.n_measurements == 671

    def test_lazy_materialization_and_structured_memory(self, window,
                                                        monkeypatch):
        # assembly transforms the window once and keeps only the shift
        # phases and the window kernels; the matrix waits for first use
        sizes = []
        fourier = lp.Window.fourier

        def counting(self, freq):
            sizes.append(np.size(freq))
            return fourier(self, freq)

        grid = lp.half_integer_grid(21, 5, 0.05, 3)
        with monkeypatch.context() as patch:
            patch.setattr(lp.Window, "fourier", counting)
            system = lp.assemble_system(window, grid)
        width = 4 * grid.delta + 1
        assert sizes == [width]
        stored = {name: value.shape for name, value in vars(system).items()
                  if isinstance(value, np.ndarray)}
        # forward's gather of the padded band diagonals is the third; the
        # rank-one image's taps and its gather of each row's window the
        # fourth and fifth
        assert stored == {"phases": (grid.n_shifts, width),
                          "kernels": (width, width),
                          "_diagonals": (width, grid.n_frequencies + width - 1),
                          "_taps": (width, grid.n_shifts),
                          "_windows": (grid.n_frequencies, width)}
        assert system.matrix.shape == (system.n_measurements, system.n_unknowns)

    def test_pack_unpack_round_trip(self, small_setup):
        grid, system = small_setup
        rng = np.random.default_rng(0)
        f = random_banded_hermitian(grid.n_frequencies, system.band, rng)
        back = system.unpack(system.pack(f))
        assert np.allclose(back, f, atol=1e-15)
        assert np.array_equal(back, back.conj().T)
        assert np.array_equal(system.restrict(f), f)

    def test_pack_is_an_isometry(self, small_setup):
        # the dot product of two coordinate vectors is the Frobenius inner
        # product of the two Hermitian matrices
        grid, system = small_setup
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_banded_hermitian(grid.n_frequencies, system.band, rng)
            g = random_banded_hermitian(grid.n_frequencies, system.band, rng)
            x, y = system.pack(f), system.pack(g)
            frobenius = np.vdot(f, g)
            assert x.dtype == np.float64 and x.shape == (system.n_unknowns,)
            assert np.dot(x, y) == pytest.approx(frobenius.real, rel=1e-13)
            assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(f),
                                                      rel=1e-13)


def check_against_dense_svd(system):
    """The cached factorization, merged by the test oracle, against
    LAPACK's SVD of the whole matrix."""
    a = system.matrix
    u, s, vh = merged_factorization(system)
    s_oracle = np.linalg.svd(a, compute_uv=False)
    scale = s_oracle[0]
    assert s.shape == s_oracle.shape
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs(s - s_oracle)) <= 1e-13 * scale
    assert np.max(np.abs((u * s) @ vh - a)) <= 1e-13 * scale
    eye = np.eye(s.size)
    assert np.max(np.abs(u.T @ u - eye)) <= 1e-13
    assert np.max(np.abs(vh @ vh.T - eye)) <= 1e-13
    assert all(block.u.flags.c_contiguous and block.vh.flags.c_contiguous
               for block in system.factorization)
    return s


def factored_shapes(window, grid, monkeypatch):
    """Factor a new system with ``.matrix`` unreadable, check the factors
    against the dense SVD, and return the shapes ``thin_svd`` received."""
    from liftphase import lifting

    shapes = []
    real_svd = lifting.thin_svd

    def recording_svd(a):
        shapes.append(a.shape)
        return real_svd(a)

    def forbidden(self):
        raise AssertionError("the factorization read the matrix")

    system = lp.assemble_system(window, grid)
    with monkeypatch.context() as patch:
        patch.setattr(lifting, "thin_svd", recording_svd)
        patch.setattr(lp.LiftedSystem, "matrix", property(forbidden))
        system.factorization
    check_against_dense_svd(system)
    return system, shapes


class TestFactorization:
    """The symmetry blocks of the factorization: together the same thin SVD
    as the whole matrix's, from four blocks (shift parity times frequency
    reflection) when the input allows both splits, from two when it allows
    one and from one otherwise, built without reading the matrix."""

    def test_paper_grid_matches_dense_svd(self, paper_system):
        s = check_against_dense_svd(paper_system)
        assert int((s > 1e-10 * s[0]).sum()) == 671
        assert s[-1] / s[0] == pytest.approx(9.608e-9, rel=1e-3)
        assert [(block.u.shape[0], block.vh.shape[1])
                for block in paper_system.factorization] \
            == [(186, 689), (180, 674), (155, 658), (150, 644)]

    def test_ladder_grid_matches_dense_svd(self, window, monkeypatch):
        # the (101, 15) grid of the benchmark's series ladder
        grid = lp.half_integer_grid(101, 15, 1.0 / 30.0, 7)
        _, shapes = factored_shapes(window, grid, monkeypatch)
        assert shapes == [(408, 1269), (400, 1254), (357, 1218), (350, 1204)]

    @pytest.mark.parametrize("make_window, blocks", [
        (lambda: lp.get_window("gaussian"),
         [(44, 101), (40, 94), (33, 90), (30, 84)]),
        # a complex window whose transform is real still splits by parity,
        # but its kernels are not symmetric under the reflection
        (chirped_window, [(84, 195), (63, 174)]),
        # a real window that is not even has a complex transform, and its
        # kernels keep the reflection symmetry
        (tilted_window, [(77, 191), (70, 178)]),
    ], ids=["gaussian", "chirped", "tilted"])
    def test_window_selects_the_path(self, make_window, blocks, monkeypatch):
        grid = lp.half_integer_grid(21, 7, 0.5 / 7.0, 3)
        _, shapes = factored_shapes(make_window(), grid, monkeypatch)
        assert shapes == blocks

    @pytest.mark.parametrize("shifts, delta, blocks", [
        # the reflection keeps the shifts, so it splits any shift set
        ((-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4), 3, [(77, 191), (70, 178)]),
        ((0.0,), 3, [(11, 191), (10, 178)]),
        ((-0.15, -0.05, 0.05, 0.15), 3,
         [(22, 101), (20, 94), (22, 90), (20, 84)]),
        # parity blocks of 84 x 95 and 84 x 74 would give 84 + 74 triplets,
        # and reflection blocks of 88 x 87 and 80 x 82 would give 87 + 80,
        # fewer than the whole 168 x 169 matrix's 168
        (lp.half_integer_grid(21, 8, 0.04, 1).shifts, 1, [(168, 169)]),
    ], ids=["asymmetric", "one-shift", "even-K", "wide-beside-tall"])
    def test_shifts_select_the_path(self, window, shifts, delta, blocks,
                                    monkeypatch):
        frequencies = lp.half_integer_grid(21, 1, 0.1, 3).frequencies
        grid = lp.MeasurementGrid(shifts, frequencies, delta)
        _, shapes = factored_shapes(window, grid, monkeypatch)
        assert shapes == blocks

    def test_identical_zero_shifts_keep_rank(self, grid, window, monkeypatch):
        # the pairs' difference rows vanish: the odd blocks are zero
        zeros = lp.MeasurementGrid((0.0,) * 11, grid.frequencies, grid.delta)
        system, shapes = factored_shapes(window, zeros, monkeypatch)
        assert shapes == [(186, 689), (180, 674), (155, 658), (150, 644)]
        _, s, _ = merged_factorization(system)
        assert int((s > 1e-10 * s[0]).sum()) == 61

    def test_blocks_hold_only_maps_and_factors(self, window):
        # a cold factorization of the paper grid keeps no block matrix, and
        # its tracemalloc peak stays below the 13.9 MB that building and
        # holding the block matrices took
        system = lp.assemble_system(window, lp.paper_grid())
        tracemalloc.start()
        try:
            blocks = system.factorization
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9e6
        for block in blocks:
            assert not hasattr(block, "matrix")
            assert block.nbytes == sum(part.nbytes for part in (
                block.shifts, block.frequencies, block.pairs, block.weights,
                block.u, block.s, block.vh))


class TestStructuredForward:
    """``LiftedSystem.forward`` against the dense matrix: the image of a
    Hermitian band from the phases and the kernels alone, on inputs that
    take every path of the symmetry split."""

    @pytest.mark.parametrize("make_window", [
        lambda: lp.get_window("gaussian"), chirped_window, tilted_window],
        ids=["gaussian", "chirped", "tilted"])
    @pytest.mark.parametrize("shifts", [
        None, (-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4), (0.0,)],
        ids=["paper", "asymmetric", "one-shift"])
    def test_matches_the_matrix(self, make_window, shifts):
        grid = lp.paper_grid() if shifts is None else lp.MeasurementGrid(
            shifts, lp.half_integer_grid(21, 1, 0.1, 3).frequencies, 3)
        system = lp.assemble_system(make_window(), grid)
        n = grid.n_frequencies
        rng = np.random.default_rng(n + len(grid.shifts))
        f = random_banded_hermitian(n, system.band, rng)
        b = system.matrix @ system.pack(f)
        image = system.forward(f)
        assert image.shape == b.shape
        assert np.max(np.abs(image - b)) <= 1e-14 * np.max(np.abs(b))
        # entries outside the band are not read
        junk = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        outside = np.triu(junk, system.band + 1) + np.tril(junk, -system.band - 1)
        assert np.array_equal(system.forward(f + outside), image)


class TestRankOneImage:
    """``LiftedSystem.image`` against ``forward``: the image of a rank-one
    ``w wᴴ`` is ``|W_w B|²``, and the image of the change ``w wᴴ - z zᴴ``
    is ``Re(W_d B conj(W_s B))`` with ``d = w - z`` and ``s = w + z``."""

    @pytest.mark.parametrize("make_window", [
        lambda: lp.get_window("gaussian"), chirped_window, tilted_window],
        ids=["gaussian", "chirped", "tilted"])
    @pytest.mark.parametrize("shifts", [
        None, (-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4), (0.0,)],
        ids=["paper", "asymmetric", "one-shift"])
    def test_matches_forward(self, make_window, shifts):
        grid = lp.paper_grid() if shifts is None else lp.MeasurementGrid(
            shifts, lp.half_integer_grid(21, 1, 0.1, 3).frequencies, 3)
        system = lp.assemble_system(make_window(), grid)
        n = grid.n_frequencies
        rng = np.random.default_rng(7 * n + len(grid.shifts))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = np.exp(2j * np.pi * rng.uniform()) * (
            w + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        b = system.forward(np.outer(w, np.conj(w)))
        image, change, total = system.image(np.stack([w, w - z, w + z]))
        assert image.shape == b.shape
        assert np.max(np.abs(np.abs(image) ** 2 - b)) \
            <= 1e-14 * np.max(np.abs(b))
        step = system.forward(np.outer(w, np.conj(w)) - np.outer(z, np.conj(z)))
        assert np.max(np.abs((change * np.conj(total)).real - step)) \
            <= 1e-14 * np.max(np.abs(b))


class TestForwardLifted:
    """The lifted operator ``matrix @ pack(F)`` against the model, and
    against the row-by-row oracle of criteria 5 and 8."""

    def test_zero_matrix(self, small_setup):
        grid, system = small_setup
        f = np.zeros((grid.n_frequencies, grid.n_frequencies), dtype=complex)
        assert np.all(lifted(system, f) == 0)

    def test_flattening_consistency(self, small_setup, window):
        grid, system = small_setup
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = random_banded_hermitian(grid.n_frequencies, system.band, rng)
            structured = forward_lifted(system, window,
                                        BandWindows(f, system.band))
            flat = lifted(system, f)
            scale = np.linalg.norm(flat)
            assert np.linalg.norm(structured - flat) <= 1e-12 * scale

    def test_linearity(self, small_setup):
        grid, system = small_setup
        rng = np.random.default_rng(7)
        f1 = random_banded_hermitian(grid.n_frequencies, system.band, rng)
        f2 = random_banded_hermitian(grid.n_frequencies, system.band, rng)
        lhs = lifted(system, 1.5 * f1 - 0.25 * f2)
        rhs = 1.5 * lifted(system, f1) - 0.25 * lifted(system, f2)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(np.linalg.norm(rhs), 1.0))

    def test_true_rank_one_matches_series_paper_scale(self, paper_system, window,
                                                      gaussian, b_series):
        grid = paper_system.grid
        f_vec = gaussian.fourier(grid.frequencies)
        f = rank_one_banded(f_vec, paper_system.band)
        series = b_series["gaussian"].values
        assert np.linalg.norm(lifted(paper_system, f) - series) \
            / np.linalg.norm(series) <= 1e-10

    def test_off_center_shifts_match_quadrature(self, paper_system, window):
        # the specimen is complex and not even, so its spectrogram at shift -l
        # differs from the one at +l: the rows of the two outermost shifts
        # would be off by order one if the shift phase had the wrong sign
        grid = paper_system.grid
        signal = skewed_specimen()
        f = rank_one_banded(signal.fourier(grid.frequencies),
                            paper_system.band)
        image = lifted(paper_system, f)
        n = grid.n_frequencies
        for k in (0, grid.n_shifts - 1):
            quad = np.array([
                lp.spectrogram_quadrature(signal, window, grid.shifts[k], w)
                for w in grid.frequencies])
            row = image[k * n:(k + 1) * n]
            assert np.linalg.norm(row - quad) / np.linalg.norm(quad) <= 1e-4

    @pytest.mark.parametrize("make_window", [tilted_window, chirped_window],
                             ids=["tilted", "chirped"])
    def test_non_even_windows_match_quadrature(self, make_window, grid,
                                               modulated):
        # criterion 5's quadrature bound, for windows whose transform is not
        # even: a shift vector reading ghat(t/2) instead of ghat(-t/2) is off
        # by order one here
        window = make_window()
        system = lp.assemble_system(window, grid)
        f = rank_one_banded(modulated.fourier(grid.frequencies),
                            system.band)
        quad = lp.measure(modulated, window, grid, method="quadrature").values
        assert np.linalg.norm(lifted(system, f) - quad) / np.linalg.norm(quad) \
            <= 1e-4

    def test_true_rank_one_on_small_grid_clips_edges(self, small_setup, window,
                                                     gaussian):
        # a +-5 frequency span clips lattice terms the series still sums, so
        # agreement is limited by the signal's spectral mass beyond the grid
        grid, system = small_setup
        f_vec = gaussian.fourier(grid.frequencies)
        f = rank_one_banded(f_vec, system.band)
        series = lp.measure(gaussian, window, grid, method="series").values
        assert np.linalg.norm(lifted(system, f) - series) \
            / np.linalg.norm(series) <= 1e-3

    def test_global_phase_erased_by_rank_one_constructor(self, small_setup,
                                                         gaussian):
        grid, system = small_setup
        f_vec = gaussian.fourier(grid.frequencies)
        a = rank_one_banded(f_vec, system.band)
        b = rank_one_banded(np.exp(0.9j) * f_vec, system.band)
        assert np.allclose(a, b, atol=1e-15)

    def test_operation_count_bound(self, paper_system, window):
        n = paper_system.grid.n_frequencies
        k = paper_system.grid.n_shifts
        width = 4 * paper_system.grid.delta + 1
        f = BandWindows(np.eye(n, dtype=complex), paper_system.band)
        counter = OperationCounter()
        forward_lifted(paper_system, window, f, counter=counter)
        assert counter.multiplications <= 2 * k * n * width ** 2

    def test_never_materializes_dense(self, small_setup, window):
        # the oracle reads F only through windows of at most 4*delta + 1
        grid, system = small_setup
        widths = []

        class Recording(BandWindows):
            def window(self, center, radius):
                lo, block = super().window(center, radius)
                widths.append(block.shape[0])
                return lo, block

        f = Recording(np.eye(grid.n_frequencies, dtype=complex), system.band)
        out = forward_lifted(system, window, f)
        assert out.shape == (system.n_measurements,)
        assert max(widths) == 4 * grid.delta + 1 < grid.n_frequencies

    def test_dimension_checks(self, small_setup):
        grid, system = small_setup
        with pytest.raises(DimensionError):
            system.pack(np.eye(grid.n_frequencies - 1))
        with pytest.raises(DimensionError):
            system.unpack(np.zeros(system.n_unknowns + 1))
