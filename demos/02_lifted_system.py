#!/usr/bin/env python3
"""Inspect the lifted linear system: banded Toeplitz blocks, the real
measurement matrix over the real coordinates of the band, the two
shift-parity blocks its SVD is taken in, its rank, and its agreement with
the series measurements.

The quadratic measurements are linear in the outer product of the unknown
Fourier samples; each measurement row reads a small window of that matrix,
so only a band of it is observable and the dense matrix is tall-thin-rank
limited by the number of measurements.
"""

import numpy as np

import liftphase as lp

window = lp.get_window("gaussian")
grid = lp.paper_grid()

print("== shift vectors and Toeplitz blocks ==")
sv = lp.shift_vector(window, grid.shifts[0], grid.delta)
print(f"shift vector length {sv.size} (= 4*delta + 1)")
block = lp.toeplitz_block(sv, grid.n_frequencies)
nonzero_diags = sum(1 for d in range(-60, 61)
                    if np.any(np.diagonal(block, d) != 0))
print(f"Toeplitz block {block.shape}, {nonzero_diags} nonzero diagonals")

print("\n== assembled system ==")
system = lp.assemble_system(window, grid)
print(f"band half-width of the unknown: {system.band} (= 4*delta)")
n, w = grid.n_frequencies, system.band
print(f"in-band unknowns: {system.n_unknowns} "
      f"(formula N*(2w+1) - w*(w+1) = {n * (2 * w + 1) - w * (w + 1)})")
print(f"measurements: {system.n_measurements} (= N*K)")
print(f"structured state before materialization: "
      f"{sum(s.size for s in system.shift_vectors)} complex numbers")

print("\n== singular spectrum ==")
# the rows of +l and -l, summed and differenced, split the matrix into two
# blocks whose thin SVDs give the whole matrix's
shapes = [(len(recipe) * n, system.matrix[:, columns].shape[1])
          for recipe, columns in system.parity_blocks()]
print(f"factored as {len(shapes)} shift-parity blocks: "
      + " and ".join(f"{r} x {c}" for r, c in shapes))
_, s, _ = system.factorization
eps = np.finfo(float).eps
print(f"s_1 = {s[0]:.3e}, s_671 = {s[-1]:.3e} (ratio {s[-1] / s[0]:.2e})")
print(f"rank at relative tolerance 1e-10: {int((s > 1e-10 * s[0]).sum())} "
      f"of {s.size} singular values (full row rank)")
print(f"margin of s_671 over the numerical-zero scale eps*s_1: "
      f"{s[-1] / (eps * s[0]):.2e}")

print("\n== lifted operator on the true outer product ==")
truth = lp.fourier_samples(lp.get_signal("gaussian"), grid.frequencies)
lifted = system.matrix @ system.pack(np.outer(truth, truth.conj()))
print(f"real matrix {system.matrix.shape}, {system.matrix.nbytes / 1e6:.1f} MB")

series = lp.measure(lp.get_signal("gaussian"), window, grid,
                    method="series").values
print(f"matrix @ pack(F) vs series measurements, rel l2: "
      f"{np.linalg.norm(lifted - series) / np.linalg.norm(series):.3e}")
