#!/usr/bin/env python3
"""Inspect the lifted linear system: its closed form as shift phases times
window kernels, the real measurement matrix over the real coordinates of
the band, the four symmetry blocks its SVD is taken in (only their factors
are held), its rank, and its forward image, taken from the closed form
without the matrix, against the matrix and the series measurements.

The quadratic measurements are linear in the outer product of the unknown
Fourier samples; each measurement row reads a small window of that matrix,
so only a band of it is observable.  A row depends on its shift only
through the phase exp(i pi l d) on band diagonal d, times a kernel c_d
that depends only on the window: A = (Phi ⊗ I_N) blockdiag_d(H_d).
"""

import numpy as np

import liftphase as lp

window = lp.get_window("gaussian")
grid = lp.paper_grid()
system = lp.assemble_system(window, grid)

print("== closed form: shift phases x window kernels ==")
# Phi = [1 | cos(pi l d) | sin(pi l d)], d = 1..4*delta: K x (8*delta + 1)
phi = np.hstack([system.phases.real, system.phases.imag[:, 1:]])
s_phi = np.linalg.svd(phi, compute_uv=False)
print(f"Phi {phi.shape}: s_min/s_1 = {s_phi[-1] / s_phi[0]:.3f}")
decay = np.abs(system.kernels).max(axis=1)
decay /= decay[0]
print("kernel decay max|c_d|/max|c_0|: " + ", ".join(
    f"d={d}: {decay[d]:.2g}" for d in range(0, system.band + 1, grid.delta)))
print(f"structured state before materialization: "
      f"{system.phases.size + system.kernels.size} complex numbers")

print("\n== assembled system ==")
print(f"band half-width of the unknown: {system.band} (= 4*delta)")
n, w = grid.n_frequencies, system.band
print(f"in-band unknowns: {system.n_unknowns} "
      f"(formula N*(2w+1) - w*(w+1) = {n * (2 * w + 1) - w * (w + 1)})")
print(f"measurements: {system.n_measurements} (= N*K)")

print("\n== singular spectrum ==")
# the kernels of the even window are real, so the sums and differences of
# the rows of +l and -l split the matrix into two blocks (cos and sin
# columns of Phi); the kernels are also symmetric under the frequency
# reflection r -> N-1-r, which splits each of those in two again.  The
# blocks' thin SVDs are kept apart: together they are the whole matrix's.
# Each block is held as its row and column maps and its factors only.
eps = np.finfo(float).eps
imaginary = np.abs(system.kernels.imag).max() / np.abs(system.kernels).max()
print(f"max|Im c|/max|c| = {imaginary:.1e}")
blocks = system.factorization
print(f"{len(blocks)} symmetry blocks: "
      + ", ".join(f"{b.u.shape[0]} x {b.vh.shape[1]}" for b in blocks)
      + f"; maps and factors {sum(b.nbytes for b in blocks) / 1e6:.1f} MB")
s = np.sort(np.concatenate([block.s for block in blocks]))[::-1]
print(f"s_1 = {s[0]:.3e}, s_671 = {s[-1]:.3e} (ratio {s[-1] / s[0]:.2e})")
print(f"rank at relative tolerance 1e-10: {int((s > 1e-10 * s[0]).sum())} "
      f"of {s.size} singular values (full row rank)")
print(f"margin of s_671 over the numerical-zero scale eps*s_1: "
      f"{s[-1] / (eps * s[0]):.2e}")

print("\n== lifted operator on the true outer product ==")
truth = lp.get_signal("gaussian").fourier(grid.frequencies)
outer = np.outer(truth, truth.conj())
# forward applies A = Re(conj(Phi) (w_d q_d)) from the phases and kernels
lifted = system.forward(outer)
dense = system.matrix @ system.pack(outer)
print(f"real matrix {system.matrix.shape}, {system.matrix.nbytes / 1e6:.1f} MB, "
      f"built here only to check forward")
print(f"forward(F) vs matrix @ pack(F), max abs / max: "
      f"{np.abs(lifted - dense).max() / np.abs(dense).max():.1e}")

series = lp.measure(lp.get_signal("gaussian"), window, grid,
                    method="series").values
print(f"forward(F) vs series measurements, rel l2: "
      f"{np.linalg.norm(lifted - series) / np.linalg.norm(series):.3e}")
