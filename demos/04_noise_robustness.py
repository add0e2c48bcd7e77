#!/usr/bin/env python3
"""Sweep the multiplicative noise level and watch the recovered error grow.

No robustness guarantee is claimed.  Noiseless data keep every singular
direction of the rank-deficient operator (rank cutoff 1e-10), but noise is
amplified through the smallest singular values, whose ratio to the largest
is about 1e-8.  So ``recover`` takes its cutoff from the noise level the
data declare, ``min(max(1e-10, 10 * level), 0.1)``, and this sweep prints
the cutoff it chose next to the errors.
"""

import numpy as np

import liftphase as lp

window = lp.get_window("gaussian")
grid = lp.paper_grid()
signal = lp.get_signal("gaussian")
points = lp.default_grid()

clean = lp.measure(signal, window, grid, method="series")

print(f"{'noise level':>12} {'rank tol':>10} {'median err':>12} "
      f"{'min err':>12} {'max err':>12}")
for level in (0.0, 1e-4, 1e-3, 1e-2):
    errors = []
    for seed in range(5):
        if level == 0.0:
            data = clean
        else:
            data = lp.measure(signal, window, grid, method="series",
                              noise=lp.NoiseSpec(seed=seed, level=level))
        spectrum = lp.recover(data, window)
        rec = lp.synthesize(spectrum, points)
        errors.append(lp.aligned_relative_error(rec, signal))
        if level == 0.0:
            break
    errors = np.asarray(errors)
    rank_tol = lp.RecoveryConfig.for_data(data).rank_tol
    print(f"{level:>12.0e} {rank_tol:>10.0e} {np.median(errors):>12.3e} "
          f"{errors.min():>12.3e} {errors.max():>12.3e}")
