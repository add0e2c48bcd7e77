"""liftphase: recovery of compactly supported 1-D signals from
magnitude-only short-time Fourier samples.

The pipeline lifts the quadratic measurements to a linear system on a
banded outer-product matrix, inverts it by minimum-norm least squares and a
rank-one consistency refinement, recovers phases by eigenvector angular
synchronization, and synthesizes the signal from its half-integer Fourier
samples.
"""

from .exceptions import (ConfigError, DecompositionFailure, DegenerateSpectrum,
                         DimensionError, GridError, LiftphaseError,
                         NonConvergence, ZeroSignal)
from .forward import (MeasurementGrid, NoiseSpec, SpectrogramData, measure,
                      paper_grid, half_integer_grid, spectrogram_quadrature,
                      spectrogram_series)
from .kernels import (BandedMatrix, QuadratureSpec, integrate_complex,
                      leading_eigenvector, min_norm_least_squares)
from .lifting import LiftedSystem, assemble_system
from .recovery import (RecoveredSpectrum, RecoveryConfig, RecoveryDiagnostics,
                       angular_synchronize, cached_system, recover, solve_band)
from .signals import (Signal, Window, gaussian_specimen, gaussian_window,
                      get_signal, get_window, modulated_specimen,
                      phase_rotated, signal_names, zero_specimen)
from .synthesis import (PhysicalReconstruction, aligned_relative_error,
                        default_grid, synthesize, write_reconstruction_csv)

__version__ = "0.1.0"
