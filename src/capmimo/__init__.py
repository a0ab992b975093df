"""Mutual information of continuous-aperture vs discrete-antenna transceivers.

Numerical toolkit for the scalar free-space channel between two parallel
line apertures: field-autocorrelation kernels, operator spectra and
determinants, SNR-matched discrete models, and sweep drivers that verify
the discretization convergence rates empirically.

While its first submodule loads numpy, the package sets OpenBLAS's
``OPENBLAS_THREAD_TIMEOUT`` to BLAS_THREAD_TIMEOUT, since OpenBLAS reads
it only when it loads, and then removes it again: idle BLAS worker
threads then sleep almost at once instead of spinning on a core. A
value set in the environment is kept, and a process that imported numpy
first is left as it is.
"""

import os as _os
import sys as _sys

# exponent v of the 2**v cycles an idle OpenBLAS worker thread spins before it
# sleeps. OpenBLAS clamps v to 4..30; its default, 28, spins about 0.1 s of a
# core after numpy loads it and after each threaded call. On 2 cores (OpenBLAS
# 0.3.31) 20 saves that spin as 4 does, and leaves the wall time of large
# threaded solves as it was, where 4 raised it by up to 3 %
BLAS_THREAD_TIMEOUT = 20

# the first submodule loads numpy; loading it here rather than numpy alone keeps
# the modules' load order, and with it the workloads' peak resident memory
if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = str(BLAS_THREAD_TIMEOUT)
    try:
        from . import experiments
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .experiments import (
    GridSweep,
    SlopeFit,
    SweepRow,
    fit_convergence_slope,
    sweep_grid,
    sweep_receiver,
    sweep_transceiver,
)
from .models import (
    DofEstimate,
    MiResult,
    NoiseControl,
    default_ref_m,
    dof_estimate,
    mi_continuous,
    mi_discrete_rx,
    mi_discrete_trx,
    noise_rx,
    noise_trx,
)
from .physics import (
    QuadratureGrid,
    SystemConfig,
    Z0_OHMS,
    green_scalar,
    kernel_diagonal,
    kernel_value,
    midpoint_grid,
    operator_trace,
)
from .spectra import (
    PSDViolationError,
    SpectralResult,
    assemble_channel_matrix,
    assemble_kernel_matrix,
    centrosymmetric_spectrum,
    hermitian_eigenvalues,
    validate_hermitian,
)

__version__ = "0.1.0"

__all__ = [
    "DofEstimate",
    "GridSweep",
    "MiResult",
    "NoiseControl",
    "PSDViolationError",
    "QuadratureGrid",
    "SlopeFit",
    "SpectralResult",
    "SweepRow",
    "SystemConfig",
    "Z0_OHMS",
    "assemble_channel_matrix",
    "assemble_kernel_matrix",
    "centrosymmetric_spectrum",
    "default_ref_m",
    "dof_estimate",
    "fit_convergence_slope",
    "green_scalar",
    "hermitian_eigenvalues",
    "kernel_diagonal",
    "kernel_value",
    "mi_continuous",
    "mi_discrete_rx",
    "mi_discrete_trx",
    "midpoint_grid",
    "noise_rx",
    "noise_trx",
    "operator_trace",
    "sweep_grid",
    "sweep_receiver",
    "sweep_transceiver",
    "validate_hermitian",
]
