"""Mutual information of continuous-aperture vs discrete-antenna transceivers.

Numerical toolkit for the scalar free-space channel between two parallel
line apertures: field-autocorrelation kernels, operator spectra and
determinants, SNR-matched discrete models, and sweep drivers that verify
the discretization convergence rates empirically.
"""

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
    SystemConfig,
    Z0_OHMS,
    green_scalar,
    kernel_diagonal,
    kernel_value,
    operator_trace,
)
from .spectra import (
    PSDViolationError,
    QuadratureGrid,
    SpectralResult,
    assemble_channel_matrix,
    assemble_kernel_matrix,
    centrosymmetric_spectrum,
    hermitian_eigenvalues,
    midpoint_grid,
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
