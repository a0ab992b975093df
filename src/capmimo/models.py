"""Mutual-information models for continuous and discretized transceivers.

All three models are the one spectral computation of ``spectra``: the
eigenvalues of a weighted Gram matrix of sampled propagation
coefficients, then log det(I + (2 / n) K) as a sum of log1p. They differ
in the two sampling grids, their weights and the noise density n:

* ``mi_continuous``   -- Gauss-Legendre reference grid against the
  Gauss-Legendre source grid, A = sqrt(w_r) G sqrt(w_s): a Nystrom
  discretization of the field operator, whose determinant converges
  exponentially in the node counts (Bornemann, Math. Comp. 79, 2010).
* ``mi_discrete_rx``  -- m point antennas (midpoint layout, no weight)
  against the source grid, G sqrt(w_s); noise density rescaled by
  ``noise_rx`` so the total receive SNR matches the continuous model.
* ``mi_discrete_trx`` -- point antennas on both sides, weight 1; noise
  rescaled by ``noise_trx``.

Both noise rescalings divide by the operator trace, the one-dimensional
integral ``physics.operator_trace``; the receiver rescaling's numerator
uses the same Gauss-Legendre source rule, so its gap is the pure
midpoint error of the antenna layout.

``mi_intermediate`` evaluates the reference-grid determinant at the
rescaled noise of a discrete model, which splits a discrete-vs-continuous
gap into its quadrature and SNR-control parts for diagnostics.

Power and noise density only rescale these quantities: every cache is
keyed on the geometry alone and holds unit-power values, and P and n0
are applied on each call (P in the scale 2P/n for the discrete models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .physics import (
    SystemConfig,
    green_offset,
    kernel_diagonal,
    operator_trace,
    resolve_inner_points,
)
from .spectra import (
    QuadratureGrid,
    SpectralResult,
    assemble_channel_matrix,
    assemble_kernel_matrix,
    check_matrix_size,
    gauss_legendre_grid,
    gram_from_channel,
    hermitian_eigenvalues,
    logdet_from_eigenvalues,
    midpoint_grid,
)

# diagonal second-derivative estimate: central differences on this many
# intervals across the aperture
CURVATURE_GRID_INTERVALS = 2000

MODEL_CONTINUOUS = "continuous"
MODEL_DISCRETE_RX = "discrete_rx"
MODEL_DISCRETE_TRX = "discrete_trx"
MODEL_REF_RESCALED_RX = "ref_rescaled_rx"
MODEL_REF_RESCALED_TRX = "ref_rescaled_trx"


class ZeroTraceError(ValueError):
    """Zero transmit power: the SNR-matching ratio is undefined (0/0)."""


@dataclass(frozen=True)
class MiResult:
    """A mutual-information value with its provenance.

    value_nats uses the natural logarithm; ``value_bits`` converts.
    ``eigenvalues`` carries the operator-scaled spectrum for the
    continuous model (per-subchannel signal powers), None otherwise.
    """

    value_nats: float
    model_tag: str
    noise_used: float
    grid_m: int | None = None
    grid_m1: int | None = None
    grid_m2: int | None = None
    ref_m: int | None = None
    inner_points: int | None = None
    eigenvalues: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def value_bits(self) -> float:
        return self.value_nats / math.log(2.0)


@dataclass(frozen=True)
class NoiseControl:
    """Rescaled noise density of a discrete model plus convergence diagnostics.

    ``limit_value`` is the dense-array asymptote, ``gap`` the scaled
    distance from it, and ``gap_bound`` the numerically evaluated
    midpoint-quadrature bound that the gap must respect.
    """

    n_value: float
    limit_value: float
    gap: float
    gap_bound: float


@dataclass(frozen=True)
class DofEstimate:
    """Significant-eigenvalue count next to the analytic rule l^2 / (d * wavelength)."""

    eigen_count: int
    analytic: float
    threshold_rel: float


def _geometry(cfg: SystemConfig) -> SystemConfig:
    """The cache key of ``cfg``: its geometry at unit power and default noise."""
    return SystemConfig(wavelength_m=cfg.wavelength_m, aperture_m=cfg.aperture_m,
                        distance_m=cfg.distance_m)


@lru_cache(maxsize=64)
def _unit_trace(geometry: SystemConfig) -> float:
    """Total received power at unit transmit power density."""
    return operator_trace(geometry)


@lru_cache(maxsize=32)
def _reference_spectrum(geometry: SystemConfig, ref_m: int,
                        inner_points: int) -> SpectralResult:
    """Unit-power field-operator spectrum from the Gauss-Legendre Nystrom matrix.

    A = sqrt(w_r) G(r_i - s_k) sqrt(w_s) with ref_m reference and
    inner_points source nodes; its squared singular values are the
    eigenvalues of the Gram matrix on its smaller side, so the spectrum
    has min(ref_m, inner_points) entries.
    """
    check_matrix_size(ref_m, inner_points)
    ref = gauss_legendre_grid(geometry.aperture_m, ref_m)
    source = gauss_legendre_grid(geometry.aperture_m, inner_points)
    A = assemble_channel_matrix(ref, source, geometry)
    A *= np.sqrt(source.weights)
    A *= np.sqrt(ref.weights)[:, None]
    return hermitian_eigenvalues(gram_from_channel(A if ref_m <= inner_points else A.T, 1.0))


@lru_cache(maxsize=64)
def _diag_curvature_sup(geometry: SystemConfig, inner_points: int) -> float:
    """sup |d^2/dr^2 kernel_value(r, r)| estimated by central differences.

    Sampled on CURVATURE_GRID_INTERVALS + 1 equispaced diagonal points;
    an estimate of the supremum, not a certified one.
    """
    n = CURVATURE_GRID_INTERVALS
    r = np.linspace(0.0, geometry.aperture_m, n + 1)
    h = geometry.aperture_m / n
    diag = kernel_diagonal(r, geometry, inner_points)
    second = (diag[2:] - 2.0 * diag[1:-1] + diag[:-2]) / (h * h)
    return float(np.abs(second).max())


@lru_cache(maxsize=64)
def _offset_power_curvature_sup(geometry: SystemConfig) -> float:
    """sup over the aperture square of |d^2/dr^2| and |d^2/ds^2| of |G(r-s)|^2.

    |G|^2 depends on r and s only through x = r - s and is even in x, so
    both second partials reduce to the same one-dimensional profile on
    x in [0, l].
    """
    n = 40000
    x = np.linspace(0.0, geometry.aperture_m, n + 1)
    h = geometry.aperture_m / n
    g = green_offset(x, geometry)
    power = g.real**2 + g.imag**2
    second = (power[2:] - 2.0 * power[1:-1] + power[:-2]) / (h * h)
    return float(np.abs(second).max())


def default_ref_m(cfg: SystemConfig) -> int:
    """Reference node count: at least 16 Gauss-Legendre nodes per half wavelength."""
    return max(1600, 16 * math.ceil(2.0 * cfg.aperture_m / cfg.wavelength_m))


def _resolve(cfg: SystemConfig, ref_m: int | None, inner_points: int | None) -> tuple[int, int]:
    if ref_m is None:
        ref_m = default_ref_m(cfg)
    return ref_m, resolve_inner_points(cfg, inner_points)


def _operator_spectrum(cfg: SystemConfig, ref_m: int, inner_points: int) -> np.ndarray:
    """Per-subchannel signal powers: the unit-power reference spectrum scaled by P."""
    unit = _reference_spectrum(_geometry(cfg), ref_m, inner_points).eigenvalues
    scaled = cfg.power_density * unit
    scaled.setflags(write=False)
    return scaled


def mi_continuous(cfg: SystemConfig, ref_m: int | None = None,
                  inner_points: int | None = None) -> MiResult:
    """Mutual information of the fully continuous model, in nats.

    Gauss-Legendre Nystrom approximation of the operator determinant
    log det(1 + T / (n0/2)) with ``ref_m`` reference and ``inner_points``
    source nodes: the cached unit-power reference spectrum times P
    approximates the spectrum of T. That operator-scaled spectrum
    (min(ref_m, inner_points) entries) is exposed on the result for SNR
    and DoF diagnostics.
    """
    ref_m, inner_points = _resolve(cfg, ref_m, inner_points)
    if ref_m < 64:
        raise ValueError(f"ref_m must be >= 64 for a usable reference, got {ref_m}")
    scaled = _operator_spectrum(cfg, ref_m, inner_points)
    value = logdet_from_eigenvalues(scaled, 2.0 / cfg.noise_density)
    return MiResult(value_nats=value, model_tag=MODEL_CONTINUOUS,
                    noise_used=cfg.noise_density, ref_m=ref_m,
                    inner_points=inner_points, eigenvalues=scaled)


def noise_rx(grid: QuadratureGrid, cfg: SystemConfig,
             inner_points: int | None = None) -> NoiseControl:
    """SNR-matched noise density for the discrete-receiver model.

    n_rx = n0 * (sum of sampled signal powers) / (total received power),
    so the array's aggregate SNR equals the continuous receiver's. The
    denominator is the cached reference trace. Raises ZeroTraceError at
    zero transmit power, where the ratio degenerates to 0/0.
    """
    if grid.m < 1:
        raise ValueError("grid must be nonempty")
    inner_points = resolve_inner_points(cfg, inner_points)
    if cfg.power_density == 0.0:
        raise ZeroTraceError("SNR matching undefined: zero transmit power density")
    trace = cfg.power_density * _unit_trace(_geometry(cfg))
    diag_sum = float(kernel_diagonal(grid.points, cfg, inner_points).sum())
    n_value = cfg.noise_density * diag_sum / trace
    l, m, n0 = cfg.aperture_m, grid.m, cfg.noise_density
    gap = abs(l * n_value / m - n0)
    curvature = cfg.power_density * _diag_curvature_sup(_geometry(cfg), inner_points)
    bound = n0 * l**3 * curvature / (24.0 * m * m * trace)
    return NoiseControl(n_value=n_value, limit_value=m * n0 / l,
                        gap=gap, gap_bound=bound)


def noise_trx(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
              cfg: SystemConfig) -> NoiseControl:
    """SNR-matched noise density for the discrete-transceiver model.

    n_trx = n0 * (sum of |G| over all antenna pairs squared) / (double
    integral of |G|^2); power density cancels, so this is defined even at
    zero power. The gap bound carries the min(m_tx, m_rx)^-2 midpoint
    error of the pair sum.
    """
    if rx_grid.m < 1 or tx_grid.m < 1:
        raise ValueError("grids must be nonempty")
    unit_trace = _unit_trace(_geometry(cfg))
    H = assemble_channel_matrix(rx_grid, tx_grid, cfg)
    pair_sum = float(np.sum(H.real**2 + H.imag**2))
    n_value = cfg.noise_density * pair_sum / unit_trace
    l, n0 = cfg.aperture_m, cfg.noise_density
    m1, m2 = tx_grid.m, rx_grid.m
    gap = abs(n0 - l * l * n_value / (m1 * m2))
    sup2 = _offset_power_curvature_sup(_geometry(cfg))
    bound = n0 * l**4 * (sup2 + sup2) / (24.0 * min(m1, m2) ** 2 * unit_trace)
    return NoiseControl(n_value=n_value, limit_value=m1 * m2 * n0 / (l * l),
                        gap=gap, gap_bound=bound)


def mi_discrete_rx(m: int, cfg: SystemConfig,
                   inner_points: int | None = None) -> MiResult:
    """Mutual information with a continuous transmitter and m point antennas.

    log det(I + P * K / (n_rx / 2)) on the unit-power kernel matrix
    sampled at the antennas; the grid weight is absorbed by the rescaled
    noise, so no explicit quadrature weight appears. Zero power
    short-circuits to zero information.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    inner_points = resolve_inner_points(cfg, inner_points)
    grid = midpoint_grid(cfg.aperture_m, m)
    if cfg.power_density == 0.0:
        return MiResult(value_nats=0.0, model_tag=MODEL_DISCRETE_RX,
                        noise_used=math.nan, grid_m=m, inner_points=inner_points)
    control = noise_rx(grid, cfg, inner_points)
    K = assemble_kernel_matrix(grid, _geometry(cfg), inner_points)
    value = logdet_from_eigenvalues(hermitian_eigenvalues(K).eigenvalues,
                                    2.0 * cfg.power_density / control.n_value)
    return MiResult(value_nats=value, model_tag=MODEL_DISCRETE_RX,
                    noise_used=control.n_value, grid_m=m, inner_points=inner_points)


def mi_discrete_trx(m1: int, m2: int, cfg: SystemConfig) -> MiResult:
    """Mutual information with m1 transmit and m2 receive point antennas.

    Equal power density per transmit antenna: log det(I + P * H H^H /
    (n_trx / 2)) over the m2 receive dimensions, with the unit-weight
    channel Gram matrix H H^H and P applied in the scale.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({m1}, {m2})")
    tx_grid = midpoint_grid(cfg.aperture_m, m1)
    rx_grid = midpoint_grid(cfg.aperture_m, m2)
    control = noise_trx(rx_grid, tx_grid, cfg)
    K = gram_from_channel(assemble_channel_matrix(rx_grid, tx_grid, cfg), 1.0)
    value = logdet_from_eigenvalues(hermitian_eigenvalues(K).eigenvalues,
                                    2.0 * cfg.power_density / control.n_value)
    return MiResult(value_nats=value, model_tag=MODEL_DISCRETE_TRX,
                    noise_used=control.n_value, grid_m1=m1, grid_m2=m2)


def mi_intermediate(kind: str, cfg: SystemConfig, ref_m: int | None = None,
                    m: int | None = None, m1: int | None = None, m2: int | None = None,
                    noise: NoiseControl | None = None,
                    inner_points: int | None = None) -> MiResult:
    """Reference-grid determinant evaluated at a discrete model's noise level.

    kind "rx" uses the m-antenna receiver rescaling (requires m), kind
    "trx" the (m1, m2) transceiver rescaling. Pass ``noise`` to reuse an
    already computed control; otherwise it is evaluated here. The value
    isolates how much of a discrete model's deviation comes from the SNR
    rescaling alone.
    """
    ref_m, inner_points = _resolve(cfg, ref_m, inner_points)
    l = cfg.aperture_m
    if kind == "rx":
        if m is None:
            raise ValueError('kind "rx" requires m')
        if noise is None:
            if cfg.power_density == 0.0:
                return MiResult(value_nats=0.0, model_tag=MODEL_REF_RESCALED_RX,
                                noise_used=math.nan, grid_m=m, ref_m=ref_m,
                                inner_points=inner_points)
            noise = noise_rx(midpoint_grid(l, m), cfg, inner_points)
        z = 2.0 * m / (l * noise.n_value)
        tag, counts = MODEL_REF_RESCALED_RX, {"grid_m": m}
    elif kind == "trx":
        if m1 is None or m2 is None:
            raise ValueError('kind "trx" requires m1 and m2')
        if noise is None:
            noise = noise_trx(midpoint_grid(l, m2), midpoint_grid(l, m1), cfg)
        z = 2.0 * m1 * m2 / (l * l * noise.n_value)
        tag, counts = MODEL_REF_RESCALED_TRX, {"grid_m1": m1, "grid_m2": m2}
    else:
        raise ValueError(f'kind must be "rx" or "trx", got {kind!r}')
    value = logdet_from_eigenvalues(_operator_spectrum(cfg, ref_m, inner_points), z)
    return MiResult(value_nats=value, model_tag=tag, noise_used=noise.n_value,
                    ref_m=ref_m, inner_points=inner_points, **counts)


def dof_estimate(cfg: SystemConfig, ref_m: int | None = None,
                 threshold_rel: float = 0.01,
                 inner_points: int | None = None) -> DofEstimate:
    """Count reference-spectrum eigenvalues >= threshold_rel * largest.

    Returned next to the analytic parallel-segment rule N = l^2 / (d * wavelength)
    for comparison. In the Fresnel limit the operator is the prolate
    time-frequency limiting operator with 2c/pi = N, and N describes the
    count at ``threshold_rel=0.5``: floor(N) or floor(N) + 1 eigenvalues
    lie above half the largest. The default 1% count also includes the
    plunge-region modes between the levels, whose number grows like
    log c * log(1/threshold_rel); for the default aperture and wavelength
    at d = 50 m it is 4 against N = 2. At zero power the count is zero.
    """
    if not 0.0 < threshold_rel < 1.0:
        raise ValueError(f"threshold_rel must lie in (0, 1), got {threshold_rel}")
    ref_m, inner_points = _resolve(cfg, ref_m, inner_points)
    spectrum = _operator_spectrum(cfg, ref_m, inner_points)
    lam_max = float(spectrum[0]) if spectrum.size else 0.0
    count = 0 if lam_max <= 0.0 else int(np.sum(spectrum >= threshold_rel * lam_max))
    analytic = cfg.aperture_m**2 / (cfg.distance_m * cfg.wavelength_m)
    return DofEstimate(eigen_count=count, analytic=analytic, threshold_rel=threshold_rel)
