"""Mutual-information models for continuous and discretized transceivers.

All three models are the one spectral computation of ``spectra``: the
squared singular values of the two centrosymmetric halves of the
weighted matrix A = sqrt(w_r) G sqrt(w_s) of sampled propagation
coefficients, then log det(I + (2 / n) A A^H) as a sum of log1p. They
differ only in their two grids, each of which carries its own weights
(none on an antenna grid), and in the noise density n:

* ``mi_continuous``   -- Gauss-Legendre reference grid against the
  Gauss-Legendre source grid: a Nystrom discretization of the field
  operator, whose determinant converges exponentially in the node
  counts (Bornemann, Math. Comp. 79, 2010).
* ``mi_discrete_rx``  -- m point antennas (midpoint layout, no weight)
  against the source grid, G sqrt(w_s).
* ``mi_discrete_trx`` -- point antennas on both sides, G.

One rule, ``model_sides``, decides the two sides of every model call as
they are solved, each a (node count, grid rule) pair, and sizes the
evaluated rows (``check_spectrum_size``) before any grid exists; the
sweeps size every call with it (``experiments.size_sweep``).
One cache, ``_spectrum``, keyed on the geometry and the sides, builds
the two grids and takes their spectrum and ||A||_F^2 for every model. G
is even and the lattice offsets negate exactly, so the channel from m1
transmit to m2 receive antennas is, bitwise, the transpose of the one
from m2 to m1: ``model_sides`` puts the smaller count on the receive
side, so both orders are one solve. The discrete models match the
continuous receive SNR with the noise density n0 * ||own unit-power
A||_F^2 / ``physics.operator_trace``, defined at every power including
zero; ``noise_rx`` and ``noise_trx`` give the same densities plus
midpoint-error bounds through one body, from one sampled |G|^2 profile.
``check_noise_rx_size`` sizes a ``noise_rx`` step, the command line's
``bounds`` step, before its diagonal is allocated.

Every continuous integral (the reference's source side, the trace, the
default source rule of ``mi_discrete_rx``) takes its node count from the
one rule ``SystemConfig.default_inner_points``; ``default_ref_m`` keeps
the reference's receive side at 1600 nodes or more.

Power and noise density only rescale these quantities: every cache is
keyed on the geometry alone and holds unit-power values, and P and n0
are applied on each call (P as P T on the discrete models' spectra over
||A||_F^2), so a change of either solves nothing again. ``cache_counts``
reports the caches' hits and misses for the sweep sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .physics import (
    RULE_BYTES_PER_NODE,
    QuadratureGrid,
    SystemConfig,
    as_count,
    check_memory,
    check_rule_size,
    gauss_legendre_grid,
    green_offset,
    kernel_diagonal,
    midpoint_grid,
    operator_trace,
    resolve_inner_points,
)
from .spectra import (
    _squared_norm,
    assemble_channel_matrix,
    centrosymmetric_spectrum,
    check_spectrum_size,
    logdet_from_eigenvalues,
)

# |G|^2 profile behind both gap bounds: central differences on this many
# intervals per aperture length, over offsets in [-l, l]
PROFILE_INTERVALS = 40000

MODEL_CONTINUOUS = "continuous"
MODEL_DISCRETE_RX = "discrete_rx"
MODEL_DISCRETE_TRX = "discrete_trx"


@dataclass(frozen=True)
class MiResult:
    """A mutual-information value with its provenance.

    value_nats uses the natural logarithm.
    ``eigenvalues`` carries the operator-scaled spectrum for the
    continuous model (per-subchannel signal powers), None otherwise.
    """

    value_nats: float
    model_tag: str
    noise_used: float
    ref_m: int | None = None
    inner_points: int | None = None
    eigenvalues: np.ndarray | None = field(default=None, compare=False, repr=False)

    def eigen_count(self, threshold_rel: float) -> int:
        """The continuous model's ``eigenvalues`` >= threshold_rel * the largest, 0 at P = 0."""
        top = self.eigenvalues[0]
        return int(np.sum(self.eigenvalues >= threshold_rel * top)) if top > 0.0 else 0


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


@lru_cache(maxsize=96)
def _spectrum(geometry: SystemConfig, rx: tuple, tx: tuple) -> tuple[np.ndarray, float]:
    """Unit-power spectrum and ||A||_F^2 on the ``model_sides`` grids: every model's solve."""
    return centrosymmetric_spectrum(*(rule(geometry.aperture_m, n) for n, rule in (rx, tx)),
                                    geometry)


def cache_counts() -> dict[str, dict[str, int]]:
    """Hits and misses of the geometry caches of the model values, summed over this process."""
    counts = {}
    for cache in (_spectrum, _unit_trace):
        info = cache.cache_info()
        counts[cache.__name__.lstrip("_")] = {"hits": info.hits, "misses": info.misses}
    return counts


@lru_cache(maxsize=64)
def _profile_curvatures(geometry: SystemConfig) -> tuple[float, float]:
    """Unit-power curvature estimates behind the noise_rx and noise_trx gap bounds.

    From central differences of p(x) = |G(x)|^2 on offsets in [-l, l]:
    sup |p'(r) - p'(r - l)| over r in [0, l], the second derivative of
    the diagonal int_{r-l}^{r} p, and sup |p''| on [0, l], either second
    partial of |G(r - s)|^2 (p is even).
    """
    n, l = PROFILE_INTERVALS, geometry.aperture_m
    h = l / n
    g = green_offset(np.arange(-n - 1, n + 2) * h, geometry)
    p = g.real**2 + g.imag**2                  # offsets -l - h .. l + h
    slope = (p[2:] - p[:-2]) / (2.0 * h)       # offsets -l .. l
    second = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h)
    return float(np.abs(slope[n:] - slope[:n + 1]).max()), float(np.abs(second[n:]).max())


def _matched_noise(cfg: SystemConfig, unit_power_sum: float) -> float:
    """SNR-matched noise density n0 * (sampled unit-power signal) / (unit-power trace)."""
    return cfg.noise_density * unit_power_sum / _unit_trace(_geometry(cfg))


def default_ref_m(cfg: SystemConfig) -> int:
    """Reference receive-node count: the package's node rule, at least 1600."""
    return max(1600, cfg.default_inner_points())


def model_sides(cfg: SystemConfig, model_tag: str, m1: int | None = None,
                m2: int | None = None, ref_m: int | None = None,
                inner_points: int | None = None) -> tuple[tuple, tuple]:
    """The receive and transmit sides of a model call as solved, sized before any grid exists.

    Each side is (node count, grid rule): ``gauss_legendre_grid``, which
    carries its weights, or ``midpoint_grid``, antennas. The continuous
    model is ``ref_m`` (``default_ref_m`` when None) reference nodes
    against the rule's source nodes; ``mi_discrete_rx`` m2 antennas against
    ``resolve_inner_points`` source nodes; ``mi_discrete_trx`` min(m1, m2)
    receive against max(m1, m2) transmit antennas, so both orders are one
    pair of sides. ``check_spectrum_size`` sizes the rows that are solved.
    """
    gauss = gauss_legendre_grid
    if model_tag == MODEL_CONTINUOUS:
        ref_m = default_ref_m(cfg) if ref_m is None else as_count("ref_m", ref_m, 64)
        rx, tx = (ref_m, gauss), (cfg.default_inner_points(), gauss)
    elif model_tag == MODEL_DISCRETE_RX:
        rx, tx = (m2, midpoint_grid), (resolve_inner_points(cfg, inner_points), gauss)
    else:
        rx, tx = (min(m1, m2), midpoint_grid), (max(m1, m2), midpoint_grid)
    check_spectrum_size(rx[0], tx[0])
    return rx, tx


def mi_continuous(cfg: SystemConfig, ref_m: int | None = None) -> MiResult:
    """Mutual information of the fully continuous model, in nats.

    Gauss-Legendre Nystrom approximation of the operator determinant
    log det(1 + T / (n0/2)) with ``ref_m`` reference nodes (default
    ``default_ref_m``) and ``cfg.default_inner_points()`` source nodes:
    the cached unit-power reference spectrum times P approximates the
    spectrum of T. That operator-scaled spectrum (min(ref_m, source
    nodes) entries) is exposed on the result for SNR and DoF diagnostics.
    """
    rx, tx = model_sides(cfg, MODEL_CONTINUOUS, ref_m=ref_m)
    scaled = cfg.power_density * _spectrum(_geometry(cfg), rx, tx)[0]
    scaled.setflags(write=False)
    value = logdet_from_eigenvalues(scaled, 2.0 / cfg.noise_density)
    return MiResult(value_nats=value, model_tag=MODEL_CONTINUOUS,
                    noise_used=cfg.noise_density, ref_m=rx[0],
                    inner_points=tx[0], eigenvalues=scaled)


def _noise_control(cfg: SystemConfig, unit_power_sum: float, counts: tuple[int, ...],
                   curvature: float) -> NoiseControl:
    """Matched density of an array of ``counts`` antennas per side, k = len(counts) sides.

    The dense-array limit is prod(counts) n0 / l^k, the gap |l^k n /
    prod(counts) - n0|, and the midpoint bound n0 l^(k+2) curvature / (24
    min(counts)^2 T) with T the unit-power trace.
    """
    n_value = _matched_noise(cfg, unit_power_sum)
    l, n0, k, low = cfg.aperture_m, cfg.noise_density, len(counts), min(counts)
    # volume = l^k as a product of l's: l ** 2 can differ from l * l in the last bit
    samples, volume = math.prod(counts), math.prod([l] * k)
    bound = n0 * l ** (k + 2) * curvature / (24.0 * low * low * _unit_trace(_geometry(cfg)))
    return NoiseControl(n_value=n_value, limit_value=samples * n0 / volume,
                        gap=abs(volume * n_value / samples - n0), gap_bound=bound)


def _check_on_aperture(cfg: SystemConfig, *grids: QuadratureGrid) -> None:
    """Refuse a grid off the aperture [0, l] over which the trace and the gap bound integrate."""
    for grid in grids:
        if grid.length != cfg.aperture_m:
            raise ValueError(f"grid length {grid.length} is not aperture_m {cfg.aperture_m}")


# resident bytes per antenna of one bounds step (noise_rx), beside its source
# rule: the VmHWM rise of a fresh process, 16.2-17.6 at 1e6-8e6 (its grid's points
# and the diagonal), plus 1.4 of margin
BOUNDS_BYTES_PER_ANTENNA = 19


def check_noise_rx_size(cfg: SystemConfig, m: int, inner_points: int) -> None:
    """``check_memory`` of a bounds step, ``noise_rx`` on m antennas against ``inner_points``
    source nodes, then ``check_rule_size`` of the trace's rule."""
    check_memory(BOUNDS_BYTES_PER_ANTENNA * m + RULE_BYTES_PER_NODE * inner_points,
                 f"a bounds step on {m} antennas and {inner_points} source nodes")
    check_rule_size(cfg.default_inner_points())


def noise_rx(grid: QuadratureGrid, cfg: SystemConfig,
             inner_points: int | None = None) -> NoiseControl:
    """SNR-matched noise density for the discrete-receiver model.

    n_rx = n0 * (sum of sampled signal powers) / (total received power),
    so the array's aggregate SNR equals the continuous receiver's. The
    numerator is the unit-power diagonal sum, trace(K) of
    ``mi_discrete_rx``; power density cancels, so this is defined even
    at zero power. ``check_noise_rx_size`` sizes the step before it allocates.
    """
    if grid.m < 1:
        raise ValueError("grid must be nonempty")
    _check_on_aperture(cfg, grid)
    geometry, n = _geometry(cfg), resolve_inner_points(cfg, inner_points)
    check_noise_rx_size(cfg, grid.m, n)
    # the diagonal is freed before the profile's temporaries: BOUNDS_BYTES_PER_ANTENNA holds
    unit_power_sum = float(kernel_diagonal(grid.points, geometry, n).sum())
    return _noise_control(cfg, unit_power_sum, (grid.m,), _profile_curvatures(geometry)[0])


def noise_trx(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
              cfg: SystemConfig) -> NoiseControl:
    """SNR-matched noise density for the discrete-transceiver model.

    n_trx = n0 * ||H||_F^2 / (double integral of |G|^2), the numerator
    being trace(H H^H) of ``mi_discrete_trx``; power density cancels, so
    this is defined even at zero power. The gap bound carries the
    min(m_tx, m_rx)^-2 midpoint error of the pair sum.
    """
    if rx_grid.m < 1 or tx_grid.m < 1:
        raise ValueError("grids must be nonempty")
    _check_on_aperture(cfg, rx_grid, tx_grid)
    H = assemble_channel_matrix(rx_grid, tx_grid, cfg)
    sup2 = _profile_curvatures(_geometry(cfg))[1]
    return _noise_control(cfg, _squared_norm(H), (tx_grid.m, rx_grid.m), sup2 + sup2)


def _discrete_mi(model_tag: str, m1: int | None, m2: int, cfg: SystemConfig,
                 inner_points: int | None = None) -> MiResult:
    """log det(I + P A A^H / (n / 2)), m1 transmit and m2 receive antennas, cached spectrum.

    n is the ``_matched_noise`` density n0 ||A||_F^2 / T, so the spectrum is
    scaled as (lambda / ||A||_F^2 <= 1) (P T <= P B) and the log det taken at
    2 / n0, as in ``mi_continuous``; ``inner_points``, the resolved source
    rule of ``mi_discrete_rx`` (m1 None), is reported.
    """
    sides = model_sides(cfg, model_tag, m1, m2, inner_points=inner_points)
    spectrum, unit_power_sum = _spectrum(_geometry(cfg), *sides)
    scaled = spectrum / unit_power_sum * (cfg.power_density * _unit_trace(_geometry(cfg)))
    return MiResult(value_nats=logdet_from_eigenvalues(scaled, 2.0 / cfg.noise_density),
                    model_tag=model_tag, noise_used=_matched_noise(cfg, unit_power_sum),
                    inner_points=inner_points)


def mi_discrete_rx(m: int, cfg: SystemConfig,
                   inner_points: int | None = None) -> MiResult:
    """Mutual information with a continuous transmitter and m point antennas.

    log det(I + P * K / (n_rx / 2)) on the unit-power kernel matrix
    K = A A^H sampled at the antennas, A = G sqrt(w_s); the grid weight is
    absorbed by the rescaled noise, so no explicit quadrature weight
    appears. n_rx is the ``noise_rx`` density, from ||A||_F^2 = trace(K).
    """
    return _discrete_mi(MODEL_DISCRETE_RX, None, as_count("m", m, 1), cfg,
                        resolve_inner_points(cfg, inner_points))


def mi_discrete_trx(m1: int, m2: int, cfg: SystemConfig) -> MiResult:
    """Mutual information with m1 transmit and m2 receive point antennas.

    Equal power density per transmit antenna: log det(I + P * H H^H /
    (n_trx / 2)) over the m2 receive dimensions, from the squared
    singular values of the unit-weight channel H with P applied in the
    scale; n_trx is the ``noise_trx`` density, from ||H||_F^2. The (m2,
    m1) channel is the transpose of this one, so both orders are solved
    as the one with the smaller count on the receive side (``model_sides``)
    and return the same value.
    """
    return _discrete_mi(MODEL_DISCRETE_TRX, as_count("m1", m1, 1), as_count("m2", m2, 1), cfg)


def dof_estimate(cfg: SystemConfig, ref_m: int | None = None,
                 threshold_rel: float = 0.01) -> DofEstimate:
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
    count = mi_continuous(cfg, ref_m).eigen_count(threshold_rel)
    analytic = cfg.aperture_m**2 / (cfg.distance_m * cfg.wavelength_m)
    return DofEstimate(eigen_count=count, analytic=analytic, threshold_rel=threshold_rel)
