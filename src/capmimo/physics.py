"""Free-space scalar propagation kernel for parallel line apertures.

Geometry convention: the transmit aperture occupies positions s in [0, l]
on the line (0, 0, z), the receive aperture occupies r in [0, l] on the
parallel line (d, 0, z). Everything downstream (field autocorrelation,
operator trace, mutual-information models) is built from the scalar
propagation coefficient ``green_offset``, up to the unit phase common to
every pair (``green_scalar`` is G itself), and the ``QuadratureGrid``s of
an aperture: the composite Gauss-Legendre rule of every integral, on
``gauss_legendre_panels`` panels, and the antennas (``midpoint_grid``).

All functions here are pure and accept numpy arrays for the position
arguments (broadcasting applies); they are safe to call concurrently.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# free-space intrinsic impedance, ohms
Z0_OHMS = 120.0 * math.pi

# nodes per Gauss-Legendre panel of the source and reference rules
PANEL_NODES = 16

# propagation coefficients evaluated in one green_offset call by kernel_diagonal
# and the channel assembly (``green_block_rows``): bounds their temporaries, about
# 80 B per entry, to 0.66 MB, below a spectral solve's own arrays (a 148 x 256
# offset table, that of a 1600 x 800 Nystrom matrix, is evaluated 32 rows at a time)
GREEN_BLOCK_ENTRIES = 1 << 13


def green_block_rows(cols: int) -> int:
    """Whole rows of ``cols`` coefficients in one green_offset block: at least one."""
    return max(1, GREEN_BLOCK_ENTRIES // cols)


# resident bytes per listed byte (``check_arrays``): one step's VmHWM rise in a fresh process
# (numpy 2.4.6, OpenBLAS 0.3.31) over its largest phase read 1.01-1.06 for full-SVD fallbacks,
# 0.93-1.05 for gram_from_channel and 0.90-1.03 for channels, grids, noise steps and the trace
# at 8-92 MiB, plus margin; glibc's retained heap adds 1.5 MiB (the 5 MiB |G|^2 profile: 1.33)
MEMORY_FACTOR = 1.15


@dataclass(frozen=True)
class SystemConfig:
    """Physical scenario: geometry, excitation power density, noise density.

    Attributes:
        wavelength_m: carrier wavelength, > 0.
        aperture_m: common length l of the transmit and receive segments, > 0.
        distance_m: separation d of the two parallel segments, > 0.
        power_density: source power density P (equal allocation, no CSI), >= 0.
        noise_density: receiver noise density n0 (two-sided n0/2), > 0.

    The geometry's arithmetic must be finite and normal: ``green_offset``'s
    2 r^2, (k r)^2 and 2 lam r at r^2 = d^2 + l^2, Gmax^2 and B = l^2
    Gmax^2, with Gmax = Z0 / (2 lam d) (1 + 2 / (kd) + 2 / (kd)^2) >= |G|
    (t <= 1, |n| <= 2, r >= d there); B or Gmax^2 below the smallest
    normal float leaves the unit-power trace or an antenna ||A||_F^2 at 0.
    The SNR scales 2 / n0 and 2 P / n0, P B and 2 P B / n0 must be finite:
    B bounds the unit-power trace and a Gauss-Legendre ||A||_F^2, so P B
    and 2 P B / n0 bound every scaled eigenvalue. Both checks run in
    Python floats, after a bool is refused as any attribute.
    """

    wavelength_m: float = 0.04
    aperture_m: float = 2.0
    distance_m: float = 10.0
    power_density: float = 1.0
    noise_density: float = 2.0

    def __post_init__(self) -> None:
        for name in ("wavelength_m", "aperture_m", "distance_m", "noise_density"):
            as_positive(name, getattr(self, name))
        p = self.power_density
        if isinstance(p, (bool, np.bool_)) or not (p >= 0 and math.isfinite(p)):
            raise ValueError(f"power_density must be nonnegative, got {p}")
        lam, l, d, p, n0 = map(float, (self.wavelength_m, self.aperture_m, self.distance_m,
                                       self.power_density, self.noise_density))
        u = lam / (2.0 * math.pi * d)  # 1 / (kd)
        g_peak = Z0_OHMS / (2.0 * lam) / d * (1.0 + 2.0 * u * (1.0 + u))
        r, l_peak = math.sqrt(d * d + l * l), l * g_peak
        kr = 2.0 * math.pi / lam * r
        if not all(sys.float_info.min <= x < math.inf for x in (
                2.0 * r * r, kr * kr, 2.0 * lam * r, g_peak * g_peak, l_peak * l_peak)):
            raise ValueError(f"wavelength_m {lam}, aperture_m {l} and distance_m {d} overflow "
                             f"or underflow 2 r^2, (k r)^2, 2 lam r, Gmax^2 or l^2 Gmax^2, "
                             f"r^2 = d^2 + l^2")
        signal, snr = p * l_peak * l_peak, 2.0 / n0
        if not all(map(math.isfinite, (snr, 2.0 * p / n0, signal, snr * signal))):
            raise ValueError(f"power_density {p} and noise_density {n0} make the SNR scale "
                             f"2 / n0 or 2 P / n0 overflow on spectra up to l^2 Gmax^2 = "
                             f"{l_peak * l_peak:.3g}")

    @property
    def wavenumber(self) -> float:
        """Spatial angular frequency 2*pi/wavelength; never stored independently."""
        return 2.0 * math.pi / self.wavelength_m

    def default_inner_points(self) -> int:
        """The package's one node rule: a 16-node panel per min(wavelength, distance) along l.

        Gauss-Legendre Nystrom and trace rules converge exponentially once
        their panels resolve both the oscillation and the near-field peak
        of the propagation coefficient (Bornemann, Math. Comp. 79, 2010).
        """
        return PANEL_NODES * math.ceil(self.aperture_m / min(self.wavelength_m, self.distance_m))


def green_offset(x, cfg: SystemConfig):
    """Scalar propagation coefficient as a function of the axial offset x = r - s.

    Evaluates the z-polarized entry of the free-space dyadic kernel for
    source/observer separated by (d, 0, x): radiating term plus the two
    near-field corrections, all even in x. Returns complex values with
    the same shape as ``x``.

    The value is (1j Z0 / (2 lam r)) exp(1j k (r - d)) (t + 1j n / (k r) -
    n / (k r)^2) with r^2 = x^2 + d^2, t = d^2 / r^2 the radiating
    direction factor and n = (d^2 - 2 x^2) / r^2 that of the 1/kr terms:
    G without the unit factor exp(1j k d) common to every pair
    (``distance_phase``), with r - d formed as x^2 / (r + d), which does
    not cancel. Each step runs in place, in that order, so at most three
    complex and one real array of x's shape are alive at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:  # numpy returns scalars from 0-d arrays, which have no buffer to reuse
        return green_offset(x[None], cfg)[0]
    dd = cfg.distance_m * cfg.distance_m
    r_sq = x * x
    r_sq += dd
    near = 2.0 * x
    near *= x
    np.subtract(dd, near, out=near)
    near /= r_sq
    r_abs = np.sqrt(r_sq)
    transverse = np.divide(dd, r_sq, out=r_sq)
    del r_sq
    kr = cfg.wavenumber * r_abs
    bracket = 1j * near
    bracket /= kr
    bracket += transverse
    near /= np.multiply(kr, kr, out=transverse)
    bracket -= near
    del near
    np.add(r_abs, cfg.distance_m, out=kr)
    np.multiply(x, x, out=transverse)
    transverse /= kr
    del kr
    phase = 1j * cfg.wavenumber * transverse
    del transverse
    np.exp(phase, out=phase)
    r_abs *= 2.0 * cfg.wavelength_m
    out = np.divide(1j * Z0_OHMS, r_abs)
    out *= phase
    out *= bracket
    return out


def green_scalar(r, s, cfg: SystemConfig):
    """Field at receive position r due to a unit point source at s.

    Positions may lie anywhere on the axis (the formula is global); the
    value depends on (r, s) only through the offset r - s. Scalar inputs
    give a python complex, array inputs broadcast.
    """
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    out = green_offset(r - s, cfg) * distance_phase(cfg)
    if out.ndim == 0:
        return complex(out)
    return out


def distance_phase(cfg: SystemConfig) -> complex:
    """exp(1j k d), the unit factor common to every coefficient that ``green_offset`` leaves out."""
    kd = cfg.wavenumber * cfg.distance_m
    return complex(math.cos(kd), math.sin(kd))


def as_count(name: str, value, minimum: int) -> int:
    """The package's one count rule: ``value`` as a Python int of at least ``minimum``.

    A Python or numpy integer is accepted. A bool (Python's or numpy's),
    anything else (a float such as 64.0 too) or a smaller count raises a
    one-line ValueError naming ``name``, so a count never reaches a cache
    key or a grid without being an exact integer in range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    count = int(value)
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def as_positive(name: str, value: float) -> float:
    """The package's one positivity rule: ``value`` unchanged if it is positive and finite.

    It checks the wavelength, aperture, distance, noise density and every
    grid length; anything else (zero, a negative, inf, nan or a bool)
    raises a one-line ValueError naming ``name``.
    """
    if isinstance(value, (bool, np.bool_)) or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def resolve_inner_points(cfg: SystemConfig, inner_points: int | None) -> int:
    """Source-quadrature size: ``inner_points``, or the config default when None."""
    if inner_points is None:
        inner_points = cfg.default_inner_points()
    return as_count("inner_points", inner_points, 2)


def check_arrays(what: str, *phases) -> int:
    """The bytes charged for ``what``: the largest of ``phases``, each the arrays (name, shape,
    dtype) alive at once at a phase's peak, at its bytes times MEMORY_FACTOR. A charge above
    physical memory raises a one-line ValueError; called before anything is allocated, and
    skipped where the platform does not report its physical memory. Arrays the caller passes
    in are not listed, nor any far smaller than the phase's largest."""
    need = math.ceil(MEMORY_FACTOR * max(sum(math.prod(shape) * np.dtype(dtype).itemsize
                                             for _, shape, dtype in phase) for phase in phases))
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return need
    if need > have:
        raise ValueError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory; "
            f"lower ref_m, inner_points, the antenna counts or l / min(wavelength, d)")
    return need


def green_offset_arrays(shape: tuple) -> tuple:
    """A ``green_offset`` pass over offsets of ``shape``: them, and its peak's four arrays."""
    return (("offsets", shape, np.float64), ("green_offset real", shape, np.float64),
            ("green_offset complex", (3, *shape), np.complex128))


def rule_arrays(n: int) -> tuple:
    """An n-node rule's build: its nodes and weights, and ``operator_trace``'s pass over them."""
    return (("rule nodes and weights", (2, n), np.float64), *green_offset_arrays((n,)))


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes r_i and weights w_i of an m-point grid on (0, length).

    The nodes are a lattice of ``panels`` equal panels of k = m // panels
    nodes each, every panel repeating the first one's nodes shifted by a
    panel width: r_(I k + a) = I * length / panels + r_a, up to rounding,
    and its k weights, w_i = weights[i % k] bitwise. A rule whose panels
    differ is one panel of every node. An antenna grid carries no weight
    (``weights`` None); ``weight`` is the mean length / m.
    """

    points: np.ndarray = field(compare=False)
    length: float
    m: int
    weights: np.ndarray | None = field(compare=False)
    panels: int

    @property
    def weight(self) -> float:
        return self.length / self.m


def midpoint_grid(length: float, m: int) -> QuadratureGrid:
    """Build the m-point midpoint grid r_i = (i - 0.5) * l / m on (0, length).

    This is the evenly spaced antenna layout of the discrete models
    (spacing length/m, first element at half a spacing from the edge):
    m one-node panels of point antennas, which carry no weight.
    """
    m = as_count("grid size m", m, 1)
    check_arrays(f"a {m}-antenna midpoint grid", (("antenna positions", (m,), np.float64),))
    pts = (np.arange(m, dtype=np.float64) + 0.5) * (as_positive("grid length", length) / m)
    pts.setflags(write=False)
    return QuadratureGrid(points=pts, length=length, m=m, weights=None, panels=m)


def gauss_legendre_grid(length: float, n: int) -> QuadratureGrid:
    """The n-node composite Gauss-Legendre rule on (0, length): every continuous integral's grid.

    ceil(n / PANEL_NODES) panels whose node counts differ by at most one,
    each as wide as its share of the n nodes; n a multiple of 16 gives
    equal 16-node panels. The layout is mirror-symmetric about length/2
    (nodes x[::-1] = length - x up to rounding, weights exactly mirrored):
    the panel size that occurs an even number of times is split between
    the two ends, the other fills the middle, and when both sizes occur
    an odd number of times the panel count grows by one. Exponentially
    convergent for the analytic integrands of this package once the
    panels resolve the wavelength and the distance. Its arrays are
    read-only. Each panel's rule is ``_legendre_rule``'s, computed once
    per order and only for the orders used. ``as_count`` and ``as_positive``
    check n and length before the grids' cache on (length, int n) is read;
    ``check_arrays`` charges ``rule_arrays`` before a rule is built.
    """
    n = as_count("Gauss-Legendre node count", n, 2)
    return _gauss_legendre_rule(as_positive("grid length", length), n)


@lru_cache(maxsize=64)
def _gauss_legendre_rule(length: float, n: int) -> QuadratureGrid:
    """``gauss_legendre_grid`` unchecked: a Gauss-Legendre rule laid out on its panels."""
    check_arrays(f"a {n}-node Gauss-Legendre rule", rule_arrays(n))
    panels = gauss_legendre_panels(n)
    small, extra = divmod(n, panels)
    if extra % 2 == 0:
        outer, inner = (small + 1, extra // 2), (small, panels - extra)
    else:
        outer, inner = (small, (panels - extra) // 2), (small + 1, extra)
    x, w = np.empty(n), np.empty(n)
    left = 0
    for order, count in (outer, inner, outer):
        if count == 0:
            continue
        t, weights = _legendre_rule(order)
        half = 0.5 * order * length / n
        end = left + order * count
        offsets = (left + order * np.arange(count) + 0.5 * order) * (length / n)
        np.add(offsets[:, None], half * t, out=x[left:end].reshape(count, order))
        w[left:end].reshape(count, order)[...] = half * weights
        left = end
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureGrid(points=x, length=length, m=n, weights=w,
                          panels=1 if extra else panels)


def gauss_legendre_panels(n: int) -> int:
    """The panel count of the n-node rule, from n alone, as ``gauss_legendre_grid`` lays it out."""
    panels = -(-n // PANEL_NODES)
    return panels + 1 if (extra := n % panels) % 2 and (panels - extra) % 2 else panels


@lru_cache(maxsize=32)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the order-point Gauss-Legendre rule on (-1, 1).

    Newton's method on P_order, evaluated by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, from the estimates
    -cos(pi (i + 3/4) / (order + 1/2)); once a step is below 1e-10 the
    next error is below roundoff, so the nodes are those of one step more.
    The weights are 2 / ((1 - x^2) P_order'(x)^2), with 1 - x^2 taken as
    (1 - x)(1 + x), which does not cancel near the ends; nodes and weights
    are symmetrized and the weights scaled to sum to 2, as
    ``numpy.polynomial.legendre.leggauss`` does. Read-only arrays.
    """
    x = -np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
    converged = False
    while True:
        below, p = np.ones_like(x), x
        for j in range(1, order):
            below, p = p, ((2 * j + 1) * x * p - j * below) / (j + 1)
        slope = order * (x * p - below) / ((x - 1.0) * (x + 1.0))
        if converged:
            break
        step = p / slope
        x = x - step
        converged = np.max(np.abs(step)) < 1e-10
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def kernel_value(r: float, r_prime: float, cfg: SystemConfig,
                 inner_points: int | None = None) -> complex:
    """Autocorrelation of the received field between positions r and r_prime.

    Gauss-Legendre approximation of P * integral_0^l G(r,s) G*(r_prime,s) ds
    with ``inner_points`` source nodes. Conjugate symmetry
    kernel_value(a, b) == conj(kernel_value(b, a)) holds exactly: the pair
    is evaluated once in canonical order and mirrored by conjugation, and
    the diagonal is ``kernel_diagonal``, real.
    """
    inner_points = resolve_inner_points(cfg, inner_points)
    if r == r_prime:
        return complex(kernel_diagonal(r, cfg, inner_points))
    if r > r_prime:
        return complex(kernel_value(r_prime, r, cfg, inner_points)).conjugate()
    s = gauss_legendre_grid(cfg.aperture_m, inner_points)
    prod = green_offset(r - s.points, cfg) * np.conj(green_offset(r_prime - s.points, cfg))
    return complex(cfg.power_density * np.sum(s.weights * prod))


def kernel_diagonal(positions: np.ndarray, cfg: SystemConfig,
                    inner_points: int | None = None) -> np.ndarray:
    """Vectorized kernel_value(r, r) for an array of receive positions.

    The diagonal is the per-position received signal power; it feeds the
    SNR-matching rules, so it uses the source quadrature of every kernel.
    Positions are evaluated ``green_block_rows`` rows of inner_points
    coefficients at a time. The result has the positions' shape (0-d for
    a scalar).
    """
    inner_points = resolve_inner_points(cfg, inner_points)
    positions = np.asarray(positions, dtype=np.float64)
    flat = positions.ravel()
    s = gauss_legendre_grid(cfg.aperture_m, inner_points)
    out = np.empty(flat.size, dtype=np.float64)
    step = green_block_rows(inner_points)
    for start in range(0, flat.size, step):
        g = green_offset(flat[start:start + step, None] - s.points[None, :], cfg)
        out[start:start + step] = np.sum(s.weights * (g.real**2 + g.imag**2), axis=1)
    out *= cfg.power_density
    return out.reshape(positions.shape)


def operator_trace(cfg: SystemConfig, nodes: int | None = None) -> float:
    """Total received signal power P * iint |G(r - s)|^2 dr ds over [0, l]^2.

    |G| depends only on the offset x = r - s and is even in x, so the
    square reduces to the one integral 2 P int_0^l |G(x)|^2 (l - x) dx,
    taken with an n-node composite Gauss-Legendre rule (default
    ``SystemConfig.default_inner_points``). Equals the sum of the field
    operator's eigenvalues. Nonnegative.
    """
    n = cfg.default_inner_points() if nodes is None else nodes
    rule = gauss_legendre_grid(cfg.aperture_m, n)
    g = green_offset(rule.points, cfg)
    return float(cfg.power_density * (2.0 * np.sum(rule.weights * (g.real**2 + g.imag**2)
                                                   * (cfg.aperture_m - rule.points))))
