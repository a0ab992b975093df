"""Propagation coefficient, autocorrelation kernel, and trace quadrature."""

import cmath
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from capmimo import SystemConfig, kernel_diagonal, kernel_value, operator_trace, physics
from capmimo.physics import _legendre_rule, gauss_legendre_grid, green_offset, green_scalar

from oracles import gauss_legendre_nodes, kernel_value_quad, total_power_quad

# closed form at zero offset, d = 1 m, wavelength 0.04 m: the propagation
# phase is a whole number of turns (2*pi*25), so
#   G = j * Z0/(2*lam*d) * (1 + j/(2*pi*d/lam) - 1/(2*pi*d/lam)^2)
#     = -30 + (1500*pi - 3/(5*pi)) j
# cross-checked against a 40-digit evaluation: -30.0 + 4712.1979944529795833 j
G_AT_ZERO_OFFSET_D1 = complex(-30.0, 1500.0 * math.pi - 3.0 / (5.0 * math.pi))

# adaptive-quadrature oracle values for the autocorrelation kernel at
# l=2, d=10, wavelength 0.04, P=1 (kernel_value_quad, abs err < 1e-8);
# the (0.5, 1.5) value was confirmed by 3000-node Gauss-Legendre to 1.4e-11
KERNEL_ORACLE_05_15 = complex(2737.013231770734, 0.0)
KERNEL_ORACLE_05_13 = complex(-964.3417449911285, -2467.7047220873446)

# tensor-product Gauss-Legendre (4000 nodes per axis) total received power
# at the default config; two further independent routes (2000-node tensor,
# adaptive quadrature on the difference-coordinate reduction) agree to 5e-15
TRACE_ORACLE_DEFAULT = 871047.6736983273


def test_green_depends_only_on_offset(default_cfg):
    assert green_scalar(1.0, 0.3, default_cfg) == green_scalar(0.7, 0.0, default_cfg)


def test_green_translation_property(default_cfg):
    rng = np.random.default_rng(7)
    for r, s, delta in rng.uniform(-3.0, 3.0, size=(50, 3)):
        a = green_scalar(r + delta, s + delta, default_cfg)
        b = green_scalar(r, s, default_cfg)
        assert a == pytest.approx(b, rel=1e-9)


def test_green_zero_offset_closed_form():
    cfg = SystemConfig(distance_m=1.0)
    val = green_scalar(0.5, 0.5, cfg)
    assert val == pytest.approx(G_AT_ZERO_OFFSET_D1, rel=1e-12)


def test_green_amplitude_decays_with_distance():
    near = green_scalar(0.0, 0.0, SystemConfig(distance_m=1.0))
    far = green_scalar(0.0, 0.0, SystemConfig(distance_m=2.0))
    assert abs(far) < abs(near)


def test_green_finite_over_wide_offsets(default_cfg):
    x = np.linspace(-50.0, 50.0, 2001)
    vals = green_scalar(x, np.zeros_like(x), default_cfg)
    assert np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="needs an extended long double")
def test_green_offset_against_long_double_modulo_the_common_phase():
    # G evaluated in long double from the same float64 offsets and wave
    # number, phase k (r - d) as k x^2 / (r + d): after one common phase is
    # divided out, every value agrees to 2.5e-13 relative, about 3x the
    # worst measured (8.1e-14 at d = 0.1 m, where k (r - d) is 300 rad).
    # A phase formed from k r would carry eps k r of noise: 2.5e-12 at
    # d = 100 m and 6.7e-12 at lambda = 5 mm, l = 0.5 m, d = 30 m
    ld = np.longdouble
    for lam, length, d in ((0.04, 2.0, 10.0), (0.04, 2.0, 100.0), (0.04, 2.0, 300.0),
                           (0.04, 2.0, 0.1), (0.005, 2.0, 10.0), (0.005, 0.5, 30.0)):
        cfg = SystemConfig(wavelength_m=lam, aperture_m=length, distance_m=d)
        x = np.linspace(-length, length, 4001)
        xl, dl, k = x.astype(ld), ld(d), ld(cfg.wavenumber)
        r = np.sqrt(xl * xl + dl * dl)
        t, n = dl * dl / (r * r), (dl * dl - 2 * xl * xl) / (r * r)
        phase = np.exp(1j * (k * xl * xl / (r + dl)).astype(np.clongdouble))
        exact = 1j * ld(physics.Z0_OHMS) / (2 * ld(lam) * r) * phase * (
            t + 1j * n / (k * r) - n / (k * r) ** 2)
        ratio = green_offset(x, cfg) / exact
        common = ratio.mean() / abs(ratio.mean())
        assert np.max(np.abs(ratio / common - 1)) <= 2.5e-13, (lam, length, d)


def test_green_scalar_carries_the_common_phase():
    # green_offset leaves out the unit factor exp(i k d), which no singular
    # value or |G| depends on; green_scalar is G itself. At d = 1.01 m,
    # lambda = 0.04 m that factor is a quarter turn, exp(i 2 pi 25.25) = i
    cfg = SystemConfig(distance_m=1.01)
    kd = cfg.wavenumber * cfg.distance_m
    closed = 1j * physics.Z0_OHMS / (2.0 * 0.04 * 1.01) * cmath.exp(1j * kd) * (
        1.0 + 1j / kd - 1.0 / kd**2)
    assert green_scalar(0.5, 0.5, cfg) == pytest.approx(closed, rel=1e-12)
    assert abs(green_offset(0.0, cfg) / closed - (-1j)) < 1e-12


def test_config_invariants():
    cfg = SystemConfig(wavelength_m=0.08)
    assert cfg.wavenumber * cfg.wavelength_m == pytest.approx(2.0 * math.pi, rel=1e-15)
    # a bool passes each numeric check as 0 or 1 (True, a 1 m wavelength), so
    # it is refused like any value out of range, in one line naming its field
    for bad in (dict(wavelength_m=0.0), dict(aperture_m=-1.0), dict(distance_m=0.0),
                dict(power_density=-0.5), dict(noise_density=0.0), dict(wavelength_m=True),
                dict(aperture_m=np.True_), dict(distance_m=True), dict(power_density=True),
                dict(power_density=np.False_), dict(noise_density=np.True_)):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be "):
            SystemConfig(**bad)


def test_config_refuses_an_overflowing_snr_scale():
    # 2 / n0 overflows at a subnormal n0, 2 P / n0 at P near the largest
    # float, and 2 P B / n0 at (1e300, 1e-5) with the default geometry's
    # spectrum bound B = 8.9e5; each would reach a spectrum as inf and a
    # model value as nan
    for power, noise in ((1.0, 1e-320), (0.0, 1e-320), (1e308, 1.0), (1e300, 1e-10),
                         (1e300, 1e-5)):
        with pytest.raises(ValueError, match="SNR scale 2 / n0 or 2 P / n0 overflow"):
            SystemConfig(power_density=power, noise_density=noise)
    for power, noise in ((1e-300, 1e-300), (0.0, 1e-300)):
        SystemConfig(power_density=power, noise_density=noise)


def test_config_checks_numpy_floats_without_warnings():
    # numpy scalars overflow with a RuntimeWarning where Python floats give
    # inf, so both checks run in Python floats: the same one-line ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="SNR scale 2 / n0 or 2 P / n0 overflow"):
            SystemConfig(power_density=np.float64(1e306), noise_density=1.0)
        with pytest.raises(ValueError, match="distance_m 1e[+]200 overflow"):
            SystemConfig(distance_m=np.float64(1e200))
        SystemConfig(power_density=np.float64(1e300), distance_m=np.float64(1e100))


@pytest.mark.parametrize("geometry", [
    dict(distance_m=1e160),       # d^2 overflows
    dict(distance_m=1e153),       # d^2 is finite, (k d)^2 is not
    dict(wavelength_m=1e-300),    # l^2 Gmax^2 overflows
    dict(wavelength_m=1e200, distance_m=1e150),  # Gmax underflows, 2 lam r overflows
])
def test_config_refuses_a_geometry_whose_arithmetic_overflows(geometry):
    # refused before the SNR check, in one line naming the three lengths
    defaults = {"wavelength_m": 0.04, "aperture_m": 2.0, "distance_m": 10.0}
    lam, length, d = {**defaults, **geometry}.values()
    with pytest.raises(ValueError) as refused:
        SystemConfig(**geometry)
    assert str(refused.value).startswith(
        f"wavelength_m {lam}, aperture_m {length} and distance_m {d} overflow ")


def test_config_refuses_a_geometry_whose_spectrum_bound_underflows():
    # at l = 9.2e-275 m B = l^2 Gmax^2 rounds to 0, and so did the unit-power
    # trace, which the discrete models divide by; at wavelength = d = 1e83 m
    # Gmax^2 rounds to 0, and so did an antenna channel's ||A||_F^2: both
    # raised ZeroDivisionError from mi_discrete_rx(19 or 2, cfg), and both
    # are refused like an overflow, in one line
    for lam, length, d in ((1.7836103185838502e-05, 9.235640652690558e-275, 2866.7999267627497),
                           (0.04, 1e-160, 10.0), (1e83, 1e10, 1e83)):
        with pytest.raises(ValueError, match=r"overflow or underflow 2 r\^2, "):
            SystemConfig(wavelength_m=lam, aperture_m=length, distance_m=d)
    SystemConfig(aperture_m=1e-150)


def test_every_accepted_geometry_evaluates_without_warnings():
    # wavelength, aperture and distance drawn log-uniformly over the floats:
    # wherever SystemConfig accepts them, G and |G|^2 are finite at offsets
    # across [-l, l] without an overflow or a division by zero; 25,000 rows,
    # since about half the draws whose arithmetic does not overflow underflow
    # (1212 accepted, 949 of them in the first 20,000 rows)
    rng = np.random.default_rng(11)
    accepted = 0
    for lam, length, d in 10.0 ** rng.uniform(-320.0, 308.0, size=(25000, 3)):
        try:
            cfg = SystemConfig(wavelength_m=lam, aperture_m=length, distance_m=d)
        except ValueError:
            continue
        accepted += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = green_offset(np.array([-1.0, -0.5, 0.0, 0.3, 1.0]) * length, cfg)
            assert np.all(np.isfinite(g.real**2 + g.imag**2)), (lam, length, d)
    assert accepted > 1000


def test_kernel_value_zero_power():
    cfg = SystemConfig(power_density=0.0)
    assert kernel_value(0.3, 1.1, cfg, 64) == 0.0 + 0.0j


def test_kernel_value_diagonal_real_nonnegative(default_cfg):
    for r in (0.0, 0.37, 1.0, 2.0):
        val = kernel_value(r, r, default_cfg, 256)
        assert val.imag == 0.0
        assert val.real >= 0.0


def test_kernel_value_conjugate_symmetry(default_cfg):
    for r, rp in ((0.1, 1.9), (0.5, 0.6), (1.25, 0.4)):
        assert kernel_value(r, rp, default_cfg, 512) == \
            kernel_value(rp, r, default_cfg, 512).conjugate()


def test_kernel_value_rejects_tiny_quadrature(default_cfg):
    with pytest.raises(ValueError):
        kernel_value(0.1, 0.2, default_cfg, 1)


def test_kernel_value_against_adaptive_quadrature(default_cfg):
    # composite Gauss-Legendre source rule: at the default 1000 nodes and
    # at 4000 it matches adaptive quadrature to the oracle's own accuracy
    # (1.6e-12 relative at this configuration)
    live = kernel_value_quad(0.5, 1.5, default_cfg)
    assert live == pytest.approx(KERNEL_ORACLE_05_15, abs=1e-6)
    val = kernel_value(0.5, 1.5, default_cfg, 4000)
    assert abs(val - live) / abs(live) < 1e-10
    val1k = kernel_value(0.5, 1.5, default_cfg, 1000)
    assert abs(val1k - live) / abs(live) < 1e-10


def test_kernel_value_complex_pair_oracle(default_cfg):
    live = kernel_value_quad(0.5, 1.3, default_cfg)
    assert live == pytest.approx(KERNEL_ORACLE_05_13, rel=1e-9)
    val = kernel_value(0.5, 1.3, default_cfg, 4000)
    assert abs(val - live) / abs(live) < 1e-10


def test_kernel_diagonal_matches_scalar_path(default_cfg):
    pts = np.array([0.2, 0.9, 1.7])
    diag = kernel_diagonal(pts, default_cfg, 512)
    for p, expected in zip(pts, diag):
        assert kernel_value(float(p), float(p), default_cfg, 512).real == expected
    # a scalar and a 2-D array keep their shape and match the 1-D call bitwise
    scalar = kernel_diagonal(0.9, default_cfg, 512)
    assert scalar.shape == () and scalar == diag[1]
    square = kernel_diagonal(np.stack([pts, pts[::-1]]), default_cfg, 512)
    assert np.array_equal(square, np.stack([diag, diag[::-1]]))


def test_kernel_diagonal_holds_one_array_beside_one_block():
    # the diagonal is scaled by P in place, not copied: the traced peak is its
    # 8 B per position plus one green_block_rows block of green_offset
    # temporaries (about 100 B per entry), where a scaled copy reads 16 B
    positions = np.linspace(0.0, 2.0, 1_000_000)
    tracemalloc.start()
    try:
        kernel_diagonal(positions, SystemConfig(power_density=3.7), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * positions.size + 128 * physics.green_block_rows(2) * 2


def test_trace_zero_power():
    assert operator_trace(SystemConfig(power_density=0.0), 16) == 0.0


def test_trace_linear_in_power(default_cfg):
    doubled = SystemConfig(power_density=2.0)
    assert operator_trace(doubled, 128) == 2.0 * operator_trace(default_cfg, 128)


def test_trace_against_gauss_oracle(default_cfg):
    assert operator_trace(default_cfg) == pytest.approx(TRACE_ORACLE_DEFAULT, rel=1e-4)
    # cheap independent re-derivation of the frozen constant
    nodes, weights = gauss_legendre_nodes(600, default_cfg.aperture_m)
    from capmimo.physics import green_offset
    g = green_offset(nodes[:, None] - nodes[None, :], default_cfg)
    redo = float(np.einsum("i,j,ij->", weights, weights, g.real**2 + g.imag**2))
    assert redo == pytest.approx(TRACE_ORACLE_DEFAULT, rel=1e-9)
    quad_route = total_power_quad(default_cfg)
    assert quad_route == pytest.approx(TRACE_ORACLE_DEFAULT, rel=1e-10)


def test_trace_refinement_order():
    # the default rule, one 16-node panel per min(wavelength, d), already
    # agrees with twice as many nodes to roundoff over 45 geometries
    # (worst 3.6e-16 relative)
    for lam, l, d in itertools.product((0.01, 0.04, 0.3), (0.5, 2.0, 5.0),
                                       (0.01, 0.1, 1.0, 10.0, 200.0)):
        cfg = SystemConfig(wavelength_m=lam, aperture_m=l, distance_m=d)
        n = cfg.default_inner_points()
        fine = operator_trace(cfg, 2 * n)
        assert abs(operator_trace(cfg, n) - fine) <= 1e-12 * fine, (lam, l, d)


def test_trace_equals_weighted_diagonal_sum(default_cfg):
    # the one-dimensional trace equals the square's tensor Gauss-Legendre
    # rule: diagonal kernel values on 300 receive nodes, 700 source nodes
    grid = gauss_legendre_grid(default_cfg.aperture_m, 300)
    diag_sum = sum(w * kernel_value(float(r), float(r), default_cfg, 700).real
                   for r, w in zip(grid.points, grid.weights))
    assert operator_trace(default_cfg) == pytest.approx(diag_sum, rel=1e-13)


@pytest.mark.parametrize("length", [2.0, 0.37])
def test_gauss_legendre_mirror_symmetric(length):
    # the centrosymmetric split needs x[::-1] = l - x and mirrored weights;
    # n = 17 has one panel of 9 and one of 8 nodes, so it takes three
    # panels of 6, 5 and 6 nodes instead
    eps = np.finfo(np.float64).eps
    for n in (*range(2, 201), 999, 1000, 1001, 1600):
        grid = gauss_legendre_grid(length, n)
        x, w = grid.points, grid.weights
        assert np.max(np.abs(x[::-1] - (length - x))) <= 2 * eps * length, n
        assert np.array_equal(w[::-1], w), n
        assert abs(float(np.sum(w)) - length) <= 4 * eps * length, n
    w = gauss_legendre_grid(length, 17).weights
    panels = [w[:6].sum(), w[6:11].sum(), w[11:].sum()]
    assert panels == pytest.approx([6 * length / 17, 5 * length / 17, 6 * length / 17],
                                   rel=1e-14)


def test_panel_rules_match_leggauss():
    # each panel's rule comes from Newton's method on the Legendre
    # recurrence; against numpy.polynomial's leggauss, the oracle's rule,
    # for every order the composite rule uses (1 to 17): nodes within an
    # ulp (mapped to (0, 2)) and weights within 3e-14 relative, where both
    # are within 1.5e-14 of a 40-digit evaluation
    eps = np.finfo(np.float64).eps
    for order in range(1, 18):
        x, w = _legendre_rule(order)
        nodes, weights = gauss_legendre_nodes(order, 2.0)
        assert np.max(np.abs((x + 1.0) - nodes)) <= 2 * eps, order
        assert np.max(np.abs(w - weights) / weights) <= 3e-14, order


def test_trace_rejects_tiny_grids(default_cfg):
    for nodes in (1, 0):
        with pytest.raises(ValueError):
            operator_trace(default_cfg, nodes)
    with pytest.raises(ValueError):
        kernel_diagonal(np.array([0.5]), default_cfg, 1)
