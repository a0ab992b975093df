"""The three mutual-information models, SNR rescaling, and DoF counting."""

import dataclasses
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from capmimo import (
    SystemConfig,
    dof_estimate,
    mi_continuous,
    mi_discrete_rx,
    mi_discrete_trx,
    midpoint_grid,
    noise_rx,
    noise_trx,
)
from capmimo import cli, models, physics, spectra
from capmimo.physics import gauss_legendre_grid, green_offset, kernel_diagonal
from capmimo.spectra import (
    assemble_kernel_matrix,
    hermitian_eigenvalues,
    logdet_from_eigenvalues,
)

from oracles import (
    converged_operator_spectrum,
    diagonal_power_quad,
    full_matrix_spectrum,
    mi_continuous_oracle,
    prolate_concentration_spectrum,
    total_power_quad,
)

# scripted evaluations of the SNR-matching ratios at the default config
# with adaptive quadrature for every integral (see test bodies for the
# live recomputation): receiver rescaling at m=4 and transceiver
# rescaling at m1 = m2 = 4
N_RX_ORACLE_M4 = 4.002362089337236
N_TRX_ORACLE_44 = 8.009459269328541


def _logdet(K: np.ndarray, scale: float) -> float:
    return logdet_from_eigenvalues(hermitian_eigenvalues(K).eigenvalues, scale)


@pytest.fixture
def constant_channel(monkeypatch):
    """Patch the propagation coefficient to a constant 0.5.

    Uses an off-default wavelength so the cached results of the patched
    channel can never collide with cached values of real configurations.
    """

    def fake(x, cfg):
        return np.full(np.shape(np.asarray(x, dtype=float)), 0.5 + 0.0j)

    monkeypatch.setattr("capmimo.physics.green_offset", fake)
    monkeypatch.setattr("capmimo.spectra.green_offset", fake)
    monkeypatch.setattr("capmimo.models.green_offset", fake)
    return SystemConfig(wavelength_m=0.123456)


# ------------------------------------------------------------ continuous

@pytest.mark.parametrize("name, valid, invalid", [
    ("ref_m", lambda cfg: mi_continuous(cfg, 64), lambda cfg: mi_continuous(cfg, 64.0)),
    ("m", lambda cfg: mi_discrete_rx(4, cfg), lambda cfg: mi_discrete_rx(4.5, cfg)),
    ("m", lambda cfg: mi_discrete_rx(4, cfg), lambda cfg: mi_discrete_rx(4.0, cfg)),
    ("inner_points", lambda cfg: mi_discrete_rx(4, cfg, 256),
     lambda cfg: mi_discrete_rx(4, cfg, 256.0)),
    ("m1", lambda cfg: mi_discrete_trx(3, 3, cfg), lambda cfg: mi_discrete_trx(3.0, 3, cfg)),
    ("m2", lambda cfg: mi_discrete_trx(3, 3, cfg),
     lambda cfg: mi_discrete_trx(3, np.float64(3.0), cfg)),
    *(pytest.param(name, valid, invalid, id=f"{name}-bool") for name, valid, invalid in [
        ("ref_m", lambda cfg: mi_continuous(cfg, 64), lambda cfg: mi_continuous(cfg, True)),
        ("m", lambda cfg: mi_discrete_rx(4, cfg), lambda cfg: mi_discrete_rx(True, cfg)),
        ("inner_points", lambda cfg: mi_discrete_rx(4, cfg, 256),
         lambda cfg: mi_discrete_rx(4, cfg, np.True_)),
        ("m1", lambda cfg: mi_discrete_trx(3, 3, cfg), lambda cfg: mi_discrete_trx(True, 3, cfg)),
        ("m2", lambda cfg: mi_discrete_trx(3, 3, cfg),
         lambda cfg: mi_discrete_trx(3, np.True_, cfg)),
    ]),
])
def test_non_integer_counts_rejected_cold_and_warm(name, valid, invalid):
    # a float count equal to an integer hashes like it, and a bool is one
    # (True == 1), so each must be refused before any cache lookup: the same
    # one-line error whether or not the integer call has filled the cache
    cfg = SystemConfig()
    models._spectrum.cache_clear()
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        invalid(cfg)
    valid(cfg)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        invalid(cfg)


def test_numpy_integer_counts_accepted():
    cfg = SystemConfig()
    ref = mi_continuous(cfg, np.int64(64))
    assert ref.ref_m == 64 and type(ref.ref_m) is int
    assert ref == mi_continuous(cfg, 64)
    assert mi_discrete_rx(np.int32(4), cfg, np.int64(256)) == mi_discrete_rx(4, cfg, 256)
    assert mi_discrete_trx(np.int64(3), np.uint8(5), cfg) == mi_discrete_trx(3, 5, cfg)


def test_counts_below_one_rejected():
    cfg = SystemConfig()
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        mi_discrete_rx(0, cfg)
    with pytest.raises(ValueError, match=r"^m1 must be >= 1, got 0$"):
        mi_discrete_trx(0, 3, cfg)
    # a grid built by hand with no nodes reaches neither noise rescaling
    empty = dataclasses.replace(midpoint_grid(2.0, 1), m=0, points=np.empty(0))
    with pytest.raises(ValueError, match="^grid must be nonempty$"):
        noise_rx(empty, cfg)
    with pytest.raises(ValueError, match="^grids must be nonempty$"):
        noise_trx(midpoint_grid(2.0, 3), empty, cfg)


def test_noise_rescalings_refuse_a_grid_off_the_aperture():
    # the trace and the gap bound integrate over the aperture [0, l]: antennas
    # on [0, 1] under a 2 m aperture would be matched against the wrong length
    cfg = SystemConfig()
    off, on = midpoint_grid(1.0, 10), midpoint_grid(2.0, 4)
    message = "^grid length 1.0 is not aperture_m 2.0$"
    with pytest.raises(ValueError, match=message):
        noise_rx(off, cfg)
    for rx, tx in ((off, on), (on, off)):
        with pytest.raises(ValueError, match=message):
            noise_trx(rx, tx, cfg)


@pytest.mark.parametrize("call", [physics.operator_trace, lambda cfg: mi_discrete_trx(4, 4, cfg)])
def test_trace_rule_sized_before_it_is_built(call, monkeypatch):
    # at wavelength 2.5e-5 m the trace takes a 1.28e6-node rule and its |G|^2
    # pass, over 90 MB, while model_sides sizes only a 2 x 4 channel: with
    # 64 MB of physical memory the rule is refused before it is built
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (64 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^a 1280000-node Gauss-Legendre rule needs about "
                                             r".* GiB, more than the 0\.0625 GiB"):
            call(SystemConfig(wavelength_m=2.5e-5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_noise_rx_sized_before_its_diagonal_is_allocated(monkeypatch):
    # the library refuses the step the command line's bounds refuses: with
    # 40 MiB of physical memory a 3e6-antenna grid (24 MB of points) is built;
    # with 20 MiB its noise_rx step, charged for its 24 MB diagonal but not
    # for the grid it is handed, is refused in one line before the diagonal
    # is allocated
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (40 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    grid = midpoint_grid(2.0, 3_000_000)
    pages["SC_PHYS_PAGES"] = (20 << 20) // 4096
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            noise_rx(grid, SystemConfig(), inner_points=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(exc.value)
    assert message.startswith("a bounds step on 3000000 antennas and 2 source nodes needs about")
    assert "\n" not in message and "physical memory" in message
    assert peak < 1 << 20


def test_noise_rx_is_not_charged_for_the_grid_it_is_handed(monkeypatch, capsys):
    # noise_rx is handed a grid that already exists, so only the step is
    # charged: with 24 MiB of physical memory a 2e6-antenna step (its 16 MB
    # diagonal) runs beside its 16 MB grid. The command line's bounds,
    # which builds that grid for the step, is charged for it and refused
    # before any output
    grid = midpoint_grid(2.0, 2_000_000)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (24 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    control = noise_rx(grid, SystemConfig(), inner_points=2)
    assert math.isfinite(control.n_value) and control.n_value > 0.0
    assert cli.main(["bounds", "--m-list", "2000000", "--inner-points", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a bounds step on 2000000 antennas and 2 source "
                                   "nodes needs about")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("step", [
    lambda cfg: noise_rx(midpoint_grid(2.0, 2), cfg, inner_points=2),
    lambda cfg: noise_trx(midpoint_grid(2.0, 2), midpoint_grid(2.0, 2), cfg)])
def test_profile_charged_before_it_is_sampled(step, monkeypatch):
    # the gap bound's |G|^2 profile (80003 offsets) traces a 5.0 MB peak
    # whatever the antenna count: with 4 MiB of physical memory a step on 2
    # antennas is refused in one line before the profile is sampled, and
    # the profile's charge covers that peak
    cfg = SystemConfig()
    models._profile_curvatures.cache_clear()
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (4 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ValueError) as exc:
        step(cfg)
    assert "\n" not in str(exc.value) and "physical memory" in str(exc.value)
    assert models._profile_curvatures.cache_info().currsize == 0
    monkeypatch.undo()
    tracemalloc.start()
    try:
        models._profile_curvatures(models._geometry(cfg))
        profile = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 << 20 < profile <= physics.check_arrays("the |G|^2 profile", models._PROFILE)


def test_noise_rx_step_that_fits_is_run(monkeypatch):
    # a step is charged what it holds: 2.6e6 antennas take 21 MB of points
    # and 21 MB of diagonal, which fit in 64 MiB of physical memory; beside
    # the grid the step traces its diagonal alone, freed before the gap
    # bound's |G|^2 profile (6.4 MB) is sampled
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (64 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    grid = midpoint_grid(2.0, 2_600_000)
    tracemalloc.start()
    try:
        control = noise_rx(grid, SystemConfig(), inner_points=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(control.n_value) and control.n_value > 0.0
    assert peak < 9 * grid.m


@pytest.mark.parametrize("model_tag", [models.MODEL_DISCRETE_RX, models.MODEL_CONTINUOUS])
def test_model_sides_refuses_exactly_where_the_solve_does(model_tag, monkeypatch):
    # the evaluated rows are sized by one rule, the charge of their solve
    # plan: with physical memory at the charge of 33 x 64 rows, model_sides
    # and centrosymmetric_spectrum refuse the same (p, q), odd p included
    cfg = SystemConfig()
    rule = midpoint_grid if model_tag == models.MODEL_DISCRETE_RX else gauss_legendre_grid

    def plan(p, q):
        panels = p if rule is midpoint_grid else physics.gauss_legendre_panels(p)
        return spectra.solve_plan((p, panels), (q, physics.gauss_legendre_panels(q)),
                                  -(-p // 2), True)

    charge = physics.check_arrays("charge", *plan(65, 64).phases())
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": charge}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)

    def refused(call, *args, **kwargs) -> bool:
        try:
            call(*args, **kwargs)
        except ValueError as exc:
            assert "physical memory" in str(exc)
            return True
        return False

    verdicts = set()
    for p in range(64, 70):
        for q in (63, 64, 65):
            if model_tag == models.MODEL_CONTINUOUS:
                monkeypatch.setattr(SystemConfig, "default_inner_points", lambda self: q)
            verdict = refused(models.model_sides, cfg, model_tag, m2=p, ref_m=p, inner_points=q)
            grids = rule(cfg.aperture_m, p), gauss_legendre_grid(cfg.aperture_m, q)
            assert refused(spectra.centrosymmetric_spectrum, *grids, cfg) == verdict
            assert refused(lambda: plan(p, q).check(*plan(p, q).phases())) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_mi_continuous_zero_power():
    res = mi_continuous(SystemConfig(power_density=0.0), ref_m=64)
    assert res.value_nats == 0.0
    assert res.model_tag == "continuous"


def test_mi_continuous_eigen_sum_equals_logdet(default_cfg):
    res = mi_continuous(default_cfg, ref_m=128)
    recomputed = float(np.sum(np.log1p((2.0 / default_cfg.noise_density) * res.eigenvalues)))
    assert res.value_nats == recomputed


def test_mi_continuous_rejects_coarse_reference(default_cfg):
    with pytest.raises(ValueError):
        mi_continuous(default_cfg, ref_m=32)


def test_mi_continuous_reference_refinement(default_cfg):
    coarse = mi_continuous(default_cfg, ref_m=1600).value_nats
    fine = mi_continuous(default_cfg, ref_m=3200).value_nats
    assert abs(coarse - fine) / fine < 1e-4


@pytest.mark.parametrize("cfg, nodes", [
    pytest.param(SystemConfig(distance_m=10.0), 512, id="10.0"),
    pytest.param(SystemConfig(distance_m=1.0), 512, id="1.0"),
    pytest.param(SystemConfig(distance_m=0.1), 512, id="0.1"),
    pytest.param(SystemConfig(aperture_m=1.0, distance_m=0.01), 1024, id="l1-d0.01"),
])
def test_mi_continuous_matches_nystrom_svd_oracle(cfg, nodes):
    # the default reference (default_ref_m reference nodes against the
    # node rule's source nodes: 1600 x 800 at l = 2 m, 1600 x 1600 at
    # l = 1 m, d = 0.01 m; squared singular values of its two
    # centrosymmetric halves) against a square 2n-node Nystrom matrix solved
    # by a full SVD and checked against n nodes; measured, in order, 1.2e-15, 7.7e-16,
    # 5.9e-16 and 1.2e-16 relative, where the Gram matrix + Hermitian
    # eigensolver route missed by 1.7e-11, 7.0e-11 and 4.2e-10 at d = 10,
    # 1, 0.1 m (its roundoff floor), the former 1600-point midpoint
    # reference by 1.1e-5, 4.6e-5 and 4.3e-5, and a source rule blind to d
    # (512 nodes) by 28.7 nats (7.4e-3) at d = 0.01 m
    oracle = mi_continuous_oracle(cfg, nodes)
    value = mi_continuous(cfg).value_nats
    assert abs(value - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("ref_m, inner_points", [(65, 129), (129, 65), (97, 97)])
def test_mi_continuous_odd_sizes_keep_every_singular_value(ref_m, inner_points, monkeypatch):
    # odd node counts put a middle row and column into the split; the
    # spectrum still has min(ref_m, source nodes) entries, those of the
    # whole Nystrom matrix. The node rule only yields multiples of 16, so
    # the odd source counts are put in its place.
    cfg = SystemConfig(distance_m=1.0)
    monkeypatch.setattr(SystemConfig, "default_inner_points", lambda self: inner_points)
    models._spectrum.cache_clear()
    try:
        res = mi_continuous(cfg, ref_m=ref_m)
    finally:
        models._spectrum.cache_clear()
    assert res.eigenvalues.size == min(ref_m, inner_points)
    assert res.inner_points == inner_points
    ref = gauss_legendre_grid(cfg.aperture_m, ref_m)
    source = gauss_legendre_grid(cfg.aperture_m, inner_points)
    oracle = full_matrix_spectrum(cfg, ref.points, source.points, ref.weights, source.weights)[0]
    assert np.max(np.abs(res.eigenvalues - oracle)) <= 1e-13 * oracle[0]


def test_reference_memory_guard_sizes_the_evaluated_half(monkeypatch):
    # only the top ceil(ref_m / 2) rows of the reference matrix are
    # evaluated: with physical memory between the half's and the whole
    # matrix's estimate the reference must still be computed
    cfg = SystemConfig(distance_m=7.25)
    n_source = cfg.default_inner_points()
    plan = spectra.solve_plan((64, 4), (n_source, n_source // 16), 32, True)
    half = physics.check_arrays("charge", *plan.phases())
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 3 * half // 2}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    models._spectrum.cache_clear()
    assert mi_continuous(cfg, ref_m=64).eigenvalues.size == 64
    with pytest.raises(ValueError, match="physical memory"):
        mi_continuous(cfg, ref_m=128)


def test_every_model_sizes_its_matrix_before_allocating():
    # one rule decides and sizes the two sides of every model call; a
    # discrete cell too large for memory is refused before its grids are
    # built (4e6 antennas would take 32 MB per grid array)
    cfg = SystemConfig(distance_m=0.1)
    source = cfg.default_inner_points(), gauss_legendre_grid
    sides = models.model_sides
    assert sides(cfg, models.MODEL_CONTINUOUS) == ((1600, gauss_legendre_grid), source)
    assert sides(cfg, models.MODEL_CONTINUOUS, ref_m=101) == ((101, gauss_legendre_grid), source)
    assert sides(cfg, models.MODEL_DISCRETE_RX, m2=7) == ((7, midpoint_grid), source)
    assert sides(cfg, models.MODEL_DISCRETE_RX, m2=7, inner_points=96) == (
        (7, midpoint_grid), (96, gauss_legendre_grid))
    # the transceiver in the orientation it is solved in: the smaller
    # count on the receive side
    assert sides(cfg, models.MODEL_DISCRETE_TRX, 5, 8) == ((5, midpoint_grid), (8, midpoint_grid))
    assert sides(cfg, models.MODEL_DISCRETE_TRX, 8, 5) == ((5, midpoint_grid), (8, midpoint_grid))
    for call in (lambda: mi_discrete_rx(4 * 10**6, cfg),
                 lambda: mi_discrete_trx(4 * 10**6, 4 * 10**6, cfg)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_mi_continuous_monotone_in_power(default_cfg):
    values = [mi_continuous(SystemConfig(power_density=p), ref_m=64).value_nats
              for p in (0.0, 0.5, 1.0, 2.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------- rx rescaling

def test_noise_rx_oracle_m4(default_cfg):
    grid = midpoint_grid(default_cfg.aperture_m, 4)
    control = noise_rx(grid, default_cfg)
    numerator = sum(diagonal_power_quad(float(r), default_cfg) for r in grid.points)
    live = default_cfg.noise_density * numerator / total_power_quad(default_cfg)
    assert live == pytest.approx(N_RX_ORACLE_M4, rel=1e-10)
    assert control.n_value == pytest.approx(live, rel=1e-8)
    assert control.limit_value == 4 * default_cfg.noise_density / default_cfg.aperture_m


def test_noise_rx_gap_within_bound_dense(default_cfg):
    control = noise_rx(midpoint_grid(default_cfg.aperture_m, 2000), default_cfg)
    assert control.gap <= control.gap_bound
    assert control.gap <= 1e-5 * default_cfg.noise_density


def test_noise_rx_constant_diagonal_limit(constant_channel):
    cfg = constant_channel
    for m in (3, 17):
        control = noise_rx(midpoint_grid(cfg.aperture_m, m), cfg)
        assert control.n_value == pytest.approx(m * cfg.noise_density / cfg.aperture_m,
                                                rel=1e-13)


def test_noise_rx_power_invariant(default_cfg):
    a = noise_rx(midpoint_grid(2.0, 16), default_cfg)
    for power in (7.5, 0.0):
        b = noise_rx(midpoint_grid(2.0, 16), SystemConfig(power_density=power))
        assert a.n_value == pytest.approx(b.n_value, rel=1e-12)


# ------------------------------------------------------------ rx model

def test_mi_discrete_rx_single_antenna_closed_form(default_cfg):
    res = mi_discrete_rx(1, default_cfg)
    grid = midpoint_grid(default_cfg.aperture_m, 1)
    k00 = assemble_kernel_matrix(grid, default_cfg)[0, 0].real
    expected = math.log1p(k00 * (2.0 / res.noise_used))
    assert res.value_nats == pytest.approx(expected, rel=1e-14)


def test_mi_discrete_rx_zero_power():
    res = mi_discrete_rx(5, SystemConfig(power_density=0.0))
    assert res.value_nats == 0.0
    assert res.noise_used == mi_discrete_rx(5, SystemConfig(power_density=1.0)).noise_used


def test_mi_discrete_rx_consistency_identity(default_cfg):
    m = 8
    res = mi_discrete_rx(m, default_cfg)
    K = assemble_kernel_matrix(midpoint_grid(default_cfg.aperture_m, m), default_cfg)
    assert res.value_nats == _logdet(K, 2.0 / res.noise_used)


def test_mi_discrete_rx_default_source_rule_converged_close_range():
    # at d = 0.01 m << wavelength the source rule must resolve d, not only
    # the wavelength: the default 1600 nodes agree with 3200 within 1.6e-16
    # relative (a rule blind to d, 512 nodes against 1024, missed by 2.9e-9
    # at m = 50 and 1.3e-8 at m = 200)
    cfg = SystemConfig(aperture_m=1.0, distance_m=0.01)
    for m in (50, 200):
        default = mi_discrete_rx(m, cfg).value_nats
        fine = mi_discrete_rx(m, cfg, 2 * cfg.default_inner_points()).value_nats
        assert abs(default - fine) <= 1e-12 * fine, m


def test_mi_discrete_rx_monotone_in_power():
    values = [mi_discrete_rx(8, SystemConfig(power_density=p)).value_nats
              for p in (0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# --------------------------------------------------------- trx rescaling

def test_noise_trx_oracle_4x4(default_cfg):
    grid = midpoint_grid(default_cfg.aperture_m, 4)
    control = noise_trx(grid, grid, default_cfg)
    from capmimo import assemble_channel_matrix
    H = assemble_channel_matrix(grid, grid, default_cfg)
    pair_sum = float(np.sum(np.abs(H) ** 2))
    live = default_cfg.noise_density * pair_sum / total_power_quad(default_cfg)
    assert live == pytest.approx(N_TRX_ORACLE_44, rel=1e-10)
    assert control.n_value == pytest.approx(live, rel=1e-7)
    assert control.limit_value == pytest.approx(16 * 2.0 / 4.0, rel=1e-15)


def test_noise_trx_peak_within_the_memory_guard():
    # ||H||_F^2 is read from H's float view with no temporary beside H: 16 B
    # per entry, where the sum of the squared real and imaginary parts held
    # two float arrays of H's size (32 B per entry, above the 31.3 the
    # guard charged for 2000 x 2000 at 30 B per entry)
    cfg = SystemConfig()
    grid = midpoint_grid(cfg.aperture_m, 2000)
    noise_trx(grid, grid, cfg)  # warms the trace and the curvature profile
    tracemalloc.start()
    try:
        noise_trx(grid, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = physics.green_offset_arrays((physics.GREEN_BLOCK_ENTRIES,))
    assert peak <= 30 * 2000 * 2000 + physics.check_arrays("charge", block)


def test_noise_trx_constant_channel_limit(constant_channel):
    cfg = constant_channel
    control = noise_trx(midpoint_grid(cfg.aperture_m, 6), midpoint_grid(cfg.aperture_m, 4), cfg)
    expected = 4 * 6 * cfg.noise_density / cfg.aperture_m**2
    assert control.n_value == pytest.approx(expected, rel=1e-13)


def test_noise_trx_gap_refinement(default_cfg):
    g100 = noise_trx(midpoint_grid(2.0, 100), midpoint_grid(2.0, 100), default_cfg)
    g400 = noise_trx(midpoint_grid(2.0, 400), midpoint_grid(2.0, 400), default_cfg)
    assert g100.gap <= g100.gap_bound
    assert g400.gap <= g400.gap_bound
    # quadratic in the antenna count: quadrupling m shrinks the gap ~16x
    assert g400.gap <= g100.gap / 15.0


def test_noise_trx_defined_at_zero_power():
    cfg = SystemConfig(power_density=0.0)
    grid = midpoint_grid(cfg.aperture_m, 4)
    control = noise_trx(grid, grid, cfg)
    assert control.n_value > 0


# ------------------------------------------------------------ trx model

def test_mi_discrete_trx_zero_power():
    res = mi_discrete_trx(4, 4, SystemConfig(power_density=0.0))
    assert res.value_nats == 0.0


def test_mi_discrete_trx_transmit_order_free(default_cfg):
    # the received correlation sums over transmit antennas; permuting the
    # summation order is exact in exact arithmetic
    from capmimo import assemble_channel_matrix
    from capmimo.spectra import gram_from_channel
    rx = midpoint_grid(2.0, 5)
    tx = midpoint_grid(2.0, 6)
    H = assemble_channel_matrix(rx, tx, default_cfg)
    perm = np.random.default_rng(0).permutation(6)
    v1 = _logdet(gram_from_channel(H, 1.0), 0.3)
    v2 = _logdet(gram_from_channel(H[:, perm], 1.0), 0.3)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_mi_discrete_trx_monotone_in_power():
    values = [mi_discrete_trx(6, 6, SystemConfig(power_density=p)).value_nats
              for p in (0.0, 1.0, 3.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ------------------------------------------- SNR matching and gap bounds

@pytest.mark.parametrize("distance", [10.0, 1.0, 0.1])
def test_profile_curvatures_match_direct_differences(distance):
    # independent estimates of both curvatures: central second differences
    # of the Gauss-Legendre diagonal itself (2001 points) and of |G|^2 on
    # [0, l] (40001 points); measured worst disagreement 1.3e-4 (d = 0.1 m)
    geometry = SystemConfig(distance_m=distance)
    l = geometry.aperture_m
    r = np.linspace(0.0, l, 2001)
    diag = kernel_diagonal(r, geometry, 1000)
    diag_second = np.diff(diag, 2) / (r[1] - r[0]) ** 2
    x = np.linspace(0.0, l, 40001)
    power = np.abs(green_offset(x, geometry)) ** 2
    power_second = np.diff(power, 2) / (x[1] - x[0]) ** 2
    diag_sup, power_sup = models._profile_curvatures(geometry)
    assert diag_sup == pytest.approx(np.abs(diag_second).max(), rel=1e-3)
    assert power_sup == pytest.approx(np.abs(power_second).max(), rel=1e-3)


def test_discrete_models_evaluate_each_coefficient_once(monkeypatch):
    # the SNR-matched noise reads ||A||_F^2 from the two centrosymmetric
    # halves the model solves, so a call with the trace warm evaluates each
    # coefficient of the top ceil(rows / 2) rows of A once and no curvature
    # profile; with the spectrum cached, a call at another (P, n0) none
    cfg = SystemConfig(distance_m=3.0, power_density=1.7)
    m, m1, m2, inner = 9, 7, 5, 256
    rx = mi_discrete_rx(m, cfg, inner)
    trx = mi_discrete_trx(m1, m2, cfg)
    counted = [0]

    def counting(x, cfg):
        counted[0] += np.size(x)
        return green_offset(x, cfg)

    # every module that evaluates propagation coefficients holds its own name
    for module in (physics, spectra, models):
        monkeypatch.setattr(module, "green_offset", counting)
    models._spectrum.cache_clear()
    assert mi_discrete_rx(m, cfg, inner) == rx
    assert counted[0] == (m + 1) // 2 * inner
    counted[0] = 0
    assert mi_discrete_trx(m1, m2, cfg) == trx
    assert counted[0] == (m2 + 1) // 2 * m1
    counted[0] = 0
    other = dataclasses.replace(cfg, power_density=0.4, noise_density=5.0)
    mi_discrete_rx(m, other, inner)
    mi_discrete_trx(m1, m2, other)
    assert counted[0] == 0
    l = cfg.aperture_m
    n_rx = noise_rx(midpoint_grid(l, m), cfg, inner).n_value
    n_trx = noise_trx(midpoint_grid(l, m2), midpoint_grid(l, m1), cfg).n_value
    assert rx.noise_used == pytest.approx(n_rx, rel=1e-13)
    assert trx.noise_used == pytest.approx(n_trx, rel=1e-13)


def test_default_sized_models_evaluate_each_table_entry_once(monkeypatch):
    # G is evaluated once per (lattice difference, pattern pair), the
    # table the top half of each matrix is gathered from: far fewer
    # evaluations than the entries it fills
    cfg = SystemConfig()
    mi_discrete_trx(1200, 800, cfg)  # warms the trace the noise density divides by
    counted = [0]

    def counting(x, cfg):
        counted[0] += np.size(x)
        return green_offset(x, cfg)

    for module in (physics, spectra, models):
        monkeypatch.setattr(module, "green_offset", counting)
    # 800 receive antennas (top 400) against 1200 transmit ones: steps 3 and 2
    # of l / lcm(800, 1200), differences -1199 * 2 .. 399 * 3, one pattern pair
    models._spectrum.cache_clear()
    mi_discrete_trx(1200, 800, cfg)
    assert counted[0] == 1199 * 2 + 399 * 3 + 1 == 3596
    assert 100 * counted[0] < 400 * 1200
    # the spectrum is cached on the geometry: another (P, n0) and the mirrored
    # pair evaluate nothing
    counted[0] = 0
    mi_discrete_trx(1200, 800, dataclasses.replace(cfg, power_density=3.0, noise_density=0.2))
    mi_discrete_trx(800, 1200, cfg)
    assert counted[0] == 0
    # 1600 reference nodes (top 800: 50 panels of 16) against 800 source nodes
    # (50 panels): steps 1 and 2 of l / 100, differences -49 * 2 .. 49, 16 x 16 pairs
    counted[0] = 0
    models._spectrum.cache_clear()
    mi_continuous(cfg, ref_m=1600)
    assert counted[0] == (49 * 2 + 49 + 1) * 16 * 16 == 37888
    assert 10 * counted[0] < 800 * 800


# ------------------------------------------------------------------ DoF

def test_half_wavelength_arrays_approach_the_continuous_aperture_with_scale():
    # the paper's headline at l = 2 m: half-wavelength arrays (m = 2 l / lambda)
    # come closer to the continuous aperture's MI as the aperture grows in
    # wavelengths, and neither ratio falls as l / lambda doubles. At d = 10 m
    # both keep at least 0.999 from l / lambda = 100 on, receiver (0.99921,
    # 0.99956, 0.99976 at l / lambda = 50, 100, 200) and transceiver (0.99841,
    # 0.99912, 0.99952) alike; nearer in they converge more slowly (d = 1 m:
    # 0.99638, 0.99807, 0.99898 and 0.99288, 0.99618, 0.99797; d = 0.1 m:
    # 0.97533, 0.99592, 0.99885 and 0.97479, 0.99413, 0.99791)
    for d in (10.0, 1.0, 0.1):
        ratios = []
        for per_wavelength in (50, 100, 200):
            cfg = SystemConfig(wavelength_m=2.0 / per_wavelength, distance_m=d)
            m = 2 * per_wavelength
            ref = mi_continuous(cfg).value_nats
            ratios.append((mi_discrete_rx(m, cfg).value_nats / ref,
                           mi_discrete_trx(m, m, cfg).value_nats / ref))
        for rx, trx in ratios[1:] if d == 10.0 else ():
            assert rx >= 0.999 and trx >= 0.999, ratios
        for before, after in zip(ratios, ratios[1:]):
            assert after[0] >= before[0] and after[1] >= before[1], (d, ratios)


def test_dof_analytic_values():
    assert dof_estimate(SystemConfig(distance_m=100.0), ref_m=64).analytic == 1.0
    assert dof_estimate(SystemConfig(distance_m=50.0), ref_m=64).analytic == 2.0


def test_dof_threshold_validation(default_cfg):
    with pytest.raises(ValueError):
        dof_estimate(default_cfg, ref_m=64, threshold_rel=0.0)
    with pytest.raises(ValueError):
        dof_estimate(default_cfg, ref_m=64, threshold_rel=1.0)


def test_dof_count_default_distance(default_cfg):
    # the converged Nystrom/SVD oracle settles the count: its 13th relative
    # eigenvalue is 8.09e-3, clear of the 1% threshold, so 12 eigenvalues
    # lie above it (the Fresnel-limit prolate oracle, 1.02e-2 there, is
    # too coarse at l/d = 0.2 to decide). The analytic rule gives 10; the
    # plunge-region modes add 2
    est = dof_estimate(default_cfg, ref_m=1600)
    oracle = converged_operator_spectrum(default_cfg)
    oracle_count = int(np.sum(oracle >= est.threshold_rel * oracle[0]))
    assert abs(oracle[12] / oracle[0] - est.threshold_rel) >= 1e-3
    assert est.analytic == 10.0
    assert est.eigen_count == oracle_count
    assert est.eigen_count == 12


def test_prolate_oracle_trace_and_half_level_count():
    # the oracle behind criterion 08: its trace is 2c/pi = N, and the count
    # above half the largest is floor(N) or floor(N) + 1 (Landau 1993)
    for tenths in range(2, 301):
        n_rule = tenths / 10.0
        spectrum = prolate_concentration_spectrum(math.pi * n_rule / 2.0, nodes=128)
        assert abs(float(spectrum.sum()) - n_rule) <= 1e-12
        count = int(np.sum(spectrum >= 0.5 * spectrum[0]))
        assert count in (math.floor(n_rule), math.floor(n_rule) + 1), n_rule
    coarse = prolate_concentration_spectrum(math.pi)
    fine = prolate_concentration_spectrum(math.pi, nodes=200)
    np.testing.assert_allclose(coarse[:5], fine[:5], rtol=1e-12)


def test_dof_zero_power():
    est = dof_estimate(SystemConfig(power_density=0.0), ref_m=64)
    assert est.eigen_count == 0


# ------------------------------------------------------- noise invariance

def test_results_power_of_two_noise_scaling(default_cfg):
    # doubling both P and n0 leaves every SNR, hence every value, unchanged
    doubled = dataclasses.replace(default_cfg, power_density=2.0, noise_density=4.0)
    a = mi_discrete_rx(8, default_cfg).value_nats
    b = mi_discrete_rx(8, doubled).value_nats
    assert a == pytest.approx(b, rel=1e-12)


_SCALE_INVARIANT_MODELS = {
    "continuous": lambda cfg: mi_continuous(cfg, ref_m=64),
    "discrete_rx": lambda cfg: mi_discrete_rx(6, cfg, inner_points=512),
    "discrete_trx": lambda cfg: mi_discrete_trx(5, 7, cfg),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(_SCALE_INVARIANT_MODELS))
def test_power_noise_scaling_reuses_geometry_caches(name, seed):
    # P and n0 enter only through the SNR P / n0, and every cache is keyed
    # on the geometry: scaling both by c changes no value and misses no cache
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(distance_m=float(rng.uniform(0.5, 20.0)),
                       power_density=float(rng.uniform(0.1, 10.0)),
                       noise_density=float(rng.uniform(0.1, 10.0)))
    c = float(rng.uniform(0.1, 10.0))
    scaled = dataclasses.replace(cfg, power_density=c * cfg.power_density,
                                 noise_density=c * cfg.noise_density)
    mi = _SCALE_INVARIANT_MODELS[name]
    first = mi(cfg).value_nats
    misses = {cache: count["misses"] for cache, count in models.cache_counts().items()}
    second = mi(scaled).value_nats
    assert second == pytest.approx(first, rel=1e-12)
    assert {cache: count["misses"] for cache, count in models.cache_counts().items()} == misses


def test_power_ladder_solves_each_discrete_spectrum_once():
    # three (P, n0) pairs at one geometry: each model's spectrum is solved at
    # the first pair and read from the cache at the other two, and every
    # value equals, bitwise, that of a call on an empty cache
    cfgs = [SystemConfig(power_density=p, noise_density=n0)
            for p, n0 in ((1.0, 2.0), (0.5, 0.2), (3.0, 0.02))]
    calls = (lambda cfg: mi_discrete_rx(40, cfg), lambda cfg: mi_discrete_rx(100, cfg),
             lambda cfg: mi_discrete_trx(100, 100, cfg))
    cold = []
    for cfg in cfgs:
        for call in calls:
            models._spectrum.cache_clear()
            cold.append(call(cfg))
    models._spectrum.cache_clear()
    warm = [call(cfg) for cfg in cfgs for call in calls]
    info = models._spectrum.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    assert warm == cold


def _spectrum_bound(cfg):
    """l^2 Gmax^2 with Gmax = Z0 / (2 lam d) (1 + 2 / (kd) + 2 / (kd)^2) >= |G|."""
    kd = cfg.wavenumber * cfg.distance_m
    peak = physics.Z0_OHMS / (2.0 * cfg.wavelength_m * cfg.distance_m) \
        * (1.0 + 2.0 / kd + 2.0 / kd**2)
    return (cfg.aperture_m * peak) ** 2


def test_snr_bound_holds_and_every_model_is_warning_free_inside_it():
    # |G| stays below Gmax over every offset in [-l, l], in the near and the
    # far field; P and n0 just inside P l^2 Gmax^2 and 2 P l^2 Gmax^2 / n0
    # run every model without an overflow warning, just outside are refused
    for geometry in (SystemConfig(), SystemConfig(wavelength_m=1.0, distance_m=1e-3),
                     SystemConfig(wavelength_m=1e-3, distance_m=300.0, aperture_m=50.0)):
        x = np.linspace(-geometry.aperture_m, geometry.aperture_m, 200001)
        peak = np.abs(green_offset(x, geometry)).max()
        assert peak**2 * geometry.aperture_m**2 <= _spectrum_bound(geometry)
    top = sys.float_info.max / _spectrum_bound(SystemConfig())
    for noise in (2.0, 1e-5):
        power = top / max(1.0, 2.0 / noise)
        with pytest.raises(ValueError, match="overflow"):
            SystemConfig(power_density=1.01 * power, noise_density=noise)
        cfg = SystemConfig(power_density=0.99 * power, noise_density=noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [mi_continuous(cfg, ref_m=64).value_nats, mi_discrete_rx(8, cfg).value_nats,
                      mi_discrete_trx(4, 6, cfg).value_nats]
            assert dof_estimate(cfg, ref_m=64).eigen_count > 0
        assert all(math.isfinite(v) and v > 0.0 for v in values)


def test_discrete_scale_holds_where_the_frobenius_norm_is_far_below_the_trace():
    # at d = 100 l one antenna pair samples ||A||_F^2 ~ T / 1e6, so 2 P / n
    # = 2 P T / (n0 ||A||_F^2) overflows, though the one scaled eigenvalue,
    # 2 P T / n0 itself, is finite: the spectrum is scaled by lambda /
    # ||A||_F^2 <= 1 first
    cfg = SystemConfig(wavelength_m=1.0, distance_m=1e5, aperture_m=1000.0,
                       power_density=1e302, noise_density=1.0)
    result = mi_discrete_trx(1, 1, cfg)
    trace = models._unit_trace(models._geometry(cfg))
    assert result.value_nats == pytest.approx(math.log1p(2.0 * 1e302 * trace), rel=1e-14)
    sides = models.model_sides(cfg, models.MODEL_DISCRETE_TRX, 1, 1)
    unit_power_sum = models._spectrum(models._geometry(cfg), *sides)[1]
    assert result.noise_used == cfg.noise_density * unit_power_sum / trace


# ------------------------------------------------------------- properties

def _random_config(rng: np.random.Generator) -> SystemConfig:
    return SystemConfig(distance_m=float(10.0 ** rng.uniform(-1.0, 1.7)),
                        power_density=float(rng.uniform(0.0, 10.0)),
                        noise_density=float(rng.uniform(0.1, 10.0)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(_SCALE_INVARIANT_MODELS))
def test_model_values_nonnegative(name, seed):
    cfg = _random_config(np.random.default_rng(100 + seed))
    value = _SCALE_INVARIANT_MODELS[name](cfg).value_nats
    assert math.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(_SCALE_INVARIANT_MODELS))
def test_model_nondecreasing_in_snr(name, seed):
    # P / n0 on a ladder whose steps are at least a factor 1.5, with P and
    # n0 drawn separately at each step
    rng = np.random.default_rng(200 + seed)
    geometry = _random_config(rng)
    snrs = np.cumprod(rng.uniform(1.5, 4.0, size=4)) * 0.05
    values = []
    for snr in snrs:
        power = float(rng.uniform(0.1, 10.0))
        cfg = dataclasses.replace(geometry, power_density=power,
                                  noise_density=float(power / snr))
        values.append(_SCALE_INVARIANT_MODELS[name](cfg).value_nats)
    assert all(b >= a for a, b in zip(values, values[1:])), values


def _oriented_trx_mi(cfg: SystemConfig, m1: int, m2: int) -> float:
    """mi_discrete_trx's value solved uncached as m2 receive against m1 transmit antennas."""
    values, unit_power_sum = models._spectrum(cfg, (m2, midpoint_grid), (m1, midpoint_grid))
    signal = cfg.power_density * models._unit_trace(models._geometry(cfg))
    return logdet_from_eigenvalues(values / unit_power_sum * signal, 2.0 / cfg.noise_density)


@pytest.mark.parametrize("seed", range(12))
def test_mi_discrete_trx_mirror_symmetry(seed):
    # G is even in the offset, so the (b, a) channel is the transpose of the
    # (a, b) one: both orders are one solve, with the smaller count on the
    # receive side, and return one value. Solved uncached in each
    # orientation they have the same singular values and the same noise
    # rescaling (worst measured 1.4e-15 relative over these seeds: the two
    # splits solve different half-size blocks, so only roundoff differs)
    rng = np.random.default_rng(300 + seed)
    cfg = SystemConfig(distance_m=float(10.0 ** rng.uniform(-1.0, 1.7)))
    a, b = (int(v) for v in rng.integers(2, 200, size=2))
    assert mi_discrete_trx(a, b, cfg) == mi_discrete_trx(b, a, cfg)
    forward, mirrored = _oriented_trx_mi(cfg, a, b), _oriented_trx_mi(cfg, b, a)
    assert mirrored == pytest.approx(forward, rel=1e-13)
    assert mi_discrete_trx(a, b, cfg).value_nats == _oriented_trx_mi(cfg, max(a, b), min(a, b))
