"""Sweep drivers, slope fitting, and determinism."""

import math

import pytest

from capmimo import (
    SweepRow,
    SystemConfig,
    fit_convergence_slope,
    mi_continuous,
    mi_discrete_trx,
    sweep_grid,
    sweep_receiver,
    sweep_transceiver,
)
from capmimo import experiments as experiments_mod
from capmimo import models


def _synthetic_rows(ms, gaps, ref=100.0):
    return [SweepRow(scenario="syn", d_m=1.0, m1=None, m2=m, ref_m=1000,
                     mi_nats=ref - g, mi_ref_nats=ref, abs_gap=g, n_used=1.0,
                     model_tag="discrete_rx", wall_time_s=0.0)
            for m, g in zip(ms, gaps)]


# ------------------------------------------------------------ slope fits

def test_slope_exact_quadratic_power_law():
    ms = (5, 10, 20, 40, 80)
    fit = fit_convergence_slope(_synthetic_rows(ms, [3.0 * m**-2 for m in ms]))
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.m_range == (5, 80)


def test_slope_exact_linear_power_law():
    ms = (10, 30, 90)
    fit = fit_convergence_slope(_synthetic_rows(ms, [0.7 / m for m in ms]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_slope_requires_three_usable_points():
    ms = (10, 20)
    with pytest.raises(ValueError):
        fit_convergence_slope(_synthetic_rows(ms, [1e-3, 1e-4]))


def test_slope_excludes_noise_floor_rows():
    ms = (10, 20, 40, 80)
    gaps = [1.0e-2, 2.5e-3, 6.25e-4, 1e-13]  # last row sits below 1e-12 * ref
    fit = fit_convergence_slope(_synthetic_rows(ms, gaps, ref=100.0))
    assert fit.m_range == (10, 40)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)


def test_slope_ignores_error_rows():
    rows = _synthetic_rows((10, 20, 40), [1e-2, 2.5e-3, 6.25e-4])
    rows.append(SweepRow(scenario="syn", d_m=1.0, m1=None, m2=80, ref_m=1000,
                         mi_nats=None, mi_ref_nats=100.0, abs_gap=None, n_used=None,
                         model_tag="error", wall_time_s=0.0, error="ValueError: boom"))
    fit = fit_convergence_slope(rows)
    assert fit.m_range == (10, 40)


# ---------------------------------------------------------------- sweeps

def test_sweep_receiver_rows_sorted_and_consistent(default_cfg):
    rows = sweep_receiver(default_cfg, [10.0], [8, 2, 4], ref_m=64)
    assert [r.m2 for r in rows] == [2, 4, 8]
    for r in rows:
        assert r.m1 is None
        assert r.error is None
        assert r.abs_gap == abs(r.mi_nats - r.mi_ref_nats)
        assert r.n_used > 0
        assert r.model_tag == "discrete_rx"


def test_sweep_receiver_zero_power_single_antenna():
    cfg = SystemConfig(power_density=0.0)
    rows = sweep_receiver(cfg, [10.0], [1], ref_m=64)
    (row,) = rows
    assert row.mi_nats == 0.0
    assert row.abs_gap == row.mi_ref_nats == 0.0
    assert math.isfinite(row.n_used) and row.n_used > 0  # unit-power ratio


def test_sweep_rejects_empty_lists(default_cfg):
    with pytest.raises(ValueError):
        sweep_receiver(default_cfg, [], [8], ref_m=64)
    with pytest.raises(ValueError):
        sweep_receiver(default_cfg, [10.0], [], ref_m=64)


def test_sweeps_check_counts_before_any_solve():
    cfg = SystemConfig()
    models._spectrum.cache_clear()
    with pytest.raises(ValueError):
        sweep_grid(cfg, 10.0, [100], [-3])
    with pytest.raises(ValueError):
        sweep_receiver(cfg, [10.0], [4], inner_points=1)
    with pytest.raises(ValueError):
        sweep_receiver(cfg, [10.0, -1.0], [4])
    # a matrix too large for physical memory, the reference's or a cell's,
    # is refused before the first reference solve
    with pytest.raises(ValueError, match="physical memory"):
        sweep_grid(cfg, 10.0, [400000], [400000])
    with pytest.raises(ValueError, match="physical memory"):
        sweep_receiver(cfg, [10.0], [5, 10**7], ref_m=64)
    # a count that is not an integer, even one equal to an integer
    with pytest.raises(ValueError, match="^antenna count must be an integer, got 4.5$"):
        sweep_receiver(cfg, [10.0], [4.5], ref_m=64)
    with pytest.raises(ValueError, match="^antenna count must be an integer, got 3.0$"):
        sweep_grid(cfg, 10.0, [3.0], [3], ref_m=64)
    with pytest.raises(ValueError, match="^ref_m must be an integer, got 64.0$"):
        sweep_receiver(cfg, [10.0], [4], ref_m=64.0)
    assert models._spectrum.cache_info().misses == 0


def test_sweep_accepts_arrays_larger_than_reference():
    # the Gauss-Legendre reference does not depend on the antenna count,
    # so a ladder may go past ref_m
    cfg = SystemConfig()
    (row,) = sweep_receiver(cfg, [10.0], [80], ref_m=64, inner_points=256)
    assert row.error is None
    assert row.mi_ref_nats == mi_continuous(cfg, 64).value_nats


def test_sweep_transceiver_diagonal_matches_grid(default_cfg):
    diag_rows = sweep_transceiver(default_cfg, [10.0], [2, 4], ref_m=64)
    grid = sweep_grid(default_cfg, 10.0, [2, 4], [2, 4], ref_m=64)
    by_key = {(r.m1, r.m2): r.mi_nats for r in grid.rows}
    for r in diag_rows:
        assert by_key[(r.m1, r.m2)] == r.mi_nats


def test_sweep_grid_cells_match_direct_calls(default_cfg):
    grid = sweep_grid(default_cfg, 10.0, [2, 3], [2, 3], ref_m=64)
    assert len(grid.rows) == 4
    for row in grid.rows:
        direct = mi_discrete_trx(row.m1, row.m2, default_cfg)
        assert row.mi_nats == direct.value_nats
    # the mirrored cells (2, 3) and (3, 2) are one solve
    assert grid.symmetry_gap == 0.0


def test_sweep_rerun_bit_identical(default_cfg):
    first = sweep_receiver(default_cfg, [10.0], [2, 4, 8], ref_m=64)
    second = sweep_receiver(default_cfg, [10.0], [2, 4, 8], ref_m=64)
    for a, b in zip(first, second):
        assert a.mi_nats == b.mi_nats
        assert a.mi_ref_nats == b.mi_ref_nats
        assert a.n_used == b.n_used


def test_sweep_records_failed_cells(default_cfg, monkeypatch):
    real = experiments_mod.mi_discrete_rx

    def flaky(m, cfg, inner_points=None):
        if m == 4:
            raise RuntimeError("synthetic cell failure")
        return real(m, cfg, inner_points)

    monkeypatch.setattr(experiments_mod, "mi_discrete_rx", flaky)
    rows = sweep_receiver(default_cfg, [10.0], [2, 4, 8], ref_m=64)
    by_m = {r.m2: r for r in rows}
    assert by_m[4].error == "RuntimeError: synthetic cell failure"
    assert by_m[4].mi_nats is None
    assert by_m[2].error is None and by_m[8].error is None


def test_gap_eventually_nonincreasing_default_ladder(default_cfg):
    rows = sweep_receiver(default_cfg, [10.0, 1.0], [5, 10, 20, 40, 80], ref_m=1600)
    for d in (10.0, 1.0):
        gaps = [r.abs_gap for r in rows if r.d_m == d]
        tail = gaps[3:]  # allow a pre-asymptotic head of up to 3 points
        assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_convergence_slopes_both_models_both_distances(default_cfg):
    # the discretization error of either model falls off quadratically in
    # the antenna count at both tested distances
    ladder = [10, 20, 40, 80]
    for d in (10.0, 1.0):
        rx_rows = sweep_receiver(default_cfg, [d], ladder, ref_m=1600)
        assert fit_convergence_slope(rx_rows).slope <= -1.7
        trx_rows = sweep_transceiver(default_cfg, [d], ladder, ref_m=1600)
        assert fit_convergence_slope(trx_rows).slope <= -1.7


def test_sampling_number_uses_min_side():
    row = SweepRow(scenario="s", d_m=1.0, m1=30, m2=10, ref_m=100, mi_nats=1.0,
                   mi_ref_nats=2.0, abs_gap=1.0, n_used=1.0, model_tag="discrete_trx",
                   wall_time_s=0.0)
    assert row.sampling_number == 10
