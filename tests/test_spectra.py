"""Grid construction, Hermitian eigen-decomposition, log-det engine."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import capmimo
from capmimo import (
    PSDViolationError,
    SystemConfig,
    assemble_channel_matrix,
    assemble_kernel_matrix,
    hermitian_eigenvalues,
    midpoint_grid,
    validate_hermitian,
)
from capmimo import models, physics, spectra
from capmimo.physics import GREEN_BLOCK_ENTRIES, gauss_legendre_grid, green_offset
from capmimo.spectra import (
    _block_spectrum,
    centrosymmetric_spectrum,
    gram_from_channel,
    logdet_from_eigenvalues,
)

from oracles import full_matrix_spectrum, logdet_by_row_reduction


def _random_psd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    K = B @ B.conj().T
    iu = np.triu_indices(n, k=1)
    K[(iu[1], iu[0])] = K[iu].conj()
    np.fill_diagonal(K, K.diagonal().real)
    return K


# ---------------------------------------------------------------- grids

def test_grid_single_midpoint():
    g = midpoint_grid(2.0, 1)
    assert list(g.points) == [1.0]
    assert g.weight == 2.0


def test_grid_four_points():
    g = midpoint_grid(2.0, 4)
    assert list(g.points) == [0.25, 0.75, 1.25, 1.75]
    assert g.weight == 0.5


def test_grid_half_wavelength_configuration():
    # 100 points on 2 m gives 0.02 m spacing: half of the 0.04 m wavelength
    g = midpoint_grid(2.0, 100)
    assert g.weight == 0.04 / 2


def test_grid_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        l = float(rng.uniform(0.1, 50.0))
        m = int(rng.integers(1, 400))
        g = midpoint_grid(l, m)
        assert g.m == m
        assert np.all(np.diff(g.points) > 0)
        assert np.all((g.points > 0) & (g.points < l))
        expected = (np.arange(m) + 0.5) * (l / m)
        assert np.array_equal(g.points, expected)
        assert g.weight * m == pytest.approx(l, rel=1e-15)
        assert (g.length, g.panels) == (l, m)
        assert np.allclose(_lattice_points(g), g.points, rtol=0.0, atol=4e-16 * l)


def _lattice_points(g) -> np.ndarray:
    """r_(I k + a) = I * length / panels + r_a, k = m // panels: each panel repeats the first."""
    i, k = np.arange(g.m), g.m // g.panels
    return i // k * (g.length / g.panels) + g.points[i % k]


def test_gauss_legendre_grid_any_node_count():
    # panels of at most 16 nodes, any n >= 2: exact for polynomials of
    # degree 2 * (n // ceil(n / 16)) - 1, positive weights summing to l
    equal = {28: 2, 30: 2, 45: 3, 60: 4}  # 2 x 14, 2 x 15, 3 x 15, 4 x 15 nodes
    for n in (2, 3, 15, 16, 17, 28, 30, 31, 45, 60, 100, 1000, 1600):
        g = gauss_legendre_grid(2.0, n)
        assert g.m == n and g.points.shape == g.weights.shape == (n,)
        assert np.all(np.diff(g.points) > 0) and np.all((g.points > 0) & (g.points < 2.0))
        assert np.all(g.weights > 0)
        # the rule's own panels: ceil(n / 16) equal ones when they divide n,
        # else panels that differ, read as one panel of every node
        panels = -(-n // 16)
        assert g.panels == (panels if n % panels == 0 else 1) == equal.get(n, g.panels)
        assert g is gauss_legendre_grid(2.0, n)  # one cached grid per (length, n)
        assert np.allclose(_lattice_points(g), g.points, rtol=0.0, atol=4e-16 * 2.0)
        degree = min(2 * (n // -(-n // 16)) - 1, 7)
        for p in range(degree + 1):
            exact = 2.0 ** (p + 1) / (p + 1)
            assert float(np.sum(g.weights * g.points**p)) == pytest.approx(exact, rel=1e-14)
    with pytest.raises(ValueError):
        gauss_legendre_grid(2.0, 1)


def _check_matrix(p: int, q: int) -> None:
    """The memory guard's check of a spectrum of p x q antennas, before any grid exists."""
    plan = spectra.solve_plan((p, p), (q, q), -(-p // 2), True)
    plan.check(*plan.phases())


def test_matrix_size_guard(monkeypatch):
    _check_matrix(1600, 1000)
    with pytest.raises(ValueError, match="physical memory"):
        _check_matrix(10**7, 10**7)
    with pytest.raises(ValueError, match="physical memory"):
        assemble_channel_matrix(midpoint_grid(2.0, 10**7), midpoint_grid(2.0, 10**7),
                                SystemConfig())

    # a platform that reports no physical memory skips the guard
    def unreported(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", unreported)
    _check_matrix(10**7, 10**7)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        midpoint_grid(2.0, 0)
    with pytest.raises(ValueError):
        midpoint_grid(0.0, 4)
    # an infinite or zero length is refused in one line, before any node is computed
    for build, length, n in ((midpoint_grid, math.inf, 4), (gauss_legendre_grid, math.inf, 16),
                             (gauss_legendre_grid, 0.0, 16)):
        with pytest.raises(ValueError, match=f"^grid length must be positive, got {length}$"):
            build(length, n)


@pytest.mark.parametrize("build, what", [
    (midpoint_grid, "a 10000000-antenna midpoint grid"),
    (gauss_legendre_grid, "a 10000000-node Gauss-Legendre rule"),
])
def test_grids_sized_before_they_are_built(build, what, monkeypatch):
    # with 64 MB of physical memory, 10^7 nodes (80 MB of points alone) are
    # refused in one line before anything of their size is allocated
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (64 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{what} needs about .* GiB, more than the "
                                             r"0\.0625 GiB of physical memory"):
            build(2.0, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build, name, count", [
    (midpoint_grid, "grid size m", 4.5),
    (midpoint_grid, "grid size m", 4.0),
    (gauss_legendre_grid, "Gauss-Legendre node count", 64.0),
])
def test_grids_reject_non_integer_counts_cold_and_warm(build, name, count):
    # a float count, even one equal to an integer, is refused in one line
    # naming it before the cached Gauss-Legendre rule is looked up: the
    # same error whether or not the integer call has filled the cache
    physics._gauss_legendre_rule.cache_clear()
    message = f"^{re.escape(name)} must be an integer, got {re.escape(str(count))}$"
    with pytest.raises(ValueError, match=message):
        build(2.0, count)
    build(2.0, int(count))
    with pytest.raises(ValueError, match=message):
        build(2.0, count)


# ------------------------------------------------------------- assembly

def test_assembled_kernel_is_exactly_hermitian(default_cfg):
    for d, m in ((0.1, 9), (10.0, 16), (200.0, 5)):
        cfg = SystemConfig(distance_m=d)
        K = assemble_kernel_matrix(midpoint_grid(cfg.aperture_m, m), cfg, 512)
        assert np.array_equal(K, K.conj().T)
        assert np.all(K.diagonal().imag == 0.0)
        validate_hermitian(K)


def test_assembled_kernel_matches_scalar_entries(default_cfg):
    # 512 source nodes are 32 panels read from an offset table; 1000 are
    # panels of unequal size, evaluated directly
    from capmimo import kernel_value
    grid = midpoint_grid(default_cfg.aperture_m, 4)
    for source_nodes in (512, 1000):
        K = assemble_kernel_matrix(grid, default_cfg, source_nodes)
        for i, r in enumerate(grid.points):
            for j, rp in enumerate(grid.points):
                direct = kernel_value(float(r), float(rp), default_cfg, source_nodes)
                assert K[i, j] == pytest.approx(direct, rel=1e-12), source_nodes


def test_channel_gram_is_exactly_hermitian(default_cfg):
    H = assemble_channel_matrix(midpoint_grid(2.0, 7), midpoint_grid(2.0, 5), default_cfg)
    assert H.shape == (7, 5)
    K = gram_from_channel(H, 1.0)
    assert np.array_equal(K, K.conj().T)


def _gather_cases():
    """(label, rx grid, tx grid) pairs on l = 2 m for the table-gather oracle."""
    l = 2.0
    for m1 in (1, 2, 7, 8):  # every parity of (m1, m2), one row and one column included
        for m2 in (1, 5, 6, 40):
            yield f"midpoint {m1} x {m2}", midpoint_grid(l, m1), midpoint_grid(l, m2)
    yield "gauss 1600 x 800", gauss_legendre_grid(l, 1600), gauss_legendre_grid(l, 800)
    yield "gauss 800 x 800", gauss_legendre_grid(l, 800), gauss_legendre_grid(l, 800)
    yield "midpoint 160 x gauss 800", midpoint_grid(l, 160), gauss_legendre_grid(l, 800)
    yield "gauss 800 x midpoint 100", gauss_legendre_grid(l, 800), midpoint_grid(l, 100)
    # the direct branch: unequal panels, and an lcm far above both panel counts
    yield "direct gauss 1000 x 800", gauss_legendre_grid(l, 1000), gauss_legendre_grid(l, 800)
    yield "direct midpoint 1201 x 1200", midpoint_grid(l, 1201), midpoint_grid(l, 1200)


@pytest.mark.parametrize("d", [10.0, 1.0, 0.1, 0.03])
def test_gathered_channel_matches_direct_evaluation(d, monkeypatch):
    # the table gather against sqrt(w_i) G(r_i - s_k) sqrt(w_k) evaluated
    # entry by entry (no weight on an antenna grid), for all rows
    # (assemble_channel_matrix) and for the top ceil(p / 2) the
    # spectrum reads from _lattice: equal within 3e-13 relative, about 3x
    # the phase roundoff of k x in the offsets (1.1e-13; a phase formed
    # from k r would add eps k r, 4.6e-13 at d = 10 m), never with more
    # evaluations than entries and, beyond small matrices, with fewer; the
    # direct branch evaluates every entry once
    cfg = SystemConfig(distance_m=d)
    counted = [0]

    def counting(x, cfg):
        counted[0] += np.size(x)
        return green_offset(x, cfg)

    monkeypatch.setattr(spectra, "green_offset", counting)
    for label, rx, tx in _gather_cases():
        for rows in (rx.m, -(-rx.m // 2)):
            counted[0] = 0
            H = (assemble_channel_matrix(rx, tx, cfg) if rows == rx.m
                 else spectra._lattice(rx, tx, cfg, rows).reshape(-1, tx.m)[:rows])
            direct = green_offset(rx.points[:rows, None] - tx.points[None, :], cfg)
            if rows == rx.m:  # the channel is G itself, the view G without exp(i k d)
                direct *= physics.distance_phase(cfg)
            if rx.weights is not None:
                direct *= np.sqrt(rx.weights[:rows, None])
            if tx.weights is not None:
                direct *= np.sqrt(tx.weights)
            assert H.shape == direct.shape, label
            assert np.max(np.abs(H - direct) / np.abs(direct)) <= 3e-13, label
            assert counted[0] <= H.size, label
            if label.startswith("direct"):
                assert counted[0] == H.size, label
            elif H.size >= 1000:
                assert counted[0] < H.size, label


def test_assembled_channel_is_a_fresh_writable_array():
    # the offset table's view aliases its entries; H is copied out of it on
    # every path, so writing one entry leaves every other entry as it was
    cfg = SystemConfig()
    for label, rx, tx in _gather_cases():
        H = assemble_channel_matrix(rx, tx, cfg)
        assert H.flags.writeable, label
        before = H.copy()
        H[0, 0] = 0.0
        before[0, 0] = 0.0
        assert np.array_equal(H, before), label


def _check_against_full_svd(cfg, rx, tx):
    values, norm = centrosymmetric_spectrum(rx, tx, cfg)
    oracle, oracle_norm = full_matrix_spectrum(cfg, rx.points, tx.points, rx.weights, tx.weights)
    assert values.shape == oracle.shape == (min(rx.m, tx.m),)
    assert np.all(np.diff(values) <= 0) and not values.flags.writeable
    assert np.max(np.abs(values - oracle)) <= 1e-13 * oracle[0]
    assert norm == pytest.approx(oracle_norm, rel=1e-14)


@pytest.mark.parametrize("rows, cols", [(40, 26), (40, 27), (41, 26), (41, 27),
                                        (1, 1), (1, 6), (5, 1), (2, 3)])
@pytest.mark.parametrize("layout", ["antennas", "receiver", "nystrom"])
def test_centrosymmetric_spectrum_matches_full_svd(rows, cols, layout):
    # the two half-size blocks against a full SVD of every entry, for all
    # four parities of (rows, cols): unit weights on antenna grids, the
    # discrete receiver's weighted source columns, and a Nystrom matrix
    # weighted on both sides
    cfg = SystemConfig(distance_m=0.7)
    l = cfg.aperture_m
    rx = gauss_legendre_grid(l, max(rows, 2)) if layout == "nystrom" else midpoint_grid(l, rows)
    tx = gauss_legendre_grid(l, max(cols, 2)) if layout != "antennas" else midpoint_grid(l, cols)
    _check_against_full_svd(cfg, rx, tx)


def test_centrosymmetric_spectrum_rejects_grids_of_unequal_length():
    # the split mirrors both grids about one l/2; a 1 m grid against a 2 m
    # grid would read its top value 0.9 % low, so it is refused
    with pytest.raises(ValueError, match="grid lengths differ"):
        centrosymmetric_spectrum(midpoint_grid(1.0, 10), midpoint_grid(2.0, 12), SystemConfig())


def test_rule_of_equal_short_panels_is_read_from_an_offset_table():
    # a 30-node rule is two 15-node panels, so against a source of 16-node
    # panels its channel is read from an offset table, not evaluated entry
    # by entry as the one-node panels of a rule whose panels differ; its
    # spectrum matches a full SVD of every entry
    cfg = SystemConfig(distance_m=1.0)
    rx, tx = gauss_legendre_grid(cfg.aperture_m, 30), gauss_legendre_grid(cfg.aperture_m, 800)
    assert spectra._lattice(rx, tx, cfg, rx.m).shape == (2, 15, 50, 16)
    direct = np.sqrt(rx.weights[:, None] * tx.weights) * green_offset(
        rx.points[:, None] - tx.points[None, :], cfg)
    H = assemble_channel_matrix(rx, tx, cfg)
    assert np.max(np.abs(H - direct) / np.abs(direct)) <= 1e-12
    values, _ = centrosymmetric_spectrum(rx, tx, cfg)
    oracle, _ = full_matrix_spectrum(cfg, rx.points, tx.points, rx.weights, tx.weights)
    assert np.max(np.abs(values - oracle) / oracle) <= 1e-12


def _large_case(layout: str, d: float):
    """Grids of the large layouts the sketch serves, at distance d."""
    cfg = SystemConfig(distance_m=d)
    l = cfg.aperture_m
    if layout == "trx1200x1200":
        return cfg, midpoint_grid(l, 1200), midpoint_grid(l, 1200)
    if layout == "trx800x1200":
        return cfg, midpoint_grid(l, 1200), midpoint_grid(l, 800)
    if layout == "trx1201x1200":
        return cfg, midpoint_grid(l, 1201), midpoint_grid(l, 1200)
    # receive x transmit: a middle row or column, or a narrow sketch beside long blocks
    if layout in ("trx1125x1000", "trx1000x1125", "trx400x1200", "trx1200x400"):
        m_rx, m_tx = map(int, layout[3:].split("x"))
        return cfg, midpoint_grid(l, m_rx), midpoint_grid(l, m_tx)
    if layout == "nystrom1600x1000":
        return cfg, gauss_legendre_grid(l, 1600), gauss_legendre_grid(l, 1000)
    if layout.startswith("rx"):  # rx<m>: m antennas against the source rule
        return (cfg, midpoint_grid(l, int(layout[2:])),
                gauss_legendre_grid(l, cfg.default_inner_points()))
    return cfg, gauss_legendre_grid(l, 1600), gauss_legendre_grid(l, 800)


@pytest.mark.parametrize("layout, d", [
    *itertools.product(["trx1200x1200", "trx800x1200", "rx400", "nystrom1600x800"],
                       [10.0, 1.0, 0.1, 0.03]),
    *itertools.product(["trx1125x1000", "trx1000x1125", "trx1201x1200", "nystrom1600x1000"],
                       [10.0, 0.1])])
def test_sketched_spectrum_matches_full_svd(layout, d):
    # blocks large enough for the rank-sized sketch (far field) and for the
    # full SVD it falls back to (d = 0.03 m), against a full SVD of every entry.
    # 1125 x 1000 and 1000 x 1125 antennas (lcm 9000) have a middle row and a
    # middle column, formed from their offset table, and both blocks sketched.
    # 1201 x 1200 antennas (lcm 1441200) and a 1000-node rule of unequal
    # panels are evaluated directly and split from one-node panels
    _check_against_full_svd(*_large_case(layout, d))


@pytest.fixture
def sketch_widths(monkeypatch):
    """The width of every sketch drawn while the test runs, in order."""
    widths = []
    phases = spectra._phases

    def recording(rows, cols):
        widths.append(cols)
        return phases(rows, cols)

    monkeypatch.setattr(spectra, "_phases", recording)
    return widths


def test_sketch_retries_when_first_width_misses_rank(monkeypatch, sketch_widths):
    # with no mode count the first sketch (16 columns) is narrower than the
    # 44 singular values each block holds at d = 1 m: the residual test
    # must reject it and the doubled widths must reach the full spectrum
    monkeypatch.setattr(spectra, "_mode_count", lambda cfg: 0.0)
    _check_against_full_svd(*_large_case("trx1200x1200", 1.0))
    assert sketch_widths == [16, 32, 64] * 2


def _first_width_cases():
    """(label, cfg, rx, tx) over a grid of geometries and both layouts.

    Each grid is the smallest multiple of 16 nodes whose blocks are sketched
    (five first widths below twice the smaller block side), or 128 nodes
    where that would be above 704 and the blocks take the full SVD instead.
    """
    for lam, l, d in itertools.product((0.01, 0.04, 0.3), (0.5, 2.0), (0.03, 0.1, 1.0, 10.0)):
        cfg = SystemConfig(wavelength_m=lam, aperture_m=l, distance_m=d)
        width = math.ceil(spectra._mode_count(cfg) / 2) + spectra.SKETCH_OVERSAMPLING
        n = 16 * -(-(5 * width + 1) // 16)
        n = n if n <= 704 else 128
        label = f"lambda {lam} l {l} d {d} n {n}"
        yield label + " nystrom", cfg, gauss_legendre_grid(l, 2 * n), gauss_legendre_grid(l, n)
        yield label + " antennas", cfg, midpoint_grid(l, n), midpoint_grid(l, n)


def test_first_width_certifies(sketch_widths):
    # the a-priori width (l / pi) hypot(k l / sqrt(l^2 + d^2), (5/4) ln(1 / tau) / d)
    # is wide enough that each sketched block passes its residual test at
    # the first try, from far field to d = 0.03 m: one sketch per block, of
    # the first width, and every value matches the whole matrix's SVD
    sketched = 0
    for label, cfg, rx, tx in _first_width_cases():
        sketch_widths.clear()
        _check_against_full_svd(cfg, rx, tx)
        width = math.ceil(spectra._mode_count(cfg) / 2) + spectra.SKETCH_OVERSAMPLING
        blocks = ((-(-rx.m // 2), tx.m - tx.m // 2), (rx.m // 2, tx.m // 2))
        expected = [width] * sum(5 * width < 2 * min(shape) for shape in blocks)
        assert sketch_widths == expected, label
        sketched += len(sketch_widths)
    assert sketched >= 70


@pytest.mark.parametrize("wavelength, d", [(0.04, 30.0), (0.04, 100.0), (0.04, 300.0),
                                           (0.005, 10.0)])
def test_default_reference_certifies_at_its_first_width(wavelength, d, sketch_widths):
    # the default-sized continuous reference (1600 x 800 nodes, 6400 x 6400
    # at lambda = 5 mm) keeps one sketch of the first width per block in the
    # far field too. A phase formed from k r carries eps k r of noise, above
    # SKETCH_TOL of each block's norm here: at d = 100 m B- would double to
    # 144 columns and take a full SVD, at d = 300 m both blocks would, and at
    # lambda = 5 mm both would keep twice the first width
    cfg = SystemConfig(wavelength_m=wavelength, distance_m=d)
    rx = gauss_legendre_grid(cfg.aperture_m, models.default_ref_m(cfg))
    tx = gauss_legendre_grid(cfg.aperture_m, cfg.default_inner_points())
    centrosymmetric_spectrum(rx, tx, cfg)
    width = math.ceil(spectra._mode_count(cfg) / 2) + spectra.SKETCH_OVERSAMPLING
    assert sketch_widths == [width] * 2


@pytest.mark.parametrize("shape", [(50, 60), (60, 50)])
def test_full_svd_is_taken_on_the_tall_side(shape):
    # a wide block's full SVD runs on its transpose: a full-rank block and
    # its transpose give bitwise the same values
    rng = np.random.default_rng(9)
    B = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.array_equal(_block_spectrum(B, 4)[0], _block_spectrum(B.T, 4)[0])
    assert np.array_equal(_block_spectrum(B, 4)[0], _block_spectrum(B.T.copy(), 4)[0])


def test_wide_low_rank_block_matches_oracle(sketch_widths):
    # 160 antennas against 800 weighted source nodes at d = 10 m: a wide
    # block of low rank is sketched (from its columns) and solved on the
    # sketch factor's tall side; it and its transpose match the SVD of
    # every entry
    cfg = SystemConfig(distance_m=10.0)
    rx, tx = midpoint_grid(cfg.aperture_m, 160), gauss_legendre_grid(cfg.aperture_m, 800)
    B = assemble_channel_matrix(rx, tx, cfg)
    oracle = full_matrix_spectrum(cfg, rx.points, tx.points, None, tx.weights)[0]
    for block in (B, B.T):
        values = np.sort(_block_spectrum(block, 32)[0])[::-1]
        assert np.max(np.abs(values - oracle)) <= 1e-13 * oracle[0]
    assert sketch_widths == [32, 32]


def test_full_rank_block_falls_back_to_full_svd_bitwise():
    # a random block has full rank: every sketch (4, 8, 16 columns) fails
    # its residual test, and the 60 x 50 block gets np.linalg.svd itself
    rng = np.random.default_rng(8)
    B = rng.normal(size=(60, 50)) + 1j * rng.normal(size=(60, 50))
    assert np.array_equal(_block_spectrum(B, 4)[0], np.linalg.svd(B, compute_uv=False) ** 2)


def test_sketched_spectrum_is_bitwise_repeatable():
    cfg, rx, tx = _large_case("trx1200x1200", 10.0)
    first = centrosymmetric_spectrum(rx, tx, cfg)
    second = centrosymmetric_spectrum(rx, tx, cfg)
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]


def test_blas_functions_takes_the_first_exported_names():
    # one resolver for every BLAS symbol: a tuple is taken only when every
    # name in it is exported, the first such tuple wins, and none gives None
    timeout = ("openblas_thread_timeout",)
    missing = ("capmimo_no_such_symbol",)
    assert spectra._blas_functions(missing) is None
    assert spectra._blas_functions(missing, (*timeout, *missing)) is None
    found = spectra._blas_functions(missing, timeout)
    if spectra.blas_thread_timeout() is None:
        assert found is None
    else:
        assert [f.__name__ for f in found] == list(timeout)


@pytest.fixture
def two_blas_threads():
    """The BLAS on two threads while the test runs; skips where its count cannot be set."""
    control = spectra._thread_control()
    if control is None:
        pytest.skip("the BLAS numpy links exports no thread-count setter")
    setter, getter = control
    before = getter()
    setter(2)
    yield
    setter(before)


def test_small_solves_run_on_one_blas_thread(two_blas_threads, monkeypatch):
    # the default reference at d = 0.1 m, the largest solve of the default
    # sweeps (800 x 800 x 137 = 8.8e7 of sketch work), solves both blocks on
    # one thread; with SERIAL_WORK at 0 they run on the process's two; the
    # count is two again after each solve
    seen = []
    block_spectrum = spectra._block_spectrum

    def recording(B, width):
        seen.append(spectra.blas_threads())
        return block_spectrum(B, width)

    monkeypatch.setattr(spectra, "_block_spectrum", recording)
    cfg, rx, tx = _large_case("nystrom1600x800", 0.1)
    centrosymmetric_spectrum(rx, tx, cfg)
    assert seen == [1, 1] and spectra.blas_threads() == 2
    monkeypatch.setattr(spectra, "SERIAL_WORK", 0)
    centrosymmetric_spectrum(rx, tx, cfg)
    assert seen == [1, 1, 2, 2] and spectra.blas_threads() == 2


def test_blas_thread_count_restored_when_a_block_raises(two_blas_threads, monkeypatch):
    def failing(B, width):
        assert spectra.blas_threads() == 1
        raise RuntimeError("block failed")

    monkeypatch.setattr(spectra, "_block_spectrum", failing)
    grid = midpoint_grid(2.0, 40)
    with pytest.raises(RuntimeError, match="block failed"):
        centrosymmetric_spectrum(grid, grid, SystemConfig())
    assert spectra.blas_threads() == 2


def test_overlapping_serial_solves_restore_the_blas_thread_count(two_blas_threads):
    # solves from two Python threads may overlap and end first in, first
    # out: the count stays one until the last ends, which restores the two
    # the first found (restoring the count each one found would leave one)
    first, second = spectra._one_blas_thread(True), spectra._one_blas_thread(True)
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert spectra.blas_threads() == 1
    second.__exit__(None, None, None)
    assert spectra.blas_threads() == 2


_TIMEOUT_READ_BACK = """
import os
import sys
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
if sys.argv[1] != "unset":
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = sys.argv[1]
if sys.argv[2] == "numpy-first":
    import numpy
import capmimo
from capmimo import spectra
print(spectra.blas_thread_timeout(), os.environ.get("OPENBLAS_THREAD_TIMEOUT", "unset"))
"""

needs_timeout_getter = pytest.mark.skipif(
    spectra.blas_thread_timeout() is None,
    reason="the BLAS numpy links exports no openblas_thread_timeout")


@needs_timeout_getter
@pytest.mark.parametrize("value, order, expected", [
    ("unset", "capmimo-first", f"{capmimo.BLAS_THREAD_TIMEOUT} unset"),
    ("28", "capmimo-first", "28 28"),
    ("unset", "numpy-first", "0 unset")])
def test_blas_thread_timeout_is_set_only_while_numpy_loads(value, order, expected):
    # in a fresh process, import capmimo sets OPENBLAS_THREAD_TIMEOUT while
    # numpy loads OpenBLAS and removes it again, so OpenBLAS read
    # BLAS_THREAD_TIMEOUT and the environment holds no trace of it; a value
    # the user set is kept as it is, and a process that loaded numpy
    # before capmimo keeps OpenBLAS's default (read back as 0)
    assert _fresh_python(_TIMEOUT_READ_BACK, value, order).split() == expected.split()


_WORKER_CPU = """
import os
os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
import capmimo
ticks = 0
for task in os.listdir("/proc/self/task"):
    if int(task) != os.getpid():
        with open(f"/proc/self/task/{task}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
print(ticks / os.sysconf("SC_CLK_TCK"))
"""


@needs_timeout_getter
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_idle_blas_workers_do_not_spin_through_the_import():
    # OpenBLAS starts its worker threads when numpy loads it, and with its
    # default timeout each spins for 2**28 cycles (0.05-0.11 s of CPU on 2
    # cores, OpenBLAS 0.3.31) before it sleeps; with BLAS_THREAD_TIMEOUT
    # they sleep almost at once, so when import capmimo returns every thread
    # but the main one has used at most two clock ticks of CPU
    assert float(_fresh_python(_WORKER_CPU)) <= 0.02


@pytest.fixture
def sketch_bases(monkeypatch):
    """(Y, conj(Q)) for every sketch basis formed while the test runs, copied.

    Every Y is Fortran-ordered, as LAPACK reads it, so the path tested is LAPACK's.
    """
    bases = []
    conjugate_basis = spectra._conjugate_basis

    def recording(Y):
        assert Y.flags.f_contiguous
        sketch = Y.copy()
        Q_bar = conjugate_basis(Y)
        bases.append((sketch, Q_bar.copy()))
        return Q_bar

    monkeypatch.setattr(spectra, "_conjugate_basis", recording)
    return bases


def _check_basis(Y, Q_bar):
    # conj(Q) from the Householder reflectors: Q^H Q = I and Q Q^H Y = Y
    Q_h = Q_bar.T
    assert np.all(np.isfinite(Q_bar))
    assert np.max(np.abs(Q_h @ Q_bar.conj() - np.eye(Y.shape[1]))) <= 1e-14
    assert np.linalg.norm(Y - Q_bar.conj() @ (Q_h @ Y)) <= 1e-13 * np.linalg.norm(Y)


@pytest.mark.parametrize("layout, d", [("nystrom1600x800", 10.0), ("nystrom1600x800", 1.0),
                                       ("nystrom1600x800", 0.1), ("trx1200x1200", 10.0)])
def test_sketch_basis_is_orthonormal_and_spans_the_sketch(layout, d, sketch_bases):
    cfg, rx, tx = _large_case(layout, d)
    centrosymmetric_spectrum(rx, tx, cfg)
    assert len(sketch_bases) == 2
    for Y, Q_bar in sketch_bases:
        _check_basis(Y, Q_bar)


@pytest.mark.parametrize("layout, d", [("nystrom1600x800", 0.1), ("trx1200x1200", 10.0)])
def test_numpy_qr_basis_where_lapack_is_missing(layout, d, sketch_bases, monkeypatch):
    # where the BLAS numpy links exports no 64-bit zgeqrf, zungqr and zgemm,
    # numpy's reduced QR forms each basis and each residual is formed in a
    # buffer: the spectrum matches LAPACK's to roundoff
    cfg, rx, tx = _large_case(layout, d)
    values, norm = centrosymmetric_spectrum(rx, tx, cfg)
    monkeypatch.setattr(spectra, "_sketch_routines", lambda: None)
    fallback, fallback_norm = centrosymmetric_spectrum(rx, tx, cfg)
    assert np.max(np.abs(fallback - values)) <= 1e-13 * values[0]
    assert fallback_norm == norm
    assert len(sketch_bases) == 4
    for Y, Q_bar in sketch_bases:
        _check_basis(Y, Q_bar)


def test_zero_sketch_column_gives_a_finite_orthonormal_basis():
    # a zero column of Y has a zero Householder scalar tau (LAPACK's H = I):
    # the basis must stay finite and orthonormal, for a zero column early in
    # a narrow sketch and for one after 70 others in a wider one
    rng = np.random.default_rng(5)
    for rows, cols, zero in ((200, 12, 4), (300, 100, 70)):
        Y = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        Y[:, zero] = 0.0
        assert np.linalg.qr(Y, mode="raw")[1][zero] == 0.0
        _check_basis(Y, spectra._conjugate_basis(np.asfortranarray(Y)))


@pytest.mark.parametrize("cols", [63, 64, 65, 129])
def test_sketch_basis_across_the_panel_edge(cols):
    # LAPACK's own column blocks: reference LAPACK's ilaenv factors a Y of
    # at most 128 columns unblocked and a wider one a block of 32 columns at
    # a time, then the rest unblocked: 63-65 columns, either side of two
    # blocks, are factored unblocked and 129 is the first width taken in
    # blocks; the basis matches the reduced QR's Q column for column, up to
    # roundoff
    rng = np.random.default_rng(cols)
    Y = rng.normal(size=(400, cols)) + 1j * rng.normal(size=(400, cols))
    Q_bar = spectra._conjugate_basis(np.asfortranarray(Y))
    _check_basis(Y, Q_bar)
    assert np.max(np.abs(Q_bar.conj() - np.linalg.qr(Y)[0])) <= 1e-14


def test_sketch_basis_refuses_a_c_ordered_sketch():
    # LAPACK would read a C-ordered buffer as another matrix, its transpose
    with pytest.raises(ValueError, match="Fortran-ordered"):
        spectra._conjugate_basis(np.ones((4, 2), dtype=np.complex128))


def _low_rank_block(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return ((rng.normal(size=(300, 5)) + 1j * rng.normal(size=(300, 5)))
            @ (rng.normal(size=(5, 200)) + 1j * rng.normal(size=(5, 200))))


def test_nan_entry_certifies_no_sketch(monkeypatch):
    # a nan entry makes the residual nan, and a nan residual must fail the
    # certificate (nan > tol is False) rather than reach the SVD of the
    # sketch: with the residual subtracted in place by zgemm and, where the
    # BLAS exports none, formed in a buffer
    for routines in (spectra._sketch_routines(), None):
        monkeypatch.setattr(spectra, "_sketch_routines", lambda: routines)
        B = _low_rank_block(6)
        assert spectra._sketch_spectrum(B, 16) is not None
        B[7, 11] = np.nan
        assert spectra._sketch_spectrum(B, 16) is None


@pytest.mark.parametrize("order", ["C", "F"])
def test_sketch_never_writes_an_ndarray_block(order):
    # the residual is subtracted in place in each column piece, so a piece of
    # a caller's ndarray is copied first: B stays bitwise what it was, in
    # C order and in Fortran order (whose pieces are not row-contiguous)
    B = np.asarray(_low_rank_block(7), order=order)
    before = B.copy()
    assert spectra._sketch_spectrum(B, 16) is not None
    assert B.tobytes() == before.tobytes()


@pytest.mark.skipif(spectra._sketch_routines() is None,
                    reason="the BLAS numpy links exports no 64-bit zgeqrf, zungqr and zgemm")
@pytest.mark.parametrize("layout, d", [("nystrom1600x800", 0.1), ("trx400x1200", 10.0)])
def test_buffered_residual_where_blas_is_missing(layout, d, monkeypatch):
    # a sketch of each split block, its residual subtracted in place by zgemm,
    # against the same sketch with numpy's QR and the residual formed in a
    # buffer: the same ||B||_F^2, both certified, values within 1e-13 of the
    # largest
    cfg, rx, tx = _large_case(layout, d)
    lattice = spectra._lattice(rx, tx, cfg, -(-rx.m // 2))
    plus = spectra._SplitBlock(lattice, np.add, (-(-rx.m // 2), tx.m - tx.m // 2), rx.m, tx.m)
    width = math.ceil(spectra._mode_count(cfg) / 2) + spectra.SKETCH_OVERSAMPLING
    values, norm = spectra._sketch_spectrum(plus, width)
    monkeypatch.setattr(spectra, "_sketch_routines", lambda: None)
    fallback, fallback_norm = spectra._sketch_spectrum(plus, width)
    assert fallback_norm == norm
    assert np.max(np.abs(fallback - values)) <= 1e-13 * values.max()


def _fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter on this package."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_HIGH_WATER = """
def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
"""

_BASIS_STEP_RISE = _HIGH_WATER + """
import os
import sys
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read before numpy loads its BLAS
import numpy as np
from capmimo.spectra import _conjugate_basis

_conjugate_basis(np.ones((4, 2), dtype=np.complex128, order="F"))
np.linalg.qr(np.ones((4, 2), dtype=np.complex128))
Y = np.empty((int(sys.argv[2]), int(sys.argv[3])), dtype=np.complex128, order="F")
rng = np.random.default_rng(0)
for j in range(0, Y.shape[1], 16):
    part = Y[:, j:j + 16]
    part[...] = rng.normal(size=part.shape) + 1j * rng.normal(size=part.shape)
before = high_water()
if sys.argv[1] == "lapack":
    _conjugate_basis(Y)
else:
    Q = np.linalg.qr(Y)[0]
    Q_h = Q.conj().T
print((high_water() - before) / Y.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.skipif(spectra._sketch_routines() is None,
                    reason="the BLAS numpy links exports no 64-bit zgeqrf, zungqr and zgemm")
def test_basis_step_resident_memory():
    # tracemalloc does not see the working copies numpy.linalg makes inside
    # its gufuncs, so the basis step of a sketch is measured by the rise of
    # its resident high-water mark in a fresh process, after Y is resident
    # (filled a few columns at a time, so that forming it sets no
    # high-water mark) and LAPACK is loaded. VmHWM, not ru_maxrss: a
    # child's ru_maxrss starts at its parent's across fork and exec. Y is
    # Fortran-ordered, as _sketch_spectrum forms it, and LAPACK's zgeqrf and
    # zungqr run in its own storage with tau and a workspace of 64 entries
    # per column, so a 2000 x 400 sketch rose by 0.026-0.033 Y and a 3200 x
    # 64 one by 0.0 (numpy 2.4.6, OpenBLAS 0.3.31); the reduced QR and its
    # conjugate transpose rise by about 4, which shows the measurement sees
    # what tracemalloc does not. The BLAS runs on one
    # thread: a second thread's buffer, first touched inside the
    # measurement, added 0.4-0.8 Y here and up to 1.5 Y on an 800 x 26
    # sketch, depending on how the process was started
    def rise(step, rows, cols):
        return float(_fresh_python(_BASIS_STEP_RISE, step, str(rows), str(cols)))

    lapack, reduced, narrow = (rise("lapack", 2000, 400), rise("reduced", 2000, 400),
                               rise("lapack", 3200, 64))
    assert lapack <= 0.25 and reduced > 3.0, (lapack, reduced)
    assert narrow <= 0.25, narrow


_RULE_RISE = _HIGH_WATER + """
import sys
from capmimo.physics import gauss_legendre_grid

gauss_legendre_grid(2.0, 32)
before = high_water()
gauss_legendre_grid(2.0, int(sys.argv[1]))
print((high_water() - before) / int(sys.argv[1]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_rule_build_resident_memory():
    # each run of equal panels is written into the rule's two arrays at
    # once, so building a 1e6-node rule raises the resident high-water
    # mark of a fresh process by little more than the 16 B per node it
    # returns (17 here); two arrays per panel, concatenated, rise by about
    # 52. A rule of unequal panels (2e6 + 1 nodes) holds no more than its
    # two arrays either (16.6 here); a cached copy of its nodes would add 8
    for n in (10**6, 2 * 10**6 + 1):
        rise = float(_fresh_python(_RULE_RISE, str(n)))
        assert rise <= 24, (n, rise)


_MODEL_CALL_MODULES = (
    "import sys; from capmimo import SystemConfig, mi_continuous, mi_discrete_trx; "
    "mi_discrete_trx(400, 400, SystemConfig()); mi_continuous(SystemConfig()); "
    "print(sys.argv[1] in sys.modules)")


def test_model_call_does_not_import_numpy_random():
    # the sketch draws its matrix from a hash, so a model call pulls in no
    # random-number module (importing numpy.random costs time and memory)
    assert _fresh_python(_MODEL_CALL_MODULES, "numpy.random").strip() == "False"


def test_model_call_does_not_import_numpy_polynomial():
    # the Gauss-Legendre panel rules come from a Newton iteration on the
    # Legendre recurrence, not numpy.polynomial's eigensolver, whose import
    # cost the first rule of a process time and resident memory
    assert _fresh_python(_MODEL_CALL_MODULES, "numpy.polynomial").strip() == "False"


# the large layouts evaluated directly: an lcm far above both panel counts,
# and a 1000-node rule of unequal panels
DIRECT_LAYOUTS = ("trx1201x1200", "nystrom1600x1000")

# receivers whose evaluated matrix is about the size of one green_offset row
# block or below, at the distance where each was measured above the per-entry term
SMALL_LAYOUTS = {"rx100": 0.03, "rx400": 0.03, "rx64": 1.0}


@pytest.mark.parametrize("layout", ["trx1200x1200", "nystrom1600x800",
                                    *DIRECT_LAYOUTS, *SMALL_LAYOUTS])
def test_spectrum_peak_memory_within_guard(layout):
    # the gather (the first two layouts) and the row-blocked direct
    # evaluation (an lcm far above both panel counts, a 1000-node rule of
    # unequal panels), then the split blocks, the sketch and the solve must
    # fit under 30 B per evaluated top-half entry as tracemalloc sees them
    # (plus one complex value per grid node for the grids and small
    # objects), at d = 10 m and at d = 0.1 m, where the sketch is widest.
    # The direct layouts hold the top half whole and must keep 1.5 B of
    # margin under that. The small layouts, whose green_offset row block is
    # not small beside the matrix, may add one row block at 82 B per
    # entry. The guard, the solve plan's charge, charges more: it also
    # lists the working copies numpy.linalg makes, which tracemalloc does
    # not see (test_full_svd_fallback_resident_peak_within_guard)
    small = layout in SMALL_LAYOUTS
    for d in (SMALL_LAYOUTS[layout],) if small else (10.0, 0.1):
        cfg, rx, tx = _large_case(layout, d)
        peak = _spectrum_peak(cfg, rx, tx)
        top = -(-rx.m // 2)
        bound = 30 * top * tx.m
        if small:
            bound += 82 * min(top * tx.m, GREEN_BLOCK_ENTRIES)
        assert peak <= bound + 16 * (rx.m + tx.m), d
        if layout in DIRECT_LAYOUTS:
            assert peak <= 28.5 * top * tx.m, d


# bytes per evaluated top-half entry a spectrum from an offset table may peak at, by distance
OFFSET_TABLE_PEAKS = {"trx1200x1200": ((10.0, 4), (0.1, 7)),
                      "nystrom1600x800": ((10.0, 4), (0.1, 7)),
                      "trx400x1200": ((10.0, 5),), "trx1200x400": ((10.0, 4),)}


@pytest.mark.parametrize("layout", OFFSET_TABLE_PEAKS)
def test_blocks_from_the_offset_table_never_hold_the_top_half(layout):
    # where the rows have an offset table the split blocks are formed from
    # it a piece at a time, so at d = 10 m the spectrum peaks at 4 B per
    # evaluated top-half entry or less, well under the 16 B that holding
    # the complex top half alone would take; at d = 0.1 m, where the
    # sketch is widest, at 7 B. Each sketch frees its sketch matrix before
    # its basis step and each row chunk and column piece before the next,
    # no piece holds more entries than the sketch, the residual is
    # subtracted in the piece itself, and the table is evaluated in blocks
    # of GREEN_BLOCK_ENTRIES (1600 x 800 Nystrom: 3.2 and 6.6 B). A 26-column
    # sketch is narrow beside the 600 columns of a 400 x 1200 antenna block
    # (3.4 B; rows 128 at a time read 7.2) and the 600 rows of a 1200 x 400
    # one (3.5 B; columns 64 at a time read 4.7)
    for d, bound in OFFSET_TABLE_PEAKS[layout]:
        cfg, rx, tx = _large_case(layout, d)
        peak = _spectrum_peak(cfg, rx, tx)
        assert peak <= bound * -(-rx.m // 2) * tx.m, d


@pytest.mark.parametrize("layout, d, mode_count", [
    *((layout, 10.0, 1e9) for layout in ("trx1200x1200", "nystrom1600x800", *DIRECT_LAYOUTS)),
    *((layout, 0.1, 0.0) for layout in DIRECT_LAYOUTS)])
def test_full_svd_fallback_peak_memory_within_guard(layout, d, mode_count, monkeypatch):
    # with a mode count no sketch can undercut, every block goes straight to
    # its full SVD, formed whole; with none at d = 0.1 m, every sketch width
    # (16 to 128 columns) fails its residual test first, and its factors
    # must be freed before the block is formed. Either way the fallback
    # must fit under 30 B per evaluated top-half entry as tracemalloc sees it
    monkeypatch.setattr(spectra, "_mode_count", lambda cfg: mode_count)
    cfg, rx, tx = _large_case(layout, d)
    peak = _spectrum_peak(cfg, rx, tx)
    assert peak <= 30 * -(-rx.m // 2) * tx.m


_FALLBACK_RISE = _HIGH_WATER + """
import sys
import numpy as np
from capmimo import SystemConfig, midpoint_grid, spectra
from capmimo.physics import gauss_legendre_grid

cfg = SystemConfig(distance_m=10.0)
l = cfg.aperture_m
if sys.argv[1] == "trx1201x1200":
    rx, tx = midpoint_grid(l, 1201), midpoint_grid(l, 1200)
else:
    rx, tx = gauss_legendre_grid(l, 1600), gauss_legendre_grid(l, 1000)
spectra._mode_count = lambda cfg: 1e9
small = np.ones((4, 2), dtype=np.complex128)
np.linalg.svd(small, compute_uv=False)
before = high_water()
spectra.centrosymmetric_spectrum(rx, tx, cfg)
print((high_water() - before) / (-(-rx.m // 2) * tx.m))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("layout", DIRECT_LAYOUTS)
def test_full_svd_fallback_resident_peak_within_guard(layout):
    # the directly evaluated layouts hold the top half whole while one
    # block is formed whole for its full SVD, and numpy.linalg's SVD works
    # on its own copy of that block, which tracemalloc does not see: the
    # fallback's resident peak, measured as the rise of VmHWM in a fresh
    # process after the grids are built and LAPACK is loaded, must fit
    # under 37 B per evaluated top-half entry and under the guard, the
    # charge of the solve plan, which lists that copy (34.9-35.0 and 34.5 B
    # here against 38.8 charged, numpy 2.4.6)
    rise = float(_fresh_python(_FALLBACK_RISE, layout))
    cfg, rx, tx = _large_case(layout, 10.0)
    plan = spectra._grid_plan(rx, tx, -(-rx.m // 2))
    assert rise <= 37, rise
    assert rise <= physics.check_arrays("charge", *plan.phases()) / (plan.rows * plan.cols), rise


def test_matrix_wider_than_a_row_block_is_charged_its_whole_row(monkeypatch):
    # _green_matrix evaluates at least one whole row at a time, so a
    # 1 x 10**6 channel's row block is its 10**6 entries (tracemalloc peak
    # 80.1 MB), not GREEN_BLOCK_ENTRIES (which the estimate charged, 42.4 MB)
    rx, tx = midpoint_grid(2.0, 1), gauss_legendre_grid(2.0, 10**6)
    charges, check = [], physics.check_memory
    monkeypatch.setattr(physics, "check_memory",
                        lambda need, what: check(need, what) or charges.append((need, what)))
    tracemalloc.start()
    try:
        assemble_channel_matrix(rx, tx, SystemConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charges == [(charges[0][0], "a 1 x 1000000 complex matrix")]
    assert peak <= charges[0][0], peak


@pytest.mark.parametrize("layout", [
    "trx1200x1200", "trx800x1200", "trx1201x1200", "trx1125x1000", "trx1000x1125", "trx400x1200",
    "trx1200x400", "nystrom1600x1000", "nystrom1600x800", *SMALL_LAYOUTS])
def test_plan_is_what_the_lattice_builds(layout, monkeypatch):
    # the pure plan, made from each side's node count and the panel count
    # its rule gives before any grid exists, is the grids' plan and decides
    # what _lattice evaluates, for the spectrum's top half and for the
    # whole channel: direct, every entry of those rows, or the offset
    # table of its extent; making the plan traces under 1 KB
    cfg, rx, tx = _large_case(layout, SMALL_LAYOUTS.get(layout, 10.0))
    sides = [(g.m, g.m if g.weights is None else physics.gauss_legendre_panels(g.m))
             for g in (rx, tx)]
    evaluated = []

    def recording(r, s, cfg):
        evaluated.append((r.size, s.size, np.array_equal(r, rx.points[:r.size])))
        return np.zeros((r.size, s.size), dtype=np.complex128)

    monkeypatch.setattr(spectra, "_green_matrix", recording)
    for rows in (-(-rx.m // 2), rx.m):
        tracemalloc.start()
        try:
            plan = spectra.solve_plan(*sides, rows, True)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced < 1024, traced
        assert plan == spectra._grid_plan(rx, tx, rows)
        evaluated.clear()
        spectra._lattice(rx, tx, cfg, rows)
        count, k_rx, k_tx = plan.table
        assert evaluated == [(rows, tx.m, True) if plan.direct
                             else (count, k_rx * k_tx, False)], (layout, rows)
    if layout not in SMALL_LAYOUTS:  # small receivers are direct at some distances
        assert plan.direct == (layout in DIRECT_LAYOUTS)


def _spectrum_peak(cfg, rx, tx) -> int:
    """tracemalloc peak of one centrosymmetric_spectrum call, in bytes.

    Every sketch draws its own sketch matrix, so each call is measured as a
    first call. tracemalloc does not see the working copies numpy.linalg's
    gufuncs make of the matrix they factor (test_basis_step_resident_memory
    and test_full_svd_fallback_resident_peak_within_guard measure those in
    resident memory instead)."""
    tracemalloc.start()
    try:
        centrosymmetric_spectrum(rx, tx, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_hermitian_rejects(default_cfg):
    bad = np.array([[1.0, 2.0], [2.0000001, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        validate_hermitian(bad)
    with pytest.raises(ValueError):
        validate_hermitian(np.ones((2, 3), dtype=complex))


# ---------------------------------------------------------- eigenvalues

def test_eigenvalues_zero_matrix():
    res = hermitian_eigenvalues(np.zeros((5, 5), dtype=complex))
    assert np.all(res.eigenvalues == 0.0)
    assert res.clamped_count == 0


def test_eigenvalues_scaled_identity():
    for K in (0.7 * np.eye(3, dtype=complex), (0.7 * np.eye(3)).tolist()):
        res = hermitian_eigenvalues(K)  # any array-like validate_hermitian accepts
        assert np.array_equal(res.eigenvalues, [0.7, 0.7, 0.7])


def test_eigenvalues_sorted_and_match_general_solver(default_cfg):
    import scipy.linalg

    K = assemble_kernel_matrix(midpoint_grid(default_cfg.aperture_m, 8), default_cfg)
    res = hermitian_eigenvalues(K)
    assert np.all(np.diff(res.eigenvalues) <= 0)
    # independent route: the general (non-Hermitian) dense eigensolver
    general = np.sort(scipy.linalg.eigvals(K).real)[::-1]
    scale = res.eigenvalues[0]
    assert np.allclose(res.eigenvalues, general, rtol=1e-10, atol=1e-10 * scale)


def test_eigen_sum_matches_trace(default_cfg):
    for d, m in ((0.1, 12), (1.0, 24), (50.0, 16)):
        cfg = SystemConfig(distance_m=d)
        K = assemble_kernel_matrix(midpoint_grid(cfg.aperture_m, m), cfg, 600)
        res = hermitian_eigenvalues(K)
        assert float(res.eigenvalues.sum()) == pytest.approx(float(K.trace().real), rel=1e-9)


def test_clamping_counts_material_negatives():
    K = np.diag([1.0, -1e-13]).astype(complex)
    res = hermitian_eigenvalues(K)
    assert res.clamped_count == 1
    assert np.array_equal(res.eigenvalues, [1.0, 0.0])


def test_roundoff_negatives_are_silently_zeroed():
    # within dim * eps of zero: numerically indistinguishable from PSD
    K = np.diag([1.0, -1e-17]).astype(complex)
    res = hermitian_eigenvalues(K)
    assert res.clamped_count == 0
    assert np.array_equal(res.eigenvalues, [1.0, 0.0])


def test_psd_violation_raises():
    K = np.diag([1.0, -1e-6]).astype(complex)
    with pytest.raises(PSDViolationError):
        hermitian_eigenvalues(K)


# --------------------------------------------------------------- logdet

def _logdet(K: np.ndarray, scale: float) -> float:
    return logdet_from_eigenvalues(hermitian_eigenvalues(K).eigenvalues, scale)


def test_logdet_zero_scale():
    assert _logdet(_random_psd(5, 0), 0.0) == 0.0


def test_logdet_scaled_identity():
    n, c, scale = 4, 0.31, 2.5
    val = _logdet(c * np.eye(n, dtype=complex), scale)
    assert val == pytest.approx(n * np.log1p(scale * c), rel=1e-14)


def test_logdet_against_row_reduction_oracle():
    K = _random_psd(6, 12)
    scale = 0.37
    oracle = logdet_by_row_reduction(np.eye(6) + scale * K)
    assert _logdet(K, scale) == pytest.approx(oracle, rel=1e-10)


def test_logdet_monotone_in_scale():
    K = _random_psd(7, 5)
    vals = [_logdet(K, s) for s in (0.0, 0.1, 0.5, 2.0, 10.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_logdet_permutation_invariant():
    # invariant in exact arithmetic; the eigensolver's rounding is
    # permutation-sensitive at the last-ulp level
    K = _random_psd(6, 42)
    rng = np.random.default_rng(1)
    perm = rng.permutation(6)
    Kp = K[np.ix_(perm, perm)]
    assert _logdet(K, 0.7) == pytest.approx(_logdet(Kp, 0.7), rel=5e-14)


def test_logdet_rejects_negative_scale():
    with pytest.raises(ValueError):
        _logdet(np.eye(2, dtype=complex), -0.1)


def test_logdet_rejects_non_finite_scale():
    # a nan scale would pass a test for scale < 0 and return nan
    for scale in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale must be finite and >= 0"):
            logdet_from_eigenvalues(np.ones(3), scale)
