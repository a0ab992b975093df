"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line. The
tolerances below are pinned, not calibrated at runtime.

Criterion 08 tests the DoF rule l^2/(d*wavelength) = 2 at d = 50 m where
it holds: two eigenvalues lie above half the largest, and the rule allows
floor(N) or floor(N) + 1. The 1% count is 4, not 2, because the
prolate-spheroidal plunge region adds modes between the two levels; it
is checked against the Fresnel-limit prolate concentration spectrum at
c = k l^2 / (4d) = pi (``oracles.prolate_concentration_spectrum``), whose
top five relative eigenvalues [1, .7641, .2483, .02512, .001087] the
library's [1, .7635, .2478, .02505, .001082] match to 4e-3 relative.

The Richardson-ladder tests after criterion 05 are not criteria: they
check the convergence that criteria 04 and 05 fit, at its stated rate.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from capmimo import (
    SystemConfig,
    assemble_kernel_matrix,
    dof_estimate,
    fit_convergence_slope,
    hermitian_eigenvalues,
    mi_continuous,
    mi_discrete_rx,
    mi_discrete_trx,
    midpoint_grid,
    noise_rx,
    operator_trace,
    sweep_receiver,
    sweep_transceiver,
)

from oracles import (
    fresnel_bandwidth,
    logdet_by_row_reduction,
    prolate_concentration_spectrum,
    richardson_step,
)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_psd_property_suite():
    distances = np.geomspace(0.1, 200.0, 7)
    configs = list(itertools.product(distances, (4, 16, 64)))
    del configs[10]  # keep all extremes, 20 configs total
    assert len(configs) == 20
    worst_rel = 0.0
    max_clamped = 0
    for d, m in configs:
        cfg = SystemConfig(distance_m=float(d))
        K = assemble_kernel_matrix(midpoint_grid(cfg.aperture_m, m), cfg)
        assert np.array_equal(K, K.conj().T), f"not Hermitian at d={d}, m={m}"
        res = hermitian_eigenvalues(K)  # raises below -1e-12 * lambda_max
        max_clamped = max(max_clamped, res.clamped_count)
        raw = np.linalg.eigvalsh(K)
        if raw[-1] > 0:
            worst_rel = min(worst_rel, raw[0] / raw[-1])
    ok = max_clamped <= 2
    _criterion(1, "psd-property-suite", ok,
               f"20 configs, max clamped_count = {max_clamped}, "
               f"worst raw eigenvalue ratio = {worst_rel:.2e}")


def test_criterion_02_trace_identity(default_cfg):
    m = 800
    K = assemble_kernel_matrix(midpoint_grid(default_cfg.aperture_m, m), default_cfg)
    eig_mass = float(hermitian_eigenvalues(K).eigenvalues.sum()) * default_cfg.aperture_m / m
    trace = operator_trace(default_cfg)
    rel = abs(eig_mass - trace) / trace
    _criterion(2, "trace-identity", rel <= 1e-3,
               f"eigen mass {eig_mass:.6f} vs trace {trace:.6f}, rel = {rel:.2e}")


def test_criterion_03_oracle_equivalence(default_cfg):
    res_rx = mi_discrete_rx(8, default_cfg)
    K8 = assemble_kernel_matrix(midpoint_grid(default_cfg.aperture_m, 8), default_cfg)
    oracle_rx = logdet_by_row_reduction(np.eye(8) + (2.0 / res_rx.noise_used) * K8)
    rel_rx = abs(res_rx.value_nats - oracle_rx) / abs(oracle_rx)

    res_trx = mi_discrete_trx(4, 4, default_cfg)
    from capmimo import assemble_channel_matrix
    from capmimo.spectra import gram_from_channel
    grid4 = midpoint_grid(default_cfg.aperture_m, 4)
    K4 = gram_from_channel(assemble_channel_matrix(grid4, grid4, default_cfg),
                           default_cfg.power_density)
    oracle_trx = logdet_by_row_reduction(np.eye(4) + (2.0 / res_trx.noise_used) * K4)
    rel_trx = abs(res_trx.value_nats - oracle_trx) / abs(oracle_trx)

    _criterion(3, "oracle-equivalence", rel_rx <= 1e-9 and rel_trx <= 1e-9,
               f"rx rel = {rel_rx:.2e}, trx rel = {rel_trx:.2e}")


def test_criterion_04_receiver_convergence_order(default_cfg):
    rows = sweep_receiver(default_cfg, [10.0], [10, 20, 40, 80], ref_m=1600)
    fit = fit_convergence_slope(rows)
    ok = fit.slope <= -1.7 and fit.r_squared >= 0.95
    _criterion(4, "receiver-convergence-order", ok,
               f"slope = {fit.slope:.3f} (<= -1.7), r^2 = {fit.r_squared:.4f} (>= 0.95)")


def test_criterion_05_transceiver_convergence_order(default_cfg):
    rows = sweep_transceiver(default_cfg, [1.0], [10, 20, 40, 80], ref_m=1600)
    fit = fit_convergence_slope(rows)
    _criterion(5, "transceiver-convergence-order", fit.slope <= -1.7,
               f"slope = {fit.slope:.3f} (<= -1.7), r^2 = {fit.r_squared:.4f}")


# antenna counts of the Richardson ladder: four doublings
LADDER = (100, 200, 400, 800, 1600)


def _ladder_errors(model: str, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Errors against mi_continuous of one and two Richardson steps over LADDER."""
    cfg = SystemConfig(distance_m=d)
    values = [(mi_discrete_trx(m, m, cfg) if model == "trx" else mi_discrete_rx(m, cfg)).value_nats
              for m in LADDER]
    r1 = richardson_step(values, 2)
    r2 = richardson_step(r1, 4)
    limit = mi_continuous(cfg).value_nats
    return r1 - limit, r2 - limit


@pytest.mark.parametrize("model", ["trx", "rx"])
def test_richardson_ladder_converges_at_stated_rate(model):
    # criteria 04/05 fit a slope; here the discrete arrays' extrapolated
    # limit is checked against the continuous reference at the rate the
    # midpoint expansion states. At d = 10 m one step (m^-2 removed) leaves
    # an m^-4 error, 16.01-16.14 times smaller per doubling; a second step
    # leaves an m^-6 error (ratio 65-70) and reaches the reference within
    # 8.6e-10 nats from 200/400/800 antennas
    r1, r2 = _ladder_errors(model, 10.0)
    ratios = r1[:-1] / r1[1:]
    assert np.all(np.abs(ratios - 16.0) <= 1.0), ratios
    assert np.all(r2[:-1] / r2[1:] >= 40.0), r2
    assert abs(r2[1]) <= 3e-9, r2


def test_richardson_ladder_matches_reference_in_near_field():
    # at d = 1 m the ladder is pre-asymptotic at 100 antennas, yet two
    # steps from 200/400/800 antennas reach the reference within 1.5e-5 nats
    _, r2 = _ladder_errors("trx", 1.0)
    assert np.all(r2[:-1] / r2[1:] >= 40.0), r2
    assert abs(r2[1]) <= 5e-5, r2


def test_criterion_06_noise_rescaling_bound(default_cfg):
    ms = (10, 100, 1000)
    gaps, ok_bounds = [], True
    for m in ms:
        control = noise_rx(midpoint_grid(default_cfg.aperture_m, m), default_cfg)
        gaps.append(control.gap)
        ok_bounds = ok_bounds and control.gap <= control.gap_bound
    slope = float(np.polyfit(np.log(ms), np.log(gaps), 1)[0])
    ok = ok_bounds and slope <= -1.7
    _criterion(6, "noise-rescaling-bound", ok,
               f"gaps within bound: {ok_bounds}, ladder slope = {slope:.3f}")


def test_criterion_07_half_wavelength_near_optimality(default_cfg):
    ref_far = mi_continuous(default_cfg, ref_m=1600).value_nats
    ratio_far = mi_discrete_rx(100, default_cfg).value_nats / ref_far
    near_cfg = SystemConfig(distance_m=0.1)
    ref_near = mi_continuous(near_cfg, ref_m=1600).value_nats
    ratio_near = mi_discrete_rx(100, near_cfg).value_nats / ref_near
    ok = ratio_far >= 0.99 and ratio_near < ratio_far
    _criterion(7, "half-wavelength-near-optimality", ok,
               f"d=10: ratio = {ratio_far:.5f} (>= 0.99); d=0.1: ratio = {ratio_near:.5f}")


def test_criterion_08_dof_rule():
    cfg = SystemConfig(distance_m=50.0)
    est = dof_estimate(cfg, ref_m=1600)
    half = dof_estimate(cfg, ref_m=1600, threshold_rel=0.5)
    spectrum = mi_continuous(cfg, ref_m=1600).eigenvalues
    top = spectrum[:5] / spectrum[0]
    # Fresnel-limit oracle: prolate concentration spectrum at c = k l^2 / (4d)
    c = fresnel_bandwidth(cfg)
    oracle = prolate_concentration_spectrum(c)
    oracle_top = oracle[:5] / oracle[0]
    oracle_count = int(np.sum(oracle >= est.threshold_rel * oracle[0]))
    trace_err = abs(float(oracle.sum()) - 2.0 * c / np.pi)
    top_dev = float(np.max(np.abs(top - oracle_top) / oracle_top))
    # the rule N = l^2/(d*wavelength) = 2c/pi counts the eigenvalues above
    # half the largest: floor(N) or floor(N) + 1 of them (Landau 1993)
    ok = (est.analytic == 2.0 and half.eigen_count in (2, 3)
          and trace_err <= 1e-12 and est.eigen_count == oracle_count
          and top_dev <= 1e-2)
    _criterion(8, "dof-rule", ok,
               f"analytic = {est.analytic} (exact 2.0), count @50% = {half.eigen_count} "
               f"(in {{2, 3}}), count @1% = {est.eigen_count} (oracle {oracle_count}); "
               f"top-5 relative spectrum [{', '.join(f'{v:.4g}' for v in top)}] vs oracle "
               f"[{', '.join(f'{v:.4g}' for v in oracle_top)}], max rel dev = {top_dev:.2e} "
               f"(<= 1e-2); oracle trace error vs 2c/pi = {trace_err:.1e} (<= 1e-12)")


def test_criterion_09_shortboard_effect():
    cfg = SystemConfig(distance_m=1.0)
    base = mi_discrete_trx(10, 100, cfg).value_nats
    doubled = mi_discrete_trx(10, 200, cfg).value_nats
    change = abs(doubled - base) / base
    _criterion(9, "shortboard-effect", change < 0.02,
               f"I(10,100) = {base:.4f}, I(10,200) = {doubled:.4f}, change = {change:.2e}")


def test_criterion_10_deterministic_csv(tmp_path):
    args = ["sweep-receiver", "--distances", "10,1", "--m-list", "5,10,20",
            "--ref-m", "128", "--inner-points", "512"]
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "capmimo.cli", *args,
                               "--out", str(out)],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _criterion(10, "deterministic-csv", ok,
               f"two runs, {len(outputs[0])} bytes each, byte-identical = {ok}")
