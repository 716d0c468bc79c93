"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` verdict line (run
pytest with ``-s`` to see the PASS lines live).
"""

import functools
import math
import shutil

import numpy as np
import pytest

from wdmqkd import (
    BiphotonPureState,
    ChannelKeyReport,
    DetectionConfig,
    ProductState,
    ProtocolConfig,
    chsh_optimize,
    coincidence_probability,
    find_theta_max,
    fit_scan,
    fit_sinusoid,
    rate_expanded,
    run_bbm92,
    scan_metrics,
    secret_fraction,
    shift_table,
    signed_angle_difference,
    simulate_scan,
    visibility,
    wdm_aggregate,
)
from wdmqkd.biphoton import MeasurementSetting
from wdmqkd.cli import main

SCAN_ANGLES = tuple(float(t) for t in range(0, 181, 10))


def verdict(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:2d} {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {n:2d} {name}: PASS", flush=True)

        return wrapper

    return deco


@verdict(1, "expanded rate equals scaled Born probability")
def test_acceptance_01_rate_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        f = rng.uniform(0.0, 4.0)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        setting = MeasurementSetting(rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0))
        expanded = rate_expanded(f, alpha, setting)
        scaled = (1.0 + f * f) * coincidence_probability(BiphotonPureState(f, alpha), setting)
        worst = max(worst, abs(expanded - scaled))
    assert worst <= 1e-12


@verdict(2, "balanced-state peak shifts are 45 deg")
def test_acceptance_02_bell_shifts():
    for alpha_deg in (0.0, 180.0):
        state = BiphotonPureState.from_degrees(1.0, alpha_deg)
        for theta_s in (45.0, 135.0):
            (entry,) = shift_table(state, [theta_s], reference=0.0)
            assert abs(abs(entry.shift) - 45.0) <= 0.02


@verdict(3, "f=1.73 peak shift is 30.0 deg")
def test_acceptance_03_unbalanced_shift():
    state = BiphotonPureState(1.73, 0.0)
    entries = shift_table(state, [0.0, 45.0, 135.0], reference=0.0)
    shifts = [e.shift for e in entries]
    assert shifts[0] == 0.0
    assert abs(abs(shifts[1]) - 30.0) <= 0.1
    assert abs(abs(shifts[2]) - 30.0) <= 0.1
    # opposite rotation senses on the two sides of the reference
    assert shifts[1] < 0.0 < shifts[2]


@verdict(4, "visibility: unity for balanced states, 0.5 at alpha=60 deg")
def test_acceptance_04_visibility():
    thetas = np.arange(0.0, 180.0, 1.0)
    for alpha_deg in (0.0, 180.0):
        state = BiphotonPureState.from_degrees(1.0, alpha_deg)
        for theta_s in thetas:
            assert abs(visibility(state, float(theta_s)) - 1.0) <= 1e-9
    state = BiphotonPureState.from_degrees(1.0, 60.0)
    assert abs(visibility(state, 45.0) - 0.5) <= 1e-9


@verdict(5, "product-state peak independent of the signal angle")
def test_acceptance_05_product_state_peak():
    state = ProductState()
    theta_s_set = (0.0, 45.0, 135.0)

    # analytically: one common peak position for all signal angles
    peaks = [find_theta_max(state, ts).theta_max for ts in theta_s_set]
    for peak in peaks[1:]:
        assert abs(signed_angle_difference(peak, peaks[0])) <= 0.02

    # by simulation and fit: estimates agree pairwise within joint 3 sigma
    config = DetectionConfig(pair_rate=2000.0, accidental_rate=2.0, seed=0)
    fitted = []
    for ts in theta_s_set:
        scan = simulate_scan(state, ("signal", ts), SCAN_ANGLES, config)
        metrics = scan_metrics(fit_scan(scan))
        fitted.append((metrics.theta_max, metrics.theta_max_err))
    for i in range(len(fitted)):
        for j in range(i + 1, len(fitted)):
            diff = signed_angle_difference(fitted[i][0], fitted[j][0])
            bound = 3.0 * math.hypot(fitted[i][1], fitted[j][1])
            assert abs(diff) <= bound, (theta_s_set[i], theta_s_set[j], diff, bound)


@verdict(6, "CHSH: 2*sqrt(2) for the balanced state, classical bound for product")
def test_acceptance_06_chsh():
    _, s_bell = chsh_optimize(BiphotonPureState(1.0, 0.0))
    assert abs(s_bell - 2.828427) <= 1e-6  # 2*sqrt(2) = 2.8284271...

    _, s_product = chsh_optimize(ProductState())
    assert s_product <= 2.0 + 1e-6

    # exact oracle over every quadruple of a 1-degree grid: the factorized
    # correlation E = sin(2a) sin(2b) never exceeds the classical bound.
    # S = e_b (e_a + e_a') + e_b' (e_a' - e_a) is linear in e_b and e_b', so
    # for each (a, a') they are maximized at the grid's extreme e values
    # (test_correlation checks this form against brute force).
    e = np.sin(2.0 * np.radians(np.arange(0.0, 180.0, 1.0)))
    best_b = lambda c: np.maximum(c * e.max(), c * e.min())
    best = float((best_b(e[:, None] + e[None, :]) + best_b(e[None, :] - e[:, None])).max())
    assert best <= 2.0 + 1e-6


@verdict(7, "fit recovery: exact on noiseless data, calibrated errors under noise")
def test_acceptance_07_fit_round_trip():
    theta = np.asarray(SCAN_ANGLES)
    y = 100.0 * (1.0 + 0.9 * np.cos(2.0 * np.pi * (theta - 20.0) / 180.0))
    fit = fit_sinusoid(theta, y)
    assert abs(fit.c - 100.0) / 100.0 <= 1e-6
    assert abs(fit.v - 0.9) / 0.9 <= 1e-6
    assert abs(fit.theta0 - 20.0) / 20.0 <= 1e-6

    # coverage: 500 seeded Poisson scans peaking near 1000 counts (pair rate
    # 2000/s, peak probability 1/2); every true parameter must fall within 3
    # reported standard errors in >= 99% of runs
    state = BiphotonPureState(1.73, 0.0)
    c_true = 2000.0 * 0.25
    res = find_theta_max(state, 45.0)
    v_true = res.visibility
    theta0_true = res.theta_max
    covered = 0
    n_runs = 500
    for seed in range(n_runs):
        scan = simulate_scan(
            state, ("signal", 45.0), SCAN_ANGLES, DetectionConfig(pair_rate=2000.0, seed=seed)
        )
        fit = fit_scan(scan)
        ok_c = abs(fit.c - c_true) <= 3.0 * fit.c_err
        ok_v = abs(fit.v - v_true) <= 3.0 * fit.v_err
        ok_t = abs(signed_angle_difference(fit.theta0, theta0_true)) <= 3.0 * fit.theta0_err
        covered += ok_c and ok_v and ok_t
    assert covered >= math.ceil(0.99 * n_runs), f"covered {covered}/{n_runs}"


@verdict(8, "key rates: clean rectilinear basis, predicted diagonal errors")
def test_acceptance_08_qkd_analytics():
    f = 1.73
    q_diag_true = (1.0 - f) ** 2 / (2.0 * (1.0 + f * f))
    report = run_bbm92(BiphotonPureState(f, 0.0), ProtocolConfig(n_pairs=100_000, seed=2))
    assert report.qber_rect == 0.0
    n_diag = report.sifted_bits / 2.0
    sigma = math.sqrt(q_diag_true * (1.0 - q_diag_true) / n_diag)
    assert abs(report.qber_diag - q_diag_true) <= 4.0 * sigma
    assert abs(secret_fraction(0.0, 0.0667) - 0.6465) <= 5e-4


@verdict(9, "aggregate key of identical channels is exactly additive")
def test_acceptance_09_wdm_additivity():
    config = ProtocolConfig(n_pairs=50_000, seed=4)
    single = run_bbm92(BiphotonPureState(1.0, 0.0), config, channel_id=0, lambda_signal=870.0)
    summary = wdm_aggregate([single] * 8)
    assert summary.total_sifted_bits == 8 * single.sifted_bits
    assert summary.total_secret_bits == 8 * single.secret_bits_estimate

    # and plain additivity over distinct constructed channels
    reports = [
        ChannelKeyReport(866.0, 40_000, 0.0, 0.0667, 0.6465, 25_860.0),
        ChannelKeyReport(870.0, 40_000, 0.0, 0.0, 1.0, 40_000.0),
    ]
    combined = wdm_aggregate(reports)
    assert combined.total_secret_bits == pytest.approx(25_860.0 + 40_000.0)
    assert combined.total_sifted_bits == 80_000


@verdict(10, "every CLI command is byte-deterministic under a fixed seed")
def test_acceptance_10_cli_determinism(tmp_path):
    commands = (
        ["theory-scan", "--f", "1.73", "--alpha-deg", "0"],
        ["simulate-fit"],
        ["spectrum"],
        ["qkd"],
        ["reproduce-figures"],
    )
    for idx, argv in enumerate(commands):
        out = tmp_path / str(idx)
        full_argv = [*argv, "--seed", "7", "--out", str(out)]
        # identical invocation twice; the first run's files are snapshotted
        # before the rerun overwrites them in place
        assert main(full_argv) == 0, argv
        snapshot = tmp_path / f"{idx}_snapshot"
        shutil.copytree(out, snapshot)
        assert main(full_argv) == 0, argv
        files_a = sorted(p.relative_to(snapshot) for p in snapshot.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert files_a == files_b and files_a, argv
        for rel in files_a:
            assert (snapshot / rel).read_bytes() == (out / rel).read_bytes(), (argv, rel)
