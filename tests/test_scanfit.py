"""Fringe fitting: exact recovery, canonical form, uncertainty behavior."""

import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest

from wdmqkd import (
    BiphotonPureState,
    DetectionConfig,
    FitResult,
    ScanData,
    fit_scan,
    fit_scans,
    fit_sinusoid,
    scan_metrics,
    simulate_scan,
    simulate_scans,
    signed_angle_difference,
    visibility,
)
from wdmqkd.cli import main

ANGLES = np.arange(0.0, 181.0, 10.0)


def fringe(theta, c, v, theta0):
    return c * (1.0 + v * np.cos(2.0 * np.pi * (theta - theta0) / 180.0))


def test_noiseless_recovery_period_180():
    y = fringe(ANGLES, 500.0, 0.7, 60.0)
    fit = fit_sinusoid(ANGLES, y)
    assert fit.n_points == ANGLES.size
    assert fit.c == pytest.approx(500.0, rel=1e-6)
    assert fit.v == pytest.approx(0.7, rel=1e-6)
    assert fit.theta0 == pytest.approx(60.0, rel=1e-6)
    assert fit.chi2_reduced == pytest.approx(0.0, abs=1e-12)


def test_noiseless_recovery_many_parameter_draws():
    rng = np.random.default_rng(41)
    for _ in range(50):
        c = rng.uniform(50.0, 5000.0)
        v = rng.uniform(0.05, 1.0)
        theta0 = rng.uniform(0.0, 180.0)
        y = fringe(ANGLES, c, v, theta0)
        fit = fit_sinusoid(ANGLES, y)
        assert fit.c == pytest.approx(c, rel=1e-6)
        assert fit.v == pytest.approx(v, rel=1e-6)
        dt = (fit.theta0 - theta0 + 90.0) % 180.0 - 90.0
        assert abs(dt) <= 1e-6 * 180.0


def test_refit_is_a_fixed_point():
    # moderate visibility keeps the fitted model strictly positive, so it can
    # be fed back in as exact data
    state = BiphotonPureState.from_degrees(1.0, 60.0)
    scan = simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=2))
    fit1 = fit_scan(scan)
    y_model = fringe(np.asarray(scan.angles), fit1.c, fit1.v, fit1.theta0)
    fit2 = fit_sinusoid(np.asarray(scan.angles), y_model)
    assert fit2.c == pytest.approx(fit1.c, rel=1e-9)
    assert fit2.v == pytest.approx(fit1.v, rel=1e-9)
    assert fit2.theta0 == pytest.approx(fit1.theta0, rel=1e-9)


def test_canonical_form():
    # negative visibility input is folded to positive v with a half-period
    # phase shift; theta0 always lands in [0, period)
    y = fringe(ANGLES, 300.0, 0.5, 20.0)
    fit = fit_sinusoid(ANGLES, y)
    assert fit.v >= 0.0
    assert 0.0 <= fit.theta0 < 180.0
    y_flipped = fringe(ANGLES, 300.0, -0.5, 20.0)
    fit_b = fit_sinusoid(ANGLES, y_flipped)
    assert fit_b.v == pytest.approx(0.5, rel=1e-6)
    assert fit_b.theta0 == pytest.approx(110.0, rel=1e-6)


def test_noisy_fit_recovers_within_errors():
    state = BiphotonPureState(1.73, 0.0)
    config = DetectionConfig(seed=7, pair_rate=2000.0)
    scan = simulate_scan(state, ("signal", 45.0), ANGLES, config)
    fit = fit_scan(scan)
    metrics = scan_metrics(fit)
    assert fit.n_points == ANGLES.size
    # true values for this state at theta_s = 45
    assert abs(metrics.theta_max - 59.97059823848534) < 4.0 * metrics.theta_max_err
    true_vis = visibility(state, 45.0)
    assert abs(metrics.visibility - true_vis) < 4.0 * metrics.visibility_err
    assert 0.2 < fit.chi2_reduced < 5.0


def test_error_bars_scale_with_counts():
    state = BiphotonPureState(1.0, 0.0)
    low = fit_scan(simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=1, pair_rate=500.0)))
    high = fit_scan(simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=1, pair_rate=50000.0)))
    assert high.theta0_err < low.theta0_err
    assert high.v_err < low.v_err


def test_coverage_sanity_small_batch():
    # 3-sigma interval should cover the true phase in nearly every trial;
    # with 60 trials even one miss is already unusual
    state = BiphotonPureState(1.73, 0.0)
    true_theta = 59.97059823848534
    misses = 0
    for seed in range(60):
        scan = simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=seed))
        fit = fit_scan(scan)
        dt = (fit.theta0 - true_theta + 90.0) % 180.0 - 90.0
        if abs(dt) > 3.0 * fit.theta0_err:
            misses += 1
    assert misses <= 3


def test_constant_data_has_unidentifiable_phase():
    y = np.full(ANGLES.shape, 400.0)
    fit = fit_sinusoid(ANGLES, y)
    assert fit.v == pytest.approx(0.0, abs=1e-9)
    assert fit.theta0_err > 1e3 or math.isinf(fit.theta0_err)


def test_input_validation():
    y = fringe(ANGLES, 100.0, 0.5, 10.0)
    with pytest.raises(ValueError):
        fit_sinusoid(ANGLES[:3], y[:3])
    with pytest.raises(ValueError):
        fit_sinusoid(np.arange(0.0, 50.0, 10.0), fringe(np.arange(0.0, 50.0, 10.0), 100, 0.5, 0))
    with pytest.raises(ValueError):
        fit_sinusoid(ANGLES, -y)
    with pytest.raises(ValueError):
        fit_sinusoid(ANGLES, y[:-1])


def test_all_zero_counts_rejected():
    with pytest.raises(ValueError, match="all zero"):
        fit_sinusoid(ANGLES, np.zeros(ANGLES.shape))


def test_fit_result_dict_keys(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text('{"source": {"n_channels": 1}}')
    assert main(["simulate-fit", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    d = json.loads((tmp_path / "out" / "fit_ch00_thetas_45.json").read_text())
    assert sorted(d) == [
        "c",
        "c_err",
        "chi2_reduced",
        "theta0_deg",
        "theta0_err_deg",
        "v",
        "v_err",
    ]
    assert isinstance(d["c"], float)


def test_duplicate_angles_rejected():
    # two distinct angles cannot fix three parameters, so no error bars exist
    with pytest.raises(ValueError, match="distinct angles"):
        fit_sinusoid([0.0, 0.0, 0.0, 0.0, 90.0], [100.0, 100.0, 100.0, 100.0, 40.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("target", ["angles", "counts"])
def test_non_finite_input_rejected(bad, target, capfd):
    theta = ANGLES.copy()
    y = fringe(ANGLES, 300.0, 0.5, 40.0)
    (theta if target == "angles" else y)[3] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_sinusoid(theta, y)
    assert capfd.readouterr().err == ""


def test_permuted_points_fit_identically():
    state = BiphotonPureState(1.73, 0.0)
    scan = simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=4))
    theta, y = np.asarray(scan.angles), np.asarray(scan.counts, dtype=float)
    fit = fit_sinusoid(theta, y)
    order = np.random.default_rng(9).permutation(theta.size)
    permuted = fit_sinusoid(theta[order], y[order])
    for name in ("c", "v", "theta0", "chi2_reduced", "c_err", "v_err", "theta0_err"):
        assert getattr(permuted, name) == pytest.approx(getattr(fit, name), rel=1e-12)


@pytest.mark.parametrize("c", [100.0, 300.0, 1000.0])
@pytest.mark.parametrize("v", [0.3, 0.5, 0.9])
def test_peak_at_zero_folds_below_period(c, v):
    # a fitted phase a rounding error below 0 must fold to 0.0, not to 180.0
    fit = fit_sinusoid(ANGLES, fringe(ANGLES, c, v, 0.0))
    assert 0.0 <= fit.theta0 < 180.0
    assert min(fit.theta0, 180.0 - fit.theta0) < 1e-9


def _lstsq_fit(theta, y):
    """Reference: weighted lstsq solves per scan, then the same mapping.

    The first solve weights each point by max(counts, 1), the next two by
    max(model counts, 1) of the previous solve.  Returns (c, v, theta0,
    covariance, chi2_reduced).
    """
    period = 180.0
    omega = 2.0 * np.pi / period
    design = np.column_stack([np.ones_like(theta), np.cos(omega * theta), np.sin(omega * theta)])
    variance = y
    for _ in range(3):
        sqrt_w = 1.0 / np.sqrt(np.maximum(variance, 1.0))
        weighted, target = design * sqrt_w[:, None], y * sqrt_w
        solution, _, rank, _ = np.linalg.lstsq(weighted, target, rcond=None)
        assert rank == 3
        # one refinement step, as in fit_scans: the next weights magnify rounding
        solution += np.linalg.lstsq(weighted, target - weighted @ solution, rcond=None)[0]
        variance = design @ solution
    a, b, s = solution
    chi2_reduced = np.sum((target - weighted @ solution) ** 2) / (theta.size - 3)
    c, v, theta0 = a, math.hypot(b, s) / a, math.atan2(s, b) / omega
    if v < 0.0:
        v, theta0 = -v, theta0 + period / 2.0
    theta0 %= period
    phase = omega * (theta - theta0)
    jac = np.column_stack(
        [1.0 + v * np.cos(phase), c * np.cos(phase), c * v * omega * np.sin(phase)]
    ) * sqrt_w[:, None]
    scale = np.linalg.norm(jac, axis=0)  # unit columns keep small correlations accurate
    covariance = np.linalg.inv((jac / scale).T @ (jac / scale)) / np.outer(scale, scale)
    return c, v, theta0, covariance, chi2_reduced


def _monte_carlo_scans(n_seeds):
    """Four signal-fixed scans per seed, each seed with its own state."""
    rng = np.random.default_rng(2024)
    scans = []
    for seed in range(n_seeds):
        state = BiphotonPureState(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0 * np.pi))
        config = DetectionConfig(seed=seed, pair_rate=rng.uniform(200.0, 20000.0), accidental_rate=2.0)
        scans += simulate_scans(state, "signal", (0.0, 45.0, 90.0, 135.0), ANGLES, config, channel_id=seed)
    return scans


def _assert_fit_scans_match_lstsq(scans):
    # tolerances: 1e-12 relative (covariance entries relative to their
    # correlation scale sqrt(cov_ii * cov_jj)), theta0 within 1e-9 deg
    fits = fit_scans(scans)
    assert len(fits) == len(scans)
    for scan, fit in zip(scans, fits):
        assert isinstance(fit, FitResult)
        theta, y = np.asarray(scan.angles), np.asarray(scan.counts, dtype=float)
        c, v, theta0, covariance, chi2 = _lstsq_fit(theta, y)
        assert fit.c == pytest.approx(c, rel=1e-12)
        assert fit.v == pytest.approx(v, rel=1e-12)
        assert fit.chi2_reduced == pytest.approx(chi2, rel=1e-12)
        assert abs(signed_angle_difference(fit.theta0, theta0)) <= 1e-9
        errors = np.sqrt(np.diag(covariance))
        assert (fit.c_err, fit.v_err, fit.theta0_err) == pytest.approx(tuple(errors), rel=1e-12)
        assert np.all(np.abs(fit.covariance - covariance) <= 1e-12 * np.outer(errors, errors))


def test_fit_scans_match_per_scan_lstsq():
    _assert_fit_scans_match_lstsq(_monte_carlo_scans(80))  # 320 scans in one call


def test_fit_scans_all_zero_row_fails_alone():
    state = BiphotonPureState(1.73, 0.0)
    good = simulate_scans(state, "signal", (0.0, 45.0), ANGLES, DetectionConfig(seed=3))
    empty = ScanData("signal", 90.0, tuple(ANGLES), (0,) * len(ANGLES))
    fits = fit_scans([good[0], empty, good[1]])
    with pytest.raises(ValueError) as single:
        fit_scan(empty)
    assert isinstance(fits[1], ValueError)
    assert str(fits[1]) == str(single.value) == "counts are all zero: an empty scan has no fringe to fit"
    for scan, fit in ((good[0], fits[0]), (good[1], fits[2])):
        alone = fit_scan(scan)
        for name in ("c", "v", "theta0", "chi2_reduced", "c_err", "v_err", "theta0_err"):
            assert getattr(fit, name) == pytest.approx(getattr(alone, name), rel=1e-12)


def test_fit_scans_covariances_are_separate_arrays():
    scans = simulate_scans(BiphotonPureState(1.0, 0.0), "signal", (0.0, 45.0, 90.0), ANGLES, DetectionConfig(seed=8))
    fits = fit_scans(scans)
    for i, fit in enumerate(fits):
        assert fit.covariance.shape == (3, 3)
        assert fit.covariance.base is None
        assert not any(np.shares_memory(fit.covariance, other.covariance) for other in fits[i + 1 :])
    before = fits[1].covariance.copy()
    with pytest.raises(ValueError, match="read-only"):
        fits[0].covariance[:] = 0.0
    np.testing.assert_array_equal(fits[1].covariance, before)


def test_fits_compare_and_hash_by_every_field():
    y = fringe(ANGLES, 500.0, 0.7, 60.0) + np.where(np.arange(ANGLES.size) % 2, 3.0, -3.0)
    fit = fit_sinusoid(ANGLES, y)
    again = fit_sinusoid(ANGLES, y)
    assert fit == again and hash(fit) == hash(again) and len({fit, again}) == 1
    assert fit != fit_sinusoid(ANGLES, y + 1.0)
    cov = fit.covariance.copy()
    cov[2, 1] += 1.0
    other = FitResult(fit.c, fit.v, fit.theta0, cov, fit.chi2_reduced, fit.n_points)
    assert fit != other and fit != "a fit"
    assert [f.name for f in dataclasses.fields(FitResult)] == [
        "c", "v", "theta0", "covariance", "chi2_reduced", "n_points"
    ]
    assert fit != dataclasses.replace(fit, n_points=fit.n_points + 1)
    # the returned covariance is the fit's own and cannot be written
    with pytest.raises(ValueError, match="read-only"):
        fit.covariance[0, 0] = 0.0
    assert not np.shares_memory(other.covariance, cov)


def test_fit_scans_input_checks():
    scans = simulate_scans(BiphotonPureState(1.0, 0.0), "signal", (0.0, 45.0), ANGLES, DetectionConfig())
    assert fit_scans([]) == []
    other = simulate_scan(BiphotonPureState(1.0, 0.0), ("signal", 0.0), ANGLES[:-1], DetectionConfig())
    with pytest.raises(ValueError, match="share one angle list"):
        fit_scans([scans[0], other])


def test_subnormal_counts_get_inf_error_bars_alone():
    # 1/c overflows at subnormal counts, so v and theta0 cannot be identified
    tiny = types.SimpleNamespace(angles=tuple(ANGLES), counts=(1e-320,) * ANGLES.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_sinusoid(ANGLES, tiny.counts)
        good = simulate_scans(BiphotonPureState(1.73, 0.0), "signal", (0.0, 45.0), ANGLES, DetectionConfig(seed=3))
        fits = fit_scans([good[0], tiny, good[1]])
    assert fit.v == 0.0
    assert math.isinf(fit.v_err) and math.isinf(fit.theta0_err)
    assert math.isfinite(fit.c_err)  # the baseline is still the weighted mean
    assert not np.isnan(fit.covariance).any()
    np.testing.assert_array_equal(fits[1].covariance, fit.covariance)
    for scan, batched in ((good[0], fits[0]), (good[1], fits[2])):
        alone = fit_scan(scan)
        for name in ("c", "v", "theta0", "chi2_reduced", "c_err", "v_err", "theta0_err"):
            assert getattr(batched, name) == pytest.approx(getattr(alone, name), rel=1e-12)


ZERO_BASELINE = "the fitted baseline c rounds to 0, so v is undefined"


@pytest.mark.parametrize(
    "theta, counts",
    [
        (ANGLES, [5e-324] + [0.0] * (ANGLES.size - 1)),  # a rounds to -0: h / a is nan
        ((0.0, 30.0, 60.0, 90.0, 120.0), (5e-324, 5e-324, 0.0, 0.0, 0.0)),  # a rounds to +0: h / a is inf
    ],
)
def test_zero_baseline_rejected(theta, counts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=ZERO_BASELINE):
            fit_sinusoid(theta, counts)


def test_fit_scans_zero_baseline_row_fails_alone():
    good = simulate_scans(BiphotonPureState(1.73, 0.0), "signal", (0.0, 45.0), ANGLES, DetectionConfig(seed=3))
    dust = types.SimpleNamespace(angles=tuple(ANGLES), counts=(5e-324,) + (0.0,) * (ANGLES.size - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = fit_scans([good[0], dust, good[1]])
    assert isinstance(fits[1], ValueError) and str(fits[1]) == ZERO_BASELINE
    for scan, batched in ((good[0], fits[0]), (good[1], fits[2])):
        alone = fit_scan(scan)
        for name in ("c", "v", "theta0", "chi2_reduced", "c_err", "v_err", "theta0_err"):
            assert getattr(batched, name) == pytest.approx(getattr(alone, name), rel=1e-12)


@pytest.mark.parametrize("scale", [5e307, 1e308])
def test_error_bars_stay_finite_near_the_float_limit(scale):
    # the squared fringe amplitude overflows here, so the covariance must not form it
    counts = scale * fringe(ANGLES, 1.0, 0.5, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_sinusoid(ANGLES, counts)
    assert fit.v == pytest.approx(0.5, rel=1e-9)
    for err in (fit.c_err, fit.v_err, fit.theta0_err):
        assert math.isfinite(err) and err > 0.0


def test_peak_error_bar_holds_at_a_low_count_point():
    # a characterize scan (channel 9, theta_s = 0, peak near 90 deg) whose
    # 10-deg point reads 1 where the model expects about 13.5; weighting that
    # point by its own counts pinned the fit 8.8 errors from the peak
    counts = (0, 1, 54, 109, 193, 271, 355, 437, 430, 449, 450, 392, 358, 273, 184, 124, 64, 16, 0)
    fit = fit_sinusoid(ANGLES, counts)
    assert abs(signed_angle_difference(fit.theta0, 90.0)) <= 3.0 * fit.theta0_err


def test_visibility_pull_calibrated_at_full_visibility():
    # f = 1 at theta_s = 45 has v = 1 exactly; over 400 seeded scans the pull
    # (v_hat - 1) / v_err must have an RMS of at most 1.2
    state = BiphotonPureState(1.0, 0.0)
    scans = [simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=seed)) for seed in range(400)]
    pulls = np.array([(fit.v - 1.0) / fit.v_err for fit in fit_scans(scans)])
    assert math.sqrt(np.mean(pulls**2)) <= 1.2
