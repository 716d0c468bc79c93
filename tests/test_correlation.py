"""Maximizer angles, visibility, CHSH optimization, and ratio-based f estimates.

The grid oracle scans the idler angle at 0.01 degree resolution and takes the
argmax, so the closed-form maximizer is checked against an evaluation of the
actual rate rather than against its own algebra.
"""

import math

import numpy as np
import pytest

from wdmqkd import (
    BiphotonPureState,
    ChshSettings,
    MeasurementSetting,
    ProductState,
    chsh_optimize,
    coincidence_probabilities,
    correlation_E,
    estimate_f,
    find_theta_max,
    joint_outcome_distribution,
    scan_coefficients,
    shift_table,
    signed_angle_difference,
    visibility,
)

GRID = np.arange(0.0, 180.0, 0.01)


def grid_theta_max(state, theta_s):
    rates = coincidence_probabilities(state, theta_s, GRID)
    return GRID[int(np.argmax(rates))], rates.max(), rates.min()


def born_chsh(state, settings):
    """S at the given settings, each E = p_tt + p_rr - p_tr - p_rt from the Born-rule outcome probabilities."""

    def e(theta_s, theta_i):
        tt, tr, rt, rr = joint_outcome_distribution(state, MeasurementSetting(theta_s, theta_i))
        return tt + rr - tr - rt

    a, a_prime, b, b_prime = settings.a, settings.a_prime, settings.b, settings.b_prime
    return e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime)


def separable_chsh_max(e):
    """Exact max of S over a grid when E(a, b) = e_a e_b.

    S = e_b (e_a + e_a') + e_b' (e_a' - e_a), so b and b' are maximized
    separately for each (a, a'); a linear function of e_b peaks at the
    largest or smallest e_b.
    """
    x = e[:, None] + e[None, :]
    y = e[None, :] - e[:, None]
    best = lambda c: np.maximum(c * e.max(), c * e.min())
    return float((best(x) + best(y)).max())


def brute_force_chsh_max(e):
    """Max of S = e_a (e_b - e_b') + e_a' (e_b + e_b') over every grid quadruple."""
    diff = e[:, None] - e[None, :]
    summ = e[:, None] + e[None, :]
    return max(
        float((ea * diff[None, :, :] + e[:, None, None] * summ[None, :, :]).max()) for ea in e
    )


def test_theta_max_matches_grid_argmax_random_states():
    rng = np.random.default_rng(21)
    for _ in range(60):
        f = rng.uniform(0.1, 3.5)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        theta_s = rng.uniform(5.0, 85.0)
        state = BiphotonPureState(f, alpha)
        res = find_theta_max(state, theta_s)
        t_grid, r_max, r_min = grid_theta_max(state, theta_s)
        if res.degenerate:
            continue
        assert abs(signed_angle_difference(res.theta_max, t_grid)) <= 0.02
        # the grid under-samples the extrema by up to ~(grid step)^2 in the
        # curve, so allow that much slack on the extreme values
        assert res.r_max == pytest.approx(r_max, rel=1e-6, abs=1e-7)
        assert res.r_min == pytest.approx(r_min, rel=1e-4, abs=1e-7)


def test_theta_max_frozen_bell_shifts():
    # f=1, alpha=0: maximum sits at 90 - theta_s, i.e. shift +45 at theta_s=45
    state = BiphotonPureState(1.0, 0.0)
    res = find_theta_max(state, 45.0)
    assert res.theta_max == pytest.approx(45.0, abs=1e-9)
    res = find_theta_max(state, 30.0)
    assert res.theta_max == pytest.approx(60.0, abs=1e-9)
    # f=1, alpha=pi: the scan follows sin^2(theta_s - theta_i), so the peak
    # sits 90 deg away from the signal angle
    state = BiphotonPureState(1.0, math.pi)
    res = find_theta_max(state, 30.0)
    assert res.theta_max == pytest.approx(120.0, abs=1e-9)


def test_theta_max_frozen_asymmetric_value():
    res = find_theta_max(BiphotonPureState(1.73, 0.0), 45.0)
    assert res.theta_max == pytest.approx(59.97059823848534, abs=1e-9)
    shift = signed_angle_difference(res.theta_max, 90.0 - 45.0)
    assert shift == pytest.approx(14.97059823848534, abs=1e-9)


def test_shift_table_reference_and_entries():
    state = BiphotonPureState(1.73, 0.0)
    # reference is a signal angle; its peak (90 deg for theta_s = 0) anchors
    # the shift column
    table = shift_table(state, [0.0, 45.0], reference=0.0)
    assert len(table) == 2
    assert table[0].shift == 0.0
    entry = table[1]
    assert entry.theta_s == 45.0
    assert entry.theta_max == pytest.approx(59.97059823848534, abs=1e-9)
    assert entry.shift == pytest.approx(-30.029401761514655, abs=1e-9)
    assert not entry.degenerate
    assert entry.visibility == visibility(state, 45.0)


def test_shift_table_bell_states():
    # f=1: the peak moves by the full 45 deg when the signal arm turns 45 deg
    table = shift_table(BiphotonPureState(1.0, 0.0), [45.0], reference=0.0)
    assert table[0].shift == pytest.approx(-45.0, abs=1e-9)
    table = shift_table(BiphotonPureState(1.0, math.pi), [45.0], reference=0.0)
    assert table[0].shift == pytest.approx(45.0, abs=1e-9)


def test_visibility_f1_is_abs_cos_alpha_at_45():
    for alpha_deg in (0.0, 30.0, 60.0, 90.0, 120.0, 180.0, 240.0):
        state = BiphotonPureState.from_degrees(1.0, alpha_deg)
        v = visibility(state, 45.0)
        assert v == pytest.approx(abs(math.cos(math.radians(alpha_deg))), abs=1e-9)


def test_visibility_unity_at_theta_s_zero():
    rng = np.random.default_rng(22)
    for _ in range(50):
        state = BiphotonPureState(rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi))
        assert visibility(state, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert visibility(state, 90.0) == pytest.approx(1.0, abs=1e-12)


def test_visibility_bounds():
    rng = np.random.default_rng(23)
    for _ in range(200):
        state = BiphotonPureState(rng.uniform(0, 3), rng.uniform(0, 2 * np.pi))
        v = visibility(state, rng.uniform(0, 180))
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_degenerate_scan_flat_cases():
    # f=0 and theta_s=0: the idler scan is exactly flat (zero everywhere)
    res = find_theta_max(BiphotonPureState(0.0, 0.0), 0.0)
    assert res.degenerate
    assert res.visibility == 0.0
    # product state with signal at 135: rate vanishes identically
    res = find_theta_max(ProductState(), 135.0)
    assert res.degenerate
    assert res.theta_max == pytest.approx(45.0)


def test_product_state_maximizer_is_45_everywhere():
    for theta_s in (0.0, 20.0, 45.0, 60.0, 100.0):
        res = find_theta_max(ProductState(), theta_s)
        assert res.theta_max == pytest.approx(45.0, abs=1e-9)
    res = find_theta_max(ProductState(), 45.0)
    assert not res.degenerate
    assert res.visibility == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta_s", [0.0, 45.0, 90.0, 135.0, 17.3, 1e6])
def test_product_state_peak_is_exactly_45(theta_s):
    # 135 is the degenerate (vanishing) scan; its peak comes from the singles fringe
    assert find_theta_max(ProductState(), theta_s).theta_max == 45.0


def test_maximizer_label_swap_symmetry():
    rng = np.random.default_rng(24)
    for _ in range(50):
        f = rng.uniform(0.2, 3.0)
        alpha = rng.uniform(0, 2 * np.pi)
        theta_s = rng.uniform(5, 85)
        a = find_theta_max(BiphotonPureState(f, alpha), theta_s)
        b = find_theta_max(BiphotonPureState(1.0 / f, alpha), 90.0 - theta_s)
        if a.degenerate or b.degenerate:
            continue
        mirrored = signed_angle_difference(90.0 - b.theta_max, a.theta_max)
        assert abs(mirrored) <= 1e-6


def test_chsh_value_frozen_examples():
    bell = BiphotonPureState(1.0, 0.0)
    settings = ChshSettings(a=0.0, a_prime=45.0, b=67.5, b_prime=22.5)
    s = born_chsh(bell, settings)
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    degenerate = ChshSettings(a=0.0, a_prime=0.0, b=0.0, b_prime=0.0)
    assert born_chsh(bell, degenerate) == pytest.approx(-2.0, abs=1e-12)


def test_chsh_optimize_bell_state():
    settings, s = chsh_optimize(BiphotonPureState(1.0, 0.0))
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert born_chsh(BiphotonPureState(1.0, 0.0), settings) == pytest.approx(s, abs=1e-9)


def test_chsh_optimize_matches_two_singular_value_bound():
    # |S|_max for this state family is 2*sqrt(1 + kappa^2) with
    # kappa = 2 f cos(alpha) / (1 + f^2); verified independently by grid search.
    rng = np.random.default_rng(25)
    for _ in range(12):
        f = rng.uniform(0.0, 3.0)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        state = BiphotonPureState(f, alpha)
        kappa = 2.0 * f * math.cos(alpha) / (1.0 + f * f)
        want = 2.0 * math.sqrt(1.0 + kappa * kappa)
        settings, s = chsh_optimize(state)
        assert s == pytest.approx(want, abs=1e-6)
        assert born_chsh(state, settings) == pytest.approx(s, abs=1e-9)


def _chsh_ceiling(f, alpha):
    kappa = 2.0 * f * math.cos(alpha) / (1.0 + f * f)
    return 2.0 * math.sqrt(1.0 + kappa * kappa)


@pytest.mark.parametrize("f, alpha_deg", [(0.2552, 89.5), (0.5, 90.35), (0.5, 90.37)])
def test_chsh_optimize_near_vanishing_diagonal_correlation(f, alpha_deg):
    # kappa cos(alpha) is ~5e-3 here; S exceeds 2 by only ~2e-5
    state = BiphotonPureState.from_degrees(f, alpha_deg)
    settings, s = chsh_optimize(state)
    assert s == pytest.approx(_chsh_ceiling(f, math.radians(alpha_deg)), abs=1e-12)
    assert s > 2.0 + 1e-5
    assert born_chsh(state, settings) == pytest.approx(s, abs=1e-12)


def test_chsh_optimize_closed_form_random_states():
    rng = np.random.default_rng(28)
    for _ in range(500):
        f = rng.uniform(0.0, 3.0)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        state = BiphotonPureState(f, alpha)
        settings, s = chsh_optimize(state)
        assert s == pytest.approx(_chsh_ceiling(f, alpha), abs=1e-12)
        assert born_chsh(state, settings) == pytest.approx(s, abs=1e-12)


def test_chsh_optimize_correlation_calls(monkeypatch):
    # M is read once per call, and S is read from that same T = M[1:, 1:]
    import wdmqkd.correlation as correlation

    calls = []
    original = correlation.plane_moments
    monkeypatch.setattr(correlation, "plane_moments", lambda *a: calls.append(a) or original(*a))
    for state in (BiphotonPureState(1.73, 0.4), ProductState()):
        calls.clear()
        chsh_optimize(state)
        assert len(calls) == 1


def test_chsh_never_exceeds_tsirelson():
    rng = np.random.default_rng(26)
    for _ in range(10000):
        state = BiphotonPureState(rng.uniform(0, 4), rng.uniform(0, 2 * np.pi))
        settings = ChshSettings(*rng.uniform(0, 180, size=4))
        assert abs(born_chsh(state, settings)) <= 2.0 * math.sqrt(2.0) + 1e-9


def test_chsh_product_state_classical_bound():
    settings, s = chsh_optimize(ProductState())
    assert s <= 2.0 + 1e-9
    assert s == pytest.approx(2.0, abs=1e-6)
    # exact maximum over every quadruple of a 1 degree grid; E factorizes as
    # sin2a sin2b, so S = sin2a (sin2b - sin2b') + sin2a' (sin2b + sin2b')
    best = separable_chsh_max(np.sin(2.0 * np.radians(np.arange(0.0, 180.0, 1.0))))
    assert best <= 2.0 + 1e-9
    assert best == pytest.approx(2.0, abs=1e-9)


def test_separable_chsh_max_equals_brute_force():
    e = np.sin(2.0 * np.radians(np.arange(0.0, 180.0, 5.0)))
    assert separable_chsh_max(e) == brute_force_chsh_max(e)
    # factors with no special values; the two sums round differently
    e = np.random.default_rng(29).uniform(-1.0, 1.0, size=36)
    assert separable_chsh_max(e) == pytest.approx(brute_force_chsh_max(e), abs=1e-12)


def test_correlation_product_form_consistency():
    # born_chsh reaches each E through the four-outcome distribution;
    # correlation_E contracts the tensor T instead.  Spot-check the sign
    # pattern, then random states and angles.
    state = BiphotonPureState(1.0, 0.0)
    settings = ChshSettings(a=10.0, a_prime=55.0, b=77.5, b_prime=32.5)
    manual = (
        correlation_E(state, MeasurementSetting(10.0, 77.5))
        - correlation_E(state, MeasurementSetting(10.0, 32.5))
        + correlation_E(state, MeasurementSetting(55.0, 77.5))
        + correlation_E(state, MeasurementSetting(55.0, 32.5))
    )
    assert born_chsh(state, settings) == pytest.approx(manual, abs=1e-12)
    rng = np.random.default_rng(30)
    for _ in range(200):
        state = BiphotonPureState(rng.uniform(0, 4), rng.uniform(0, 2 * np.pi))
        a, a_prime, b, b_prime = rng.uniform(-360.0, 360.0, size=4)
        e = lambda s, i: correlation_E(state, MeasurementSetting(s, i))
        want = e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime)
        assert born_chsh(state, ChshSettings(a, a_prime, b, b_prime)) == pytest.approx(want, abs=1e-12)


def test_estimate_f_ratio_conventions():
    # the HV term carries unit weight and the VH term weight f^2, so a
    # dominant HV rate reads as f < 1; the reciprocal reading is the
    # label-swapped assignment
    f_hat, f_hat_inverse = estimate_f(300.0, 100.0)
    assert f_hat == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert f_hat_inverse == pytest.approx(math.sqrt(3.0), abs=1e-12)
    f_hat, _ = estimate_f(100.0, 300.0)
    assert f_hat == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert estimate_f(100.0, 100.0) == (1.0, 1.0)


def test_estimate_f_round_trips_known_state():
    rng = np.random.default_rng(27)
    for _ in range(100):
        f = rng.uniform(0.05, 4.0)
        rate_hv = 1.0 / (1.0 + f * f)
        rate_vh = f * f / (1.0 + f * f)
        f_hat, f_hat_inverse = estimate_f(rate_hv, rate_vh)
        assert f_hat == pytest.approx(f, rel=1e-12)
        assert f_hat_inverse == pytest.approx(1.0 / f, rel=1e-12)


def test_estimate_f_edge_cases():
    # a vanishing HV rate puts all weight on the f-scaled term
    assert estimate_f(0.0, 100.0) == (math.inf, 0.0)
    assert estimate_f(100.0, 0.0) == (0.0, math.inf)
    with pytest.raises(ValueError):
        estimate_f(-1.0, 5.0)
    # a dark channel has no ratio: both readings are NaN
    dark = estimate_f(0.0, 0.0)
    assert type(dark) is tuple and len(dark) == 2 and all(map(math.isnan, dark))


def test_signed_angle_difference_wraps():
    assert signed_angle_difference(179.0, 1.0) == pytest.approx(-2.0)
    assert signed_angle_difference(1.0, 179.0) == pytest.approx(2.0)
    assert signed_angle_difference(90.0, 0.0) == pytest.approx(90.0)
    assert signed_angle_difference(100.0, 10.0) == pytest.approx(90.0)


@pytest.mark.parametrize("alpha_deg", [91.0, 135.0, 180.0, 225.0, 269.0])
def test_theta_max_at_signal_90_stays_below_180(alpha_deg):
    # the peak sits at 0 deg; a rounding error below 0 must not report 180.0
    theta_max = find_theta_max(BiphotonPureState.from_degrees(1.73, alpha_deg), 90.0).theta_max
    assert 0.0 <= theta_max < 180.0
    assert min(theta_max, 180.0 - theta_max) < 1e-9


@pytest.mark.parametrize(
    "call",
    [
        lambda state, ts: scan_coefficients(state, ts),
        lambda state, ts: find_theta_max(state, ts),
        lambda state, ts: shift_table(state, [0.0, ts]),
        lambda state, ts: visibility(state, ts),
    ],
    ids=["scan_coefficients", "find_theta_max", "shift_table", "visibility"],
)
@pytest.mark.parametrize("theta_s", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("state", [BiphotonPureState(1.0, 0.0), ProductState()], ids=["pure", "product"])
def test_non_finite_signal_angle_rejected(call, theta_s, state):
    with pytest.raises(ValueError, match="theta_s must be finite"):
        call(state, theta_s)
