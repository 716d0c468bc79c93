"""Core state model: probabilities, joint outcome distributions.

The independent oracle here evaluates the Born rule by explicit state-vector
contraction in the two-qubit polarization space, a different code path from
the closed forms in the package.
"""

import math

import numpy as np
import pytest

from wdmqkd import (
    BiphotonPureState,
    MeasurementSetting,
    ProductState,
    coincidence_probabilities,
    coincidence_probability,
    correlation_E,
    joint_outcome_distribution,
    rate_expanded,
)
from wdmqkd.biphoton import analyzer_vectors, normalize_angle_deg

# o = (1, sigma_z, sigma_x) in the (H, V) basis
PLANE_OPERATORS = np.array([np.eye(2), [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def amplitude_oracle(f, alpha, theta_s_deg, theta_i_deg):
    """Born amplitude via explicit tensor contraction, basis order HH, HV, VH, VV."""
    ts = math.radians(theta_s_deg)
    ti = math.radians(theta_i_deg)
    psi = np.array([0.0, 1.0, f * np.exp(1j * alpha), 0.0]) / math.sqrt(1.0 + f * f)
    transmitted_s = np.array([math.sin(ts), math.cos(ts)])
    transmitted_i = np.array([math.sin(ti), math.cos(ti)])
    return complex(np.kron(transmitted_s, transmitted_i) @ psi)


def product_oracle(theta_s_deg, theta_i_deg):
    """Born probability of the +45 product state by the same contraction."""
    ts = math.radians(theta_s_deg)
    ti = math.radians(theta_i_deg)
    psi = 0.5 * np.array([1.0, 1.0, 1.0, 1.0])
    transmitted = np.kron(
        np.array([math.sin(ts), math.cos(ts)]), np.array([math.sin(ti), math.cos(ti)])
    )
    return float(transmitted @ psi) ** 2


def test_amplitude_matches_oracle_on_random_inputs():
    # the Born rule on rho equals |amplitude|^2 of the explicit contraction
    rng = np.random.default_rng(11)
    for _ in range(300):
        f = rng.uniform(0.0, 4.0)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        ts = rng.uniform(-360.0, 360.0)
        ti = rng.uniform(-360.0, 360.0)
        p = coincidence_probabilities(BiphotonPureState(f, alpha), ts, ti)
        want = abs(amplitude_oracle(f, alpha, ts % 180.0, ti % 180.0)) ** 2
        assert p == pytest.approx(want, abs=1e-12)


def test_amplitude_frozen_values():
    state = BiphotonPureState(1.0, 0.0)
    assert coincidence_probabilities(state, 0.0, 0.0) == 0.0
    assert coincidence_probabilities(state, 0.0, 90.0) == pytest.approx(0.5, abs=1e-15)
    # oracle-computed, not a rounded headline number: the squared amplitude
    # 0.6831065263076868 of the contraction
    p = coincidence_probabilities(BiphotonPureState(1.73, 0.0), 45.0, 45.0)
    assert p == pytest.approx(0.6831065263076868**2, abs=1e-13)


def test_amplitude_magnitude_bounded():
    rng = np.random.default_rng(12)
    for _ in range(500):
        state = BiphotonPureState(rng.uniform(0, 4), rng.uniform(0, 2 * np.pi))
        p = coincidence_probabilities(state, rng.uniform(0, 180), rng.uniform(0, 180))
        assert abs(p) <= 1.0 + 1e-12


def test_probability_frozen_value():
    p = coincidence_probability(BiphotonPureState(1.73, 0.0), MeasurementSetting(45.0, 135.0))
    assert p == pytest.approx(0.03336547371584569, abs=1e-13)


def test_probability_periodicity_180():
    rng = np.random.default_rng(13)
    state = BiphotonPureState(0.7, 1.1)
    for _ in range(100):
        ts = rng.uniform(0, 180)
        ti = rng.uniform(0, 180)
        p0 = coincidence_probability(state, MeasurementSetting(ts, ti))
        p1 = coincidence_probability(state, MeasurementSetting(ts + 180.0, ti - 180.0))
        assert p0 == pytest.approx(p1, abs=1e-15)


def test_probability_label_swap_symmetry():
    # swapping the two term labels (f -> 1/f) mirrors both analyzers about 45 deg
    rng = np.random.default_rng(14)
    for _ in range(200):
        f = rng.uniform(0.05, 4.0)
        alpha = rng.uniform(0, 2 * np.pi)
        ts = rng.uniform(0, 180)
        ti = rng.uniform(0, 180)
        p = coincidence_probability(BiphotonPureState(f, alpha), MeasurementSetting(ts, ti))
        q = coincidence_probability(
            BiphotonPureState(1.0 / f, alpha), MeasurementSetting(90.0 - ts, 90.0 - ti)
        )
        assert p == pytest.approx(q, abs=1e-12)


def test_rate_expanded_equals_scaled_probability():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        f = rng.uniform(0.0, 4.0)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        setting = MeasurementSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        expanded = rate_expanded(f, alpha, setting)
        scaled = (1.0 + f * f) * coincidence_probability(BiphotonPureState(f, alpha), setting)
        assert expanded == pytest.approx(scaled, abs=1e-12)


def test_rate_expanded_bell_reduction():
    # f=1, alpha=0 collapses to sin^2(theta_s + theta_i) / 2 after normalization
    for ts in (0.0, 10.0, 37.5, 45.0, 90.0, 120.0):
        for ti in (0.0, 22.5, 45.0, 60.0, 135.0):
            setting = MeasurementSetting(ts, ti)
            want = math.sin(math.radians(ts + ti)) ** 2
            assert rate_expanded(1.0, 0.0, setting) == pytest.approx(want, abs=1e-12)
            p = coincidence_probability(BiphotonPureState(1.0, 0.0), setting)
            assert p == pytest.approx(want / 2.0, abs=1e-12)


def test_rate_expanded_frozen_value():
    setting = MeasurementSetting(45.0, 45.0)
    want = (1.0 + 1.73**2 + 2.0 * 1.73) / 4.0  # sum term only, sin(90 deg) = 1
    assert rate_expanded(1.73, 0.0, setting) == pytest.approx(want, abs=1e-12)


def test_rate_expanded_rejects_negative_f():
    with pytest.raises(ValueError):
        rate_expanded(-0.5, 0.0, MeasurementSetting(0.0, 0.0))


def test_product_rate_values():
    product = ProductState()
    assert coincidence_probabilities(product, 45.0, 45.0) == pytest.approx(1.0, abs=1e-12)
    assert coincidence_probabilities(product, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert coincidence_probabilities(product, 135.0, 20.0) == pytest.approx(0.0, abs=1e-12)


def test_product_probability_is_normalized_joint():
    rng = np.random.default_rng(16)
    state = ProductState()
    for _ in range(200):
        setting = MeasurementSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        assert coincidence_probabilities(state, setting.theta_s, setting.theta_i) == pytest.approx(
            product_oracle(setting.theta_s, setting.theta_i), abs=1e-12
        )
        dist = joint_outcome_distribution(state, setting)
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_sums_to_one():
    rng = np.random.default_rng(17)
    for _ in range(500):
        state = BiphotonPureState(rng.uniform(0, 4), rng.uniform(0, 2 * np.pi))
        setting = MeasurementSetting(rng.uniform(0, 180), rng.uniform(0, 180))
        dist = joint_outcome_distribution(state, setting)
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in dist)


def test_joint_distribution_frozen_values():
    p_tt, p_tr, p_rt, p_rr = joint_outcome_distribution(BiphotonPureState(1.73, 0.0), MeasurementSetting(45.0, 45.0))
    f = 1.73
    p_same = (1.0 + f) ** 2 / (4.0 * (1.0 + f * f))
    p_cross = (1.0 - f) ** 2 / (4.0 * (1.0 + f * f))
    assert p_tt == pytest.approx(p_same, abs=1e-12)
    assert p_rr == pytest.approx(p_same, abs=1e-12)
    assert p_tr == pytest.approx(p_cross, abs=1e-12)
    assert p_rt == pytest.approx(p_cross, abs=1e-12)


def test_correlation_bell_reduction():
    state = BiphotonPureState(1.0, 0.0)
    for ts in (0.0, 12.0, 45.0, 80.0):
        for ti in (0.0, 22.5, 67.5, 150.0):
            e = correlation_E(state, MeasurementSetting(ts, ti))
            assert e == pytest.approx(-math.cos(math.radians(2 * (ts + ti))), abs=1e-12)


def test_correlation_frozen_value_and_bounds():
    e = correlation_E(BiphotonPureState(1.73, 0.0), MeasurementSetting(45.0, 45.0))
    assert e == pytest.approx(2 * 1.73 / (1 + 1.73**2), abs=1e-12)
    rng = np.random.default_rng(18)
    for _ in range(300):
        state = BiphotonPureState(rng.uniform(0, 4), rng.uniform(0, 2 * np.pi))
        e = correlation_E(state, MeasurementSetting(rng.uniform(0, 180), rng.uniform(0, 180)))
        assert -1.0 <= e <= 1.0


def test_correlation_product_state_factorizes():
    state = ProductState()
    for ts in (0.0, 30.0, 45.0, 100.0):
        for ti in (0.0, 45.0, 77.0):
            e = correlation_E(state, MeasurementSetting(ts, ti))
            want = math.sin(math.radians(2 * ts)) * math.sin(math.radians(2 * ti))
            assert e == pytest.approx(want, abs=1e-12)


def test_state_validation():
    with pytest.raises(ValueError):
        BiphotonPureState(-1.0, 0.0)
    with pytest.raises(ValueError):
        BiphotonPureState(math.inf, 0.0)
    with pytest.raises(ValueError):
        BiphotonPureState(1.0, math.nan)
    state = BiphotonPureState(1.0, -math.pi)
    assert 0.0 <= state.alpha < 2 * math.pi
    assert BiphotonPureState.from_degrees(2.0, 60.0).alpha == pytest.approx(math.pi / 3)


def test_measurement_setting_normalizes():
    setting = MeasurementSetting(-45.0, 270.0)
    assert setting.theta_s == pytest.approx(135.0)
    assert setting.theta_i == pytest.approx(90.0)
    with pytest.raises(ValueError):
        MeasurementSetting(math.nan, 0.0)


def test_angle_shapes_that_do_not_broadcast_raise():
    state = BiphotonPureState(1.0, 0.0)
    with pytest.raises(ValueError, match="broadcast"):
        coincidence_probabilities(state, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="broadcast"):
        coincidence_probabilities(state, np.zeros((2, 1, 3)), np.zeros((4, 2)))


def test_tiny_negative_angle_normalizes_to_zero():
    # fmod then + 180 rounds a tiny negative angle up to 180.0, outside [0, 180)
    assert normalize_angle_deg(-1e-17) == 0.0
    assert normalize_angle_deg(-5e-324) == 0.0
    assert MeasurementSetting(-1e-15, 0.0).theta_s == 0.0


def test_angle_fold_array_path_matches_scalar_path_bitwise():
    values = [-1e-300, -0.0, 180.0, math.nextafter(180.0, 0.0), -180.0, 1e300, -1e300]
    folded = normalize_angle_deg(np.array(values))
    scalar = [normalize_angle_deg(v) for v in values]
    assert all(type(t) is float for t in scalar)
    assert folded.tobytes() == np.array(scalar).tobytes()
    assert all(0.0 <= t < 180.0 for t in scalar)


def test_analyzer_vectors_expand_the_polarizer_projector():
    # (1/2) sum_j n_j o_j is the projector onto u = (sin theta, cos theta);
    # fmod is exact and a polarizer is 180-deg periodic, so u is taken there
    thetas = np.concatenate([np.random.default_rng(31).uniform(-720.0, 720.0, 200), [-1e-300, 179.9999, 1e300]])
    n = analyzer_vectors(thetas)
    assert n.shape == (3, thetas.size)
    for theta, n_theta in zip(thetas.tolist(), n.T):
        t = math.radians(math.fmod(theta, 180.0))
        u = np.array([math.sin(t), math.cos(t)])
        projector = 0.5 * np.einsum("j,jab->ab", n_theta, PLANE_OPERATORS)
        np.testing.assert_allclose(projector, np.outer(u, u), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(analyzer_vectors(theta), n_theta)
