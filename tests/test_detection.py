"""Poisson count simulation, stream splitting, and the scan CSV layout."""

import math

import numpy as np
import pytest

import wdmqkd.detection as detection
from wdmqkd import (
    BiphotonPureState,
    DetectionConfig,
    ProductState,
    ScanData,
    angle_stream_key,
    channel_state,
    coincidence_probabilities,
    derive_stream,
    expected_mean,
    load_config,
    simulate_scan,
    simulate_scans,
    source_channels,
)
from wdmqkd.cli import main

ANGLES = tuple(float(t) for t in range(0, 181, 10))


def test_simulate_scan_deterministic():
    state = BiphotonPureState(1.0, 0.0)
    config = DetectionConfig(seed=7)
    a = simulate_scan(state, ("signal", 45.0), ANGLES, config)
    b = simulate_scan(state, ("signal", 45.0), ANGLES, config)
    assert a.counts == b.counts
    c = simulate_scan(state, ("signal", 45.0), ANGLES, DetectionConfig(seed=8))
    assert c.counts != a.counts


def test_simulate_scan_angle_permutation_invariance():
    # points are drawn in ascending angle order, so permuting the scanned
    # list must permute the counts and change nothing else
    state = BiphotonPureState(1.73, 0.3)
    config = DetectionConfig(seed=42)
    forward = simulate_scan(state, ("signal", 30.0), ANGLES, config)
    perm = tuple(reversed(ANGLES))
    backward = simulate_scan(state, ("signal", 30.0), perm, config)
    by_angle_f = dict(zip(forward.angles, forward.counts))
    by_angle_b = dict(zip(backward.angles, backward.counts))
    assert by_angle_f == by_angle_b


def test_simulate_scan_channels_are_independent_streams():
    state = BiphotonPureState(1.0, 0.0)
    config = DetectionConfig(seed=3)
    ch0 = simulate_scan(state, ("signal", 45.0), ANGLES, config, channel_id=0)
    ch1 = simulate_scan(state, ("signal", 45.0), ANGLES, config, channel_id=1)
    assert ch0.counts != ch1.counts


def test_simulate_scan_draws_from_one_stream(monkeypatch):
    streams = []
    derive = detection.derive_stream
    monkeypatch.setattr(detection, "derive_stream", lambda *key: streams.append(key) or derive(*key))
    simulate_scan(BiphotonPureState(1.73, 0.0), ("signal", 45.0), ANGLES, DetectionConfig(seed=1))
    assert len(streams) == 1


def _per_scan_counts(state, arm, theta, angles, config, channel_id):
    """Counts of one scan drawn on its own: one probability call, one stream."""
    settings = (theta, angles) if arm == "signal" else (angles, theta)
    means = expected_mean(coincidence_probabilities(state, *settings), config)
    key = ("signal", "idler").index(arm) * 180000 + angle_stream_key(theta)
    order = np.argsort(angles, kind="stable")
    counts = derive_stream(config.seed, channel_id, key).poisson(means[order])[np.argsort(order)]
    return tuple(counts.tolist())


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("arm", ["signal", "idler"])
@pytest.mark.parametrize(
    "state",
    [BiphotonPureState(1.73, 0.3), BiphotonPureState.from_degrees(0.4, 200.0), ProductState()],
    ids=["entangled", "entangled-phase", "product"],
)
def test_simulate_scans_equal_per_scan_draws(state, arm, seed):
    config = DetectionConfig(seed=seed, accidental_rate=3.0)
    fixed = (0.0, 45.0, 90.0, 135.0, 180.0, -30.0)
    angles = (170.0, 0.0, 35.0, 90.0, 10.0, 180.0)  # unsorted on purpose
    scans = simulate_scans(state, arm, fixed, angles, config, channel_id=5)
    assert [(s.theta_fixed_arm, s.theta_fixed, s.angles) for s in scans] == [
        (arm, theta, angles) for theta in fixed
    ]
    for theta, scan in zip(fixed, scans):
        assert scan.counts == _per_scan_counts(state, arm, theta, angles, config, 5)
        assert scan == simulate_scan(state, (arm, theta), angles, config, channel_id=5)


def test_simulate_scans_one_probability_call(monkeypatch):
    calls = []
    probabilities = detection.coincidence_probabilities
    monkeypatch.setattr(
        detection, "coincidence_probabilities", lambda *a: calls.append(a) or probabilities(*a)
    )
    scans = simulate_scans(BiphotonPureState(1.0, 0.0), "idler", (0.0, 45.0, 90.0), ANGLES, DetectionConfig())
    assert len(scans) == 3 and len(calls) == 1
    with pytest.raises(ValueError, match="fixed arm"):
        simulate_scans(BiphotonPureState(1.0, 0.0), "pump", (0.0,), ANGLES, DetectionConfig())


def _residuals(state, theta_s, config):
    """(counts - mean)/sqrt(mean) of one signal-fixed scan, and its means."""
    mean = expected_mean(coincidence_probabilities(state, theta_s, ANGLES), config)
    counts = np.array(simulate_scan(state, ("signal", theta_s), ANGLES, config).counts)
    return (counts - mean) / np.sqrt(np.maximum(mean, 1.0)), mean


@pytest.mark.parametrize("theta_a, theta_b", [(0.0, 90.0), (45.0, 135.0)])
def test_simulate_scan_signal_angles_have_independent_noise(theta_a, theta_b):
    # the four simulate-fit scans of a channel: their noise must not be shared
    state = BiphotonPureState(1.73, 0.0)
    r_a, r_b = [], []
    for seed in range(200):
        config = DetectionConfig(seed=seed)
        (res_a, mean_a), (res_b, mean_b) = (_residuals(state, t, config) for t in (theta_a, theta_b))
        both = (mean_a >= 10.0) & (mean_b >= 10.0)  # leave out near-dark points
        r_a.extend(res_a[both])
        r_b.extend(res_b[both])
    assert len(r_a) >= 200 * 10
    assert abs(np.corrcoef(r_a, r_b)[0, 1]) < 0.1


def test_simulate_scan_0_and_180_deg_are_separate_draws():
    state = BiphotonPureState(1.73, 0.0)
    equal = 0
    for seed in range(300):
        counts = simulate_scan(state, ("signal", 45.0), (0.0, 180.0), DetectionConfig(seed=seed)).counts
        equal += counts[0] == counts[1]
    assert equal < 0.1 * 300


def test_simulate_scan_fixed_arm_enters_the_stream():
    # (HV + VH)/sqrt(2) is symmetric under swapping the arms, so both scans
    # have the same means and differ only through their streams
    state = BiphotonPureState(1.0, 0.0)
    np.testing.assert_allclose(
        coincidence_probabilities(state, 45.0, ANGLES), coincidence_probabilities(state, ANGLES, 45.0)
    )
    config = DetectionConfig(seed=4)
    signal = simulate_scan(state, ("signal", 45.0), ANGLES, config)
    idler = simulate_scan(state, ("idler", 45.0), ANGLES, config)
    assert signal.counts != idler.counts


def test_simulate_scan_zero_probability_zero_background():
    # product state with signal at 135 deg never produces a coincidence
    config = DetectionConfig(seed=5, accidental_rate=0.0)
    scan = simulate_scan(ProductState(), ("signal", 135.0), ANGLES, config)
    assert all(c == 0 for c in scan.counts)


def test_simulate_scan_fixed_idler_arm():
    state = BiphotonPureState(1.0, 0.0)
    config = DetectionConfig(seed=11, pair_rate=50000.0)
    scan = simulate_scan(state, ("idler", 0.0), (90.0,), config)
    # theta_s = 90, theta_i = 0 transmits the H_s V_i term: p = 1/2
    want = 25000.0
    assert abs(scan.counts[0] - want) < 5.0 * math.sqrt(want)
    with pytest.raises(ValueError):
        simulate_scan(state, ("pump", 0.0), ANGLES, config)


def test_expected_mean_composition():
    config = DetectionConfig(
        pair_rate=1000.0,
        efficiency_signal=0.5,
        efficiency_idler=0.4,
        accidental_rate=7.0,
        integration_time=2.0,
    )
    assert expected_mean(0.5, config) == pytest.approx(2.0 * (1000.0 * 0.5 * 0.4 * 0.5 + 7.0))
    with pytest.raises(ValueError):
        expected_mean(1.5, config)
    with pytest.raises(ValueError):
        expected_mean(-0.1, config)


def test_counts_converge_to_mean():
    # z-test of the Poisson mean over many independent draws
    config = DetectionConfig(pair_rate=2000.0, seed=0)
    mean = expected_mean(0.5, config)
    rng = derive_stream(123)
    draws = np.array([rng.poisson(expected_mean(0.5, config)) for _ in range(4000)])
    z = (draws.mean() - mean) / (math.sqrt(mean) / math.sqrt(draws.size))
    assert abs(z) < 4.0


def test_angle_stream_key_quantization():
    assert angle_stream_key(0.0) == 0
    assert angle_stream_key(180.0) == 0
    assert angle_stream_key(-90.0) == 90000
    assert angle_stream_key(45.0) == angle_stream_key(405.0)
    assert angle_stream_key(10.0001) == angle_stream_key(10.0)
    assert angle_stream_key(10.001) != angle_stream_key(10.0)


def test_derive_stream_reproducible():
    a = derive_stream(9, 2, 31)
    b = derive_stream(9, 2, 31)
    assert a.integers(0, 1000, 5).tolist() == b.integers(0, 1000, 5).tolist()


def test_scan_csv_round_trip(tmp_path):
    # the scan CSV that simulate-fit writes for channel 0 at theta_s = 45 deg
    config_path = tmp_path / "run.json"
    config_path.write_text('{"source": {"n_channels": 1}, "detection": {"accidental_rate_cps": 3.0}}')
    texts = []
    for run in ("a", "b"):
        assert main(["simulate-fit", "--config", str(config_path), "--seed", "17", "--out", str(tmp_path / run)]) == 0
        texts.append((tmp_path / run / "scan_ch00_thetas_45.csv").read_text())
    source = load_config(config_path).source
    state = channel_state(source_channels(source)[0], source.f_convention)
    config = DetectionConfig(seed=17, accidental_rate=3.0)
    scan = simulate_scan(state, ("signal", 45.0), ANGLES, config)
    text = texts[0]
    lines = text.split("\n")
    assert lines[:4] == ["# fixed_arm=signal", "# fixed_theta_deg=45.0", "# seed=17", "theta_deg,counts"]
    assert lines[4] == f"0.0,{scan.counts[0]}"
    rows = [row.split(",") for row in lines[4:-1]]
    assert [(float(theta), int(count)) for theta, count in rows] == list(zip(scan.angles, scan.counts))
    assert lines[-1] == ""  # one trailing newline
    # serialization is deterministic
    assert texts[1] == text


def test_scan_data_validation():
    with pytest.raises(ValueError):
        ScanData("pump", 0.0, (0.0,), (1,))
    with pytest.raises(ValueError):
        ScanData("signal", 0.0, (0.0, 10.0), (1,))
    with pytest.raises(ValueError):
        ScanData("signal", 0.0, (0.0,), (-1,))


@pytest.mark.parametrize(
    "field, value",
    [
        ("pair_rate", math.nan),
        ("pair_rate", math.inf),
        ("accidental_rate", math.nan),
        ("accidental_rate", math.inf),
        ("integration_time", math.nan),
        ("integration_time", math.inf),
    ],
)
def test_detection_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        DetectionConfig(**{field: value})


def test_detection_config_rejects_poisson_mean_above_cap():
    assert expected_mean(1.0, DetectionConfig(pair_rate=detection.MAX_MEAN)) == detection.MAX_MEAN
    with pytest.raises(ValueError, match=r"integration_time \* \(pair_rate \* efficiency_signal"):
        DetectionConfig(pair_rate=math.nextafter(detection.MAX_MEAN, math.inf))


def test_detection_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(pair_rate=-1.0)
    with pytest.raises(ValueError):
        DetectionConfig(efficiency_signal=1.5)
    with pytest.raises(ValueError):
        DetectionConfig(efficiency_idler=-0.1)
    with pytest.raises(ValueError):
        DetectionConfig(accidental_rate=-2.0)
    with pytest.raises(ValueError):
        DetectionConfig(integration_time=0.0)
    with pytest.raises(ValueError):
        DetectionConfig(seed=-1)
    with pytest.raises(ValueError):
        DetectionConfig(seed=1.5)
