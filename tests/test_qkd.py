"""Per-channel key exchange and the aggregate over a multiplexed link."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import wdmqkd.qkd
from wdmqkd import (
    BiphotonPureState,
    ChannelKeyReport,
    MeasurementSetting,
    ProductState,
    ProtocolConfig,
    binary_entropy,
    correlation_E,
    derive_flips,
    run_bbm92,
    secret_fraction,
    wdm_aggregate,
)
from wdmqkd.cli import main


def test_binary_entropy_properties():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)


def test_secret_fraction_frozen_value():
    assert secret_fraction(0.0, 0.0) == 1.0
    got = secret_fraction(0.0, 0.0667)
    assert got == pytest.approx(0.6465137660270561, abs=1e-12)
    # beyond the two-basis threshold everything is spent on correction
    assert secret_fraction(0.12, 0.12) == 0.0
    assert secret_fraction(0.5, 0.0) == 0.0


def test_secret_fraction_monotone_in_each_qber():
    grid = np.linspace(0.0, 0.12, 25)
    vals = [secret_fraction(q, 0.01) for q in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_derive_flips_calibration():
    # cross-polarized source: rectilinear outcomes anti-correlate for any f
    assert derive_flips(BiphotonPureState(1.0, 0.0)) == (True, False)
    assert derive_flips(BiphotonPureState(1.73, 0.0)) == (True, False)
    # alpha = pi flips the sign of the diagonal correlation as well
    assert derive_flips(BiphotonPureState(1.0, math.pi)) == (True, True)
    # +45 product state correlates positively in the diagonal basis and is
    # uncorrelated in the rectilinear one
    assert derive_flips(ProductState()) == (False, False)


def test_ideal_bell_state_keys_perfectly():
    config = ProtocolConfig(n_pairs=20000, seed=1)
    report = run_bbm92(BiphotonPureState(1.0, 0.0), config)
    assert report.qber_rect == 0.0
    assert report.qber_diag == 0.0
    assert report.secret_fraction == 1.0
    assert report.secret_bits_estimate == report.sifted_bits
    # sifting keeps about half the pairs
    assert abs(report.sifted_bits - 10000) < 4.0 * math.sqrt(20000 * 0.25)


def test_alpha_pi_keys_without_recalibration():
    # both bases anti-correlate at alpha = pi, and the channel's own flips say so
    state = BiphotonPureState(1.0, math.pi)
    assert derive_flips(state) == (True, True)
    report = run_bbm92(state, ProtocolConfig(n_pairs=20000, seed=3))
    assert report.qber_rect == 0.0
    assert report.qber_diag == 0.0
    assert report.secret_fraction == 1.0


def test_derive_flips_are_the_correlation_signs():
    rng = np.random.default_rng(21)
    states = [BiphotonPureState(f, a) for f, a in zip(rng.uniform(0.0, 4.0, 1000), rng.uniform(0.0, 7.0, 1000))]
    for state in [*states, ProductState()]:
        want = tuple(correlation_E(state, MeasurementSetting(b, b)) < 0.0 for b in (0.0, 45.0))
        assert derive_flips(state) == want, state


def test_run_bbm92_flips_from_its_one_outcome_table(monkeypatch):
    # one Born-rule evaluation per channel gives both the cell weights and the flips
    calls = []
    table = wdmqkd.qkd.outcome_probabilities
    monkeypatch.setattr(wdmqkd.qkd, "outcome_probabilities", lambda *args: calls.append(args) or table(*args))
    state = BiphotonPureState(1.3, 2.0)  # diagonal correlation negative
    report = run_bbm92(state, ProtocolConfig(n_pairs=10**12, seed=4))
    assert len(calls) == 1
    e_diag = correlation_E(state, MeasurementSetting(45.0, 45.0))
    assert abs(report.qber_diag - (1.0 + e_diag) / 2.0) < 1e-5


@pytest.mark.parametrize("alpha_deg", [0, 60, 120, 180, 240, 300])
def test_qkd_qbers_stay_at_most_half_at_every_phase(alpha_deg, tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"source": {"alpha_deg": alpha_deg}}))
    assert main(["qkd", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    for report in json.loads((tmp_path / "out" / "key_reports.json").read_text()):
        n_basis = report["sifted_bits"] / 2.0
        for name in ("qber_rect", "qber_diag"):
            assert report[name] <= 0.5 + 6.0 * math.sqrt(0.25 / n_basis), (report["lambda_nm"], name)


def test_unbalanced_state_diagonal_qber():
    # f != 1 leaves rectilinear keys exact but injects diagonal errors at
    # rate (1-f)^2 / (2 (1+f^2))
    f = 1.73
    want = (1.0 - f) ** 2 / (2.0 * (1.0 + f * f))
    assert want == pytest.approx(0.06673094743169124, abs=1e-15)
    config = ProtocolConfig(n_pairs=200_000, seed=5)
    report = run_bbm92(BiphotonPureState(f, 0.0), config)
    assert report.qber_rect == 0.0
    n_diag = round(report.sifted_bits * 0.5)
    sigma = math.sqrt(want * (1.0 - want) / n_diag)
    assert abs(report.qber_diag - want) < 4.0 * sigma
    assert report.secret_fraction == pytest.approx(secret_fraction(0.0, report.qber_diag))


def test_qber_invariant_under_f_inversion():
    a = run_bbm92(BiphotonPureState(1.73, 0.0), ProtocolConfig(n_pairs=100_000, seed=9))
    b = run_bbm92(BiphotonPureState(1.0 / 1.73, 0.0), ProtocolConfig(n_pairs=100_000, seed=9))
    assert a.qber_rect == b.qber_rect == 0.0
    assert a.qber_diag == pytest.approx(b.qber_diag, abs=0.01)


def test_run_is_deterministic_per_channel():
    config = ProtocolConfig(n_pairs=5000, seed=12)
    state = BiphotonPureState(1.5, 0.2)
    a = run_bbm92(state, config, channel_id=3, lambda_signal=866.0)
    b = run_bbm92(state, config, channel_id=3, lambda_signal=866.0)
    assert a == b
    c = run_bbm92(state, config, channel_id=4, lambda_signal=866.0)
    assert (c.sifted_bits, c.qber_diag) != (a.sifted_bits, a.qber_diag)


def test_single_pair_unmatched_basis_gives_nan_qber():
    # hunt for a seed whose one pair picks different bases
    state = BiphotonPureState(1.0, 0.0)
    for seed in range(50):
        report = run_bbm92(state, ProtocolConfig(n_pairs=1, seed=seed))
        if report.sifted_bits == 0:
            assert math.isnan(report.qber_rect) or math.isnan(report.qber_diag)
            assert report.secret_fraction == 0.0
            assert report.secret_bits_estimate == 0.0
            break
    else:
        pytest.fail("no seed produced an unmatched single pair")


def test_wdm_aggregate_sums():
    reports = [
        ChannelKeyReport(860.0, 100, 0.0, 0.0, 1.0, 100.0),
        ChannelKeyReport(862.0, 200, 0.0, 0.05, 0.7, 140.0),
        ChannelKeyReport(864.0, 0, math.nan, math.nan, 0.0, 0.0),
    ]
    summary = wdm_aggregate(reports)
    assert summary.total_sifted_bits == 300
    assert summary.total_secret_bits == pytest.approx(240.0)
    assert len(summary.channels) == 3


def test_report_serialization(tmp_path):
    # one pair per channel sifts into at most one basis, so some QBERs are NaN
    config_path = tmp_path / "run.json"
    config_path.write_text('{"qkd": {"n_pairs": 1}}')
    assert main(["qkd", "--config", str(config_path), "--seed", "11", "--out", str(tmp_path / "out")]) == 0
    json_text = (tmp_path / "out" / "key_reports.json").read_text()
    reports = json.loads(json_text, parse_constant=pytest.fail)  # NaN-free by construction
    assert "null" in json_text

    lines = (tmp_path / "out" / "key_reports.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda_nm,sifted_bits,qber_rect,qber_diag,secret_fraction,secret_bits"
    assert any("nan" in line.split(",") for line in lines[1:])
    assert len(lines) - 1 == len(reports)
    assert any(d["sifted_bits"] == 1 for d in reports)
    columns = lines[0].split(",")
    for line, d in zip(lines[1:], reports):
        for column, cell in zip(columns, line.split(","), strict=True):
            assert d[column] is None if cell == "nan" else d[column] == float(cell)
        if d["sifted_bits"] == 1:  # one basis sifted its pair, the other none
            basis, other = ("qber_rect", "qber_diag") if d["qber_diag"] is None else ("qber_diag", "qber_rect")
            assert d[other] is None
            assert d[basis] in (0.0, 1.0)
            assert line.startswith(f"{d['lambda_nm']!r},1,")


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n_pairs=0)
    with pytest.raises(ValueError):
        ProtocolConfig(seed=-3)


@pytest.mark.parametrize("n_pairs", [10**12, 2**63 - 1])
def test_keying_cost_independent_of_n_pairs(n_pairs):
    f = 1.73
    want = (1.0 - f) ** 2 / (2.0 * (1.0 + f * f))
    config = ProtocolConfig(n_pairs=n_pairs, seed=7)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = run_bbm92(BiphotonPureState(f, 0.0), config)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2**20
    assert report.qber_rect == 0.0
    assert abs(report.qber_diag - want) < 1e-5
    assert abs(report.sifted_bits - n_pairs / 2) < 6.0 * math.sqrt(n_pairs / 4)


def test_sifted_bits_binomial_over_seeds():
    # matched bases occur with probability 1/2, so sifted_bits ~ Binomial(n, 1/2)
    n, runs = 10_000, 200
    state = BiphotonPureState(1.73, 0.4)
    sifted = np.array(
        [run_bbm92(state, ProtocolConfig(n_pairs=n, seed=s)).sifted_bits for s in range(runs)],
        dtype=float,
    )
    var = n / 4.0
    assert abs(sifted.mean() - n / 2.0) < 5.0 * math.sqrt(var / runs)
    assert abs(sifted.var(ddof=1) - var) < 5.0 * var * math.sqrt(2.0 / (runs - 1))


@pytest.mark.parametrize("n_pairs", [math.inf, -math.inf, math.nan, 2**63, 2**70])
def test_protocol_config_rejects_unsupported_n_pairs(n_pairs):
    with pytest.raises(ValueError, match="n_pairs"):
        ProtocolConfig(n_pairs=n_pairs)
