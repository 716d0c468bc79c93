"""Property tests: angle normalization, fit permutation invariance, extreme f, mixed states, theory-scan files."""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdmqkd import (
    BiphotonPureState,
    ProductState,
    ProtocolConfig,
    RunConfig,
    chsh_optimize,
    coincidence_probabilities,
    coincidence_probability,
    correlation_E,
    derive_flips,
    find_theta_max,
    fit_sinusoid,
    joint_outcome_distribution,
    run_bbm92,
    scan_coefficients,
)
from wdmqkd.biphoton import MeasurementSetting, analyzer_vectors, normalize_angle_deg, plane_moments
from wdmqkd.cli import cmd_theory_scan

ANGLES = np.arange(0.0, 181.0, 10.0)

# fixed example order so a run is reproducible, and no example database on disk
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@DETERMINISTIC
@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True))
@example(-1e-17)
@example(-5e-324)
@example(5e-324)
@example(-180.0)
def test_normalize_angle_in_half_open_range(theta):
    assert 0.0 <= normalize_angle_deg(theta) < 180.0


@DETERMINISTIC
@given(
    c=st.floats(min_value=10.0, max_value=1e5),
    v=st.floats(min_value=0.05, max_value=0.95),
    theta0=st.floats(min_value=0.0, max_value=180.0, exclude_max=True),
    order=st.permutations(range(ANGLES.size)),
)
def test_fit_invariant_under_angle_permutation(c, v, theta0, order):
    y = c * (1.0 + v * np.cos(2.0 * np.pi * (ANGLES - theta0) / 180.0))
    fit = fit_sinusoid(ANGLES, y)
    order = np.asarray(order)
    permuted = fit_sinusoid(ANGLES[order], y[order])
    assert permuted.c == pytest.approx(fit.c, rel=1e-9)
    assert permuted.v == pytest.approx(fit.v, rel=1e-9)
    assert (permuted.theta0 - fit.theta0 + 90.0) % 180.0 - 90.0 == pytest.approx(0.0, abs=1e-9)


# f over its whole legal range: 0 and every positive double up to the largest
F_ANY = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=sys.float_info.max))
ALPHA_ANY = st.floats(allow_nan=False, allow_infinity=False)
ANGLE_ANY = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
# f^2 overflowed the old normalization from f ~ 1.3e154 on
LARGE_F = (1e160, 1e300, sys.float_info.max)


@DETERMINISTIC
@given(f=F_ANY, alpha=ALPHA_ANY, theta_s=ANGLE_ANY, theta_i=ANGLE_ANY)
@example(f=1e160, alpha=0.0, theta_s=45.0, theta_i=45.0)
@example(f=1e300, alpha=1.0, theta_s=10.0, theta_i=20.0)
@example(f=sys.float_info.max, alpha=3.0, theta_s=45.0, theta_i=135.0)
def test_probabilities_bounded_and_normalized_at_any_f(f, alpha, theta_s, theta_i):
    state = BiphotonPureState(f, alpha)
    setting = MeasurementSetting(theta_s, theta_i)
    assert 0.0 <= coincidence_probability(state, setting) <= 1.0
    assert sum(joint_outcome_distribution(state, setting)) == pytest.approx(1.0, abs=1e-12)


def broadcast_then_evaluate(state, theta_s, theta_i):
    """The Born rule with the analyzer vectors evaluated on the broadcast angle grid: the reference."""
    t = np.array(np.broadcast_arrays(theta_s, theta_i), dtype=float)
    n_s, n_i = analyzer_vectors(t).swapaxes(0, 1)
    p = np.einsum("j...,jk,k...->...", n_s, plane_moments(state), n_i) / 4.0
    return np.minimum(np.maximum(p, 0.0), 1.0)


STATES = st.one_of(st.just(ProductState()), st.builds(BiphotonPureState, F_ANY, ALPHA_ANY))
ANGLE_ARRAYS = st.lists(ANGLE_ANY, min_size=2, max_size=8).map(np.array)
# angle layouts: a point, an idler scan, a grid of idler scans (theory-scan, simulate_scans), a grid
# of signal scans (simulate_scans with the idler fixed), the (tt, tr, rt, rr) grid of outcome_probabilities
# over two bases, and a signal scan against one idler angle, which no command passes
LAYOUTS = {
    "point": lambda ts, ti: (float(ts[0]), float(ti[0])),
    "scan": lambda ts, ti: (float(ts[0]), ti),
    "grid": lambda ts, ti: (ts[:, None], ti),
    "idler fixed": lambda ts, ti: (ts[None, :], ti[:, None]),
    "outcomes": lambda ts, ti: (ts[:2, None, None] + [0.0, 0.0, 90.0, 90.0], ti[:2, None] + [0.0, 90.0, 0.0, 90.0]),
    "signal scan": lambda ts, ti: (ts, float(ti[0])),
}


@DETERMINISTIC
@given(state=STATES, theta_s=ANGLE_ARRAYS, theta_i=ANGLE_ARRAYS, layout=st.sampled_from(list(LAYOUTS)))
@example(
    state=BiphotonPureState(1.73, 1.0), theta_s=np.array([1e300, -1e300]), theta_i=np.array([-1e-300, 1e300]), layout="grid"
)
def test_per_arm_analyzer_vectors_match_the_broadcast_grid(state, theta_s, theta_i, layout):
    theta_s, theta_i = LAYOUTS[layout](theta_s, theta_i)
    got, want = coincidence_probabilities(state, theta_s, theta_i), broadcast_then_evaluate(state, theta_s, theta_i)
    assert type(got) is type(want) and got.shape == want.shape
    if layout == "signal scan":
        # einsum runs the sum for this layout in another order: the two roundings differ by an ulp or so
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    else:
        assert got.tobytes() == want.tobytes()


@DETERMINISTIC
@given(f=F_ANY, alpha=ALPHA_ANY, theta_s=ANGLE_ANY)
@example(f=1e160, alpha=0.0, theta_s=30.0)
@example(f=1e300, alpha=0.0, theta_s=0.0)
@example(f=sys.float_info.max, alpha=2.0, theta_s=90.0)
def test_theta_max_finite_at_any_f(f, alpha, theta_s):
    res = find_theta_max(BiphotonPureState(f, alpha), theta_s)
    assert all(math.isfinite(x) for x in (res.theta_max, res.r_max, res.r_min, res.visibility))
    assert 0.0 <= res.theta_max < 180.0


@DETERMINISTIC
@given(f=F_ANY, alpha=ALPHA_ANY)
@example(f=1e160, alpha=0.0)
@example(f=1e300, alpha=0.5)
@example(f=sys.float_info.max, alpha=0.0)
def test_chsh_bounded_at_any_f(f, alpha):
    _, s = chsh_optimize(BiphotonPureState(f, alpha))
    assert 0.0 <= s <= 2.0 * math.sqrt(2.0)


@pytest.mark.parametrize("f", LARGE_F)
def test_large_f_values_match_the_f_to_infinity_limit(f):
    # f -> inf leaves the |V>_s|H>_i term alone: p = cos^2(theta_s) sin^2(theta_i)
    state = BiphotonPureState(f, 0.0)
    assert coincidence_probability(state, MeasurementSetting(45.0, 45.0)) == pytest.approx(0.25, abs=1e-15)
    res = find_theta_max(state, 30.0)
    assert (res.theta_max, res.r_max, res.visibility) == pytest.approx((90.0, 0.75, 1.0), abs=1e-12)
    assert not res.degenerate
    assert chsh_optimize(state)[1] == pytest.approx(2.0, abs=1e-12)


@st.composite
def theta_s_lists(draw):
    """Signal-angle lists with repeats, negatives and +-1e300, one file name per angle."""
    pool = draw(
        st.lists(
            st.one_of(ANGLE_ANY, st.sampled_from((0.0, -45.0, 1e300, -1e300))),
            min_size=1,
            max_size=4,
            unique_by=lambda t: format(t, "g"),
        )
    )
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@DETERMINISTIC
@given(
    f=F_ANY,
    alpha_deg=st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    product=st.booleans(),
    thetas=theta_s_lists(),
)
def test_theory_scan_files_match_per_angle_curves(f, alpha_deg, product, thetas):
    state = ProductState() if product else BiphotonPureState.from_degrees(f, alpha_deg)
    grid = np.arange(0.0, 180.0, 1.0).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = RunConfig(out_dir=tmp)
        cmd_theory_scan(cfg, f=f, alpha_deg=alpha_deg, theta_s_list=thetas, product=product)
        written = {p.name: p.read_text() for p in Path(tmp).glob("theory_scan_thetas_*.csv")}
    expected = {}
    for ts in thetas:
        rates = coincidence_probabilities(state, ts, grid).tolist()
        lines = ["theta_i_deg,rate", *(f"{ti!r},{p!r}" for ti, p in zip(grid, rates))]
        expected[f"theory_scan_thetas_{format(ts, 'g')}.csv"] = "\n".join(lines) + "\n"
    assert written == expected


class MixedState:
    """A random full-rank mixed rho, complex off the diagonal; the package reads only density_matrix."""

    def __init__(self, rng: np.random.Generator) -> None:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        self.density_matrix = rho / np.trace(rho).real


def _projector(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    u = np.array([math.sin(t), math.cos(t)])
    return np.outer(u, u)


def _born(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trace(rho @ np.kron(a, b)).real)


def test_every_statistic_on_a_mixed_state_matches_the_explicit_trace():
    rng = np.random.default_rng(32)
    sigma_z, sigma_x, one = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    for _ in range(50):
        state = MixedState(rng)
        rho = state.density_matrix
        p = lambda ts, ti: _born(rho, _projector(ts), _projector(ti))
        e = lambda ts, ti: _born(rho, 2.0 * _projector(ts) - one, 2.0 * _projector(ti) - one)
        theta_s, theta_i = rng.uniform(-360.0, 360.0, size=2)

        assert float(coincidence_probabilities(state, theta_s, theta_i)) == pytest.approx(p(theta_s, theta_i), abs=1e-12)
        mean, amp_cos, amp_sin = scan_coefficients(state, theta_s)
        for ti in rng.uniform(0.0, 180.0, size=4):
            fringe = mean + amp_cos * math.cos(math.radians(2.0 * ti)) + amp_sin * math.sin(math.radians(2.0 * ti))
            assert fringe == pytest.approx(p(theta_s, ti), abs=1e-12)
        peak = find_theta_max(state, theta_s)
        assert peak.r_max == pytest.approx(p(theta_s, peak.theta_max), abs=1e-12)
        assert peak.r_min == pytest.approx(p(theta_s, peak.theta_max + 90.0), abs=1e-12)
        assert peak.r_max >= max(p(theta_s, ti) for ti in np.arange(0.0, 180.0, 1.0)) - 1e-12
        assert correlation_E(state, MeasurementSetting(theta_s, theta_i)) == pytest.approx(e(theta_s, theta_i), abs=1e-12)

        # Horodecki: max S over the analyzer plane is 2 sqrt(t1^2 + t2^2) of T over (sigma_z, sigma_x)
        t = np.array([[_born(rho, a, b) for b in (sigma_z, sigma_x)] for a in (sigma_z, sigma_x)])
        settings, s = chsh_optimize(state)
        assert s == pytest.approx(2.0 * np.linalg.norm(t), abs=1e-12)
        a, a_prime, b, b_prime = settings.a, settings.a_prime, settings.b, settings.b_prime
        assert s == pytest.approx(e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime), abs=1e-12)


def test_keying_on_a_mixed_state_matches_the_explicit_trace():
    # matched-basis outcomes disagree with probability (1 - E)/2, agree with (1 + E)/2
    rng = np.random.default_rng(33)
    sigma_z, sigma_x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    n_pairs = 10**12
    for _ in range(50):
        state = MixedState(rng)
        e_zz = _born(state.density_matrix, sigma_z, sigma_z)
        e_xx = _born(state.density_matrix, sigma_x, sigma_x)
        for got, e in zip(derive_flips(state), (e_zz, e_xx)):
            if abs(e) >= 1e-9:
                assert got == (e < 0.0)
        report = run_bbm92(state, ProtocolConfig(n_pairs, seed=int(rng.integers(2**32))))
        # with the derived flips, errors are the less likely of agreeing and disagreeing
        for qber, e in zip((report.qber_rect, report.qber_diag), (e_zz, e_xx)):
            want = (1.0 - abs(e)) / 2.0
            sigma = math.sqrt(want * (1.0 - want) / (n_pairs / 4))  # about n/4 pairs per matched basis
            assert abs(qber - want) <= 6.0 * sigma + 1e-9
