"""Property tests: angle normalization range and fit permutation invariance."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdmqkd import fit_sinusoid
from wdmqkd.biphoton import normalize_angle_deg

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
