"""Fringe analysis for polarizer scans: peak angles, visibility, CHSH.

At a fixed signal polarizer angle the coincidence probability as a function
of the idler angle is a raised sinusoid

    p(theta_i) = mean + amp_cos * cos(2 theta_i) + amp_sin * sin(2 theta_i),

so peak position and visibility follow in closed form from the three
coefficients n(theta_s)^T M / 4.  They, and the CHSH correlation tensor
T = M[1:, 1:], are read from the state's moments M (``plane_moments``); the
CHSH maximum and its settings follow in closed form from the SVD of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import PairState, analyzer_vectors, normalize_angle_deg, plane_moments

__all__ = [
    "ThetaMaxResult",
    "ShiftEntry",
    "ChshSettings",
    "scan_coefficients",
    "find_theta_max",
    "shift_table",
    "visibility",
    "chsh_optimize",
    "signed_angle_difference",
]

# A scan counts as degenerate when its peak-to-peak swing is this small
# relative to its mean (covers the identically-zero curve as well).
DEGENERACY_RTOL = 1e-12

# ... or when its peak probability is this small in absolute terms, which
# catches curves that vanish identically in exact arithmetic but evaluate to
# rounding dust (e.g. the product state with the signal polarizer crossed).
DEGENERACY_ATOL = 1e-24


@dataclass(frozen=True)
class ThetaMaxResult:
    """Peak of an idler scan at fixed signal angle.

    Attributes:
        theta_max: Idler angle of maximum coincidence probability, degrees
            in [0, 180).  For a degenerate (constant or zero) scan it is the
            peak of the idler's singles fringe instead (see find_theta_max).
        r_max: Probability at the maximum.
        r_min: Probability at the minimum.
        visibility: (r_max - r_min) / (r_max + r_min), zero for degenerate
            scans.
        degenerate: True when the scan curve is constant within
            DEGENERACY_RTOL of its mean or its peak is below DEGENERACY_ATOL.
    """

    theta_max: float
    r_max: float
    r_min: float
    visibility: float
    degenerate: bool


@dataclass(frozen=True)
class ShiftEntry:
    """One row of a peak-shift table; visibility is that of the row's scan."""

    theta_s: float
    theta_max: float
    shift: float
    degenerate: bool
    visibility: float


@dataclass(frozen=True)
class ChshSettings:
    """CHSH analyzer angles in degrees: a, a_prime on the signal arm, b, b_prime on the idler arm."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self) -> None:
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, float(getattr(self, name)))


def signed_angle_difference(theta: float, reference: float) -> float:
    """Minimal signed difference theta - reference on the 180-deg circle, in (-90, 90]."""
    if not (math.isfinite(theta) and math.isfinite(reference)):
        raise ValueError(f"angles must be finite, got theta={theta}, reference={reference}")
    d = normalize_angle_deg(theta - reference)
    return d - 180.0 if d > 90.0 else d


def _fringe(r) -> tuple[float, float, float]:
    """(mean, amp_cos, amp_sin) of the idler fringe r . n(theta_i)."""
    return float(r[0]), -float(r[1]), float(r[2])


def scan_coefficients(state: PairState, theta_s: float) -> tuple[float, float, float]:
    """Sinusoid coefficients of the idler scan at fixed signal angle.

    Returns:
        (mean, amp_cos, amp_sin) such that the coincidence probability is
        mean + amp_cos * cos(2 theta_i) + amp_sin * sin(2 theta_i).

    Raises:
        ValueError: If theta_s is NaN or infinite.
    """
    if not math.isfinite(theta_s):
        raise ValueError(f"theta_s must be finite, got {theta_s}")
    return _fringe(analyzer_vectors(theta_s) @ plane_moments(state) / 4.0)


def find_theta_max(state: PairState, theta_s: float) -> ThetaMaxResult:
    """Locate the idler angle maximizing the coincidence probability.

    The peak follows from the scan's sinusoid coefficients as
    0.5 * atan2(amp_sin, amp_cos).  A constant (or identically zero) scan
    is flagged degenerate and takes the peak of the idler's singles fringe
    M[0] . n(theta_i) / 2 instead: for the product state that is exactly 45
    deg at every theta_s.  If the singles fringe is flat too, the value
    carries no information.

    Args:
        state: Entangled pure state or the +45 product state.
        theta_s: Fixed signal polarizer angle, degrees.
    """
    mean, amp_cos, amp_sin = scan_coefficients(state, theta_s)
    swing = math.hypot(amp_cos, amp_sin)
    r_max = mean + swing
    r_min = max(mean - swing, 0.0)
    degenerate = 2.0 * swing <= DEGENERACY_RTOL * mean or r_max <= DEGENERACY_ATOL
    if degenerate:
        _, amp_cos, amp_sin = _fringe(plane_moments(state)[0])
    theta_max = normalize_angle_deg(math.degrees(0.5 * math.atan2(amp_sin, amp_cos)))
    vis = 0.0 if degenerate else swing / mean
    return ThetaMaxResult(
        theta_max=theta_max,
        r_max=r_max,
        r_min=r_min,
        visibility=vis,
        degenerate=degenerate,
    )


def shift_table(
    state: PairState,
    theta_s_list: list[float] | tuple[float, ...],
    reference: float = 0.0,
) -> list[ShiftEntry]:
    """Peak positions and their shifts relative to a reference signal angle.

    Args:
        state: State under analysis.
        theta_s_list: Signal polarizer angles to tabulate, degrees.
        reference: Signal angle whose peak defines shift zero (default 0).

    Returns:
        One ShiftEntry per input angle; shift is the minimal signed
        difference on the 180-deg circle, in (-90, 90].

    Raises:
        ValueError: If reference or an angle of theta_s_list is NaN or infinite.
    """
    if not math.isfinite(reference):
        raise ValueError(f"reference must be finite, got {reference}")
    ref_peak = find_theta_max(state, reference).theta_max
    rows = []
    for ts in theta_s_list:
        res = find_theta_max(state, ts)
        rows.append(
            ShiftEntry(
                theta_s=float(ts),
                theta_max=res.theta_max,
                shift=signed_angle_difference(res.theta_max, ref_peak),
                degenerate=res.degenerate,
                visibility=res.visibility,
            )
        )
    return rows


def visibility(state: PairState, theta_s: float) -> float:
    """Fringe visibility (r_max - r_min) / (r_max + r_min) of the idler scan."""
    return find_theta_max(state, theta_s).visibility


def chsh_optimize(state: PairState) -> tuple[ChshSettings, float]:
    """Maximize S over all four analyzer angles in closed form.

    E(a, b) = n(a)^T T n(b), with n the plane part of ``analyzer_vectors``
    and T = M[1:, 1:] of ``plane_moments``.  With T = U diag(t1, t2) V^T the
    maximum over the analyzer plane is 2 sqrt(t1^2 + t2^2) (R., P. & M.
    Horodecki, Phys. Lett. A 200, 340 (1995)), reached at n(a) = u2,
    n(a') = u1 and n(b), n(b') = cos(phi) v1 +- sin(phi) v2, phi = atan2(t2, t1).

    Returns:
        (settings, s_max) with s_max = 2 * hypot(t1, t2) >= 0, the value
        E(a,b) - E(a,b') + E(a',b) + E(a',b') takes at these four angles.
    """
    t = plane_moments(state)[1:, 1:]
    u, (t1, t2), vt = np.linalg.svd(t)
    phi = math.atan2(t2, t1)
    along, across = math.cos(phi) * vt[0], math.sin(phi) * vt[1]
    angle = lambda n: normalize_angle_deg(math.degrees(0.5 * math.atan2(n[1], -n[0])))
    settings = ChshSettings(
        angle(u[:, 1]), angle(u[:, 0]), angle(along + across), angle(along - across)
    )
    return settings, 2.0 * math.hypot(t1, t2)
