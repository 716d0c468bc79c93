"""Weighted sinusoid fits for polarizer-scan fringes.

The fit model is

    counts(theta) = c * (1 + v * cos(2*pi*(theta - theta0) / period)),

with the period fixed (180 deg by default, matching the physical fringe of a
polarizer pair; 360 deg is supported for data recorded against a full-turn
convention).  Points are weighted by max(counts, 1) as their Poisson
variance.  With w = 2*pi/period the model is the linear model
A + B*cos(w*theta) + C*sin(w*theta) in other coordinates, so the weighted
least-squares optimum is one linear solve, mapped back by c = A,
v = hypot(B, C)/A and theta0 = atan2(C, B)/w.  The parameter covariance is
the inverse weighted normal matrix of (c, v, theta0) at the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import ScanData

__all__ = [
    "FitResult",
    "ScanMetrics",
    "fit_sinusoid",
    "fit_scan",
    "scan_metrics",
    "fit_result_to_dict",
]

SUPPORTED_PERIODS = (180.0, 360.0)


@dataclass(frozen=True)
class FitResult:
    """Fitted fringe parameters.

    Attributes:
        c: Baseline count level, model counts at zero visibility.
        v: Fringe visibility, canonicalized to >= 0 (and <= 1 for any
            physical fringe).
        theta0: Phase of the cosine peak, degrees in [0, period).
        covariance: 3x3 covariance of (c, v, theta0) from the weighted
            normal matrix; entries blow up (or become inf) when a parameter
            is unidentifiable, e.g. theta0 of a constant scan.
        chi2_reduced: Weighted residual sum over (n_points - 3).
        period: Fit period in degrees.
        converged: Always True for a returned fit: the solve does not
            iterate, and input it cannot fit raises instead.
        n_points: Number of fitted points.
    """

    c: float
    v: float
    theta0: float
    covariance: np.ndarray
    chi2_reduced: float
    period: float
    converged: bool
    n_points: int

    @property
    def c_err(self) -> float:
        return float(math.sqrt(max(self.covariance[0, 0], 0.0)))

    @property
    def v_err(self) -> float:
        return float(math.sqrt(max(self.covariance[1, 1], 0.0)))

    @property
    def theta0_err(self) -> float:
        return float(math.sqrt(max(self.covariance[2, 2], 0.0)))


@dataclass(frozen=True)
class ScanMetrics:
    """Scan-level quantities derived from a fit."""

    theta_max: float
    theta_max_err: float
    visibility: float
    visibility_err: float


def _jacobian(params: np.ndarray, theta: np.ndarray, omega: float) -> np.ndarray:
    c, v, theta0 = params
    phase = omega * (theta - theta0)
    cos_ph = np.cos(phase)
    sin_ph = np.sin(phase)
    return np.column_stack([1.0 + v * cos_ph, c * cos_ph, c * v * omega * sin_ph])


def fit_sinusoid(theta_deg, counts, period: float = 180.0) -> FitResult:
    """Fit the fringe model to (angle, counts) data.

    Args:
        theta_deg: Scanned angles in degrees.
        counts: Counts per angle; floats are accepted so exact model data
            round-trips without quantization.
        period: Fringe period in degrees, 180 or 360.

    Returns:
        FitResult in canonical form (v >= 0, theta0 in [0, period)).

    Raises:
        ValueError: For an unsupported period, non-finite angles or counts,
            fewer than 4 points, an angle span below half a period, negative
            or all-zero counts, or fewer than 3 distinct angles modulo the
            period (a rank-deficient solve).
    """
    if period not in SUPPORTED_PERIODS:
        raise ValueError(f"period must be one of {SUPPORTED_PERIODS}, got {period}")
    theta = np.asarray(theta_deg, dtype=float)
    y = np.asarray(counts, dtype=float)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(y))):
        raise ValueError("theta_deg and counts must be finite")
    if theta.ndim != 1 or theta.shape != y.shape:
        raise ValueError("theta_deg and counts must be 1-d arrays of equal length")
    if theta.size < 4:
        raise ValueError(f"need at least 4 points to fit 3 parameters, got {theta.size}")
    span = float(theta.max() - theta.min())
    if span < period / 2.0 - 1e-9:
        raise ValueError(
            f"angles span {span} deg but at least half a period ({period / 2.0} deg) is required"
        )
    if np.any(y < 0.0):
        raise ValueError("counts must be >= 0")
    if not np.any(y > 0.0):
        raise ValueError("counts are all zero: an empty scan has no fringe to fit")

    omega = 2.0 * np.pi / period  # radians per degree of scan angle
    sqrt_w = 1.0 / np.sqrt(np.maximum(y, 1.0))
    design = np.column_stack([np.ones_like(theta), np.cos(omega * theta), np.sin(omega * theta)])
    (a, b, s), ss, rank, _ = np.linalg.lstsq(design * sqrt_w[:, None], y * sqrt_w, rcond=None)
    if rank < 3:
        raise ValueError(
            f"theta_deg needs at least 3 distinct angles modulo {period} deg; "
            f"the fit's design matrix has rank {rank}"
        )

    # Canonical form: positive visibility, phase folded into [0, period).
    params = np.array([a, math.hypot(b, s) / a, math.atan2(s, b) / omega])
    if params[1] < 0.0:
        params[1] = -params[1]
        params[2] += period / 2.0
    params[2] %= period
    if params[2] == period:  # a tiny negative phase rounds up to the period
        params[2] = 0.0

    jac = _jacobian(params, theta, omega) * sqrt_w[:, None]
    normal = jac.T @ jac
    try:
        covariance = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        covariance = np.full((3, 3), np.inf)
    chi2_reduced = ss[0] / (theta.size - 3)
    return FitResult(
        c=float(params[0]),
        v=float(params[1]),
        theta0=float(params[2]),
        covariance=covariance,
        chi2_reduced=float(chi2_reduced),
        period=float(period),
        converged=True,
        n_points=int(theta.size),
    )


def fit_scan(data: ScanData, period: float = 180.0) -> FitResult:
    """Fit the fringe model to a simulated or parsed scan."""
    return fit_sinusoid(data.angles, data.counts, period=period)


def scan_metrics(fit: FitResult) -> ScanMetrics:
    """Peak position and visibility of a fitted scan.

    The cosine peak sits at theta0; polarizer axes are 180-deg periodic, so
    the peak is reported in [0, 180) regardless of the fit period.
    """
    return ScanMetrics(
        theta_max=fit.theta0 % 180.0,
        theta_max_err=fit.theta0_err,
        visibility=fit.v,
        visibility_err=fit.v_err,
    )


def fit_result_to_dict(fit: FitResult) -> dict:
    """JSON-ready summary of a fit (fixed key set, angles in degrees)."""
    return {
        "c": fit.c,
        "v": fit.v,
        "theta0_deg": fit.theta0,
        "period_deg": fit.period,
        "c_err": fit.c_err,
        "v_err": fit.v_err,
        "theta0_err_deg": fit.theta0_err,
        "chi2_reduced": fit.chi2_reduced,
        "converged": fit.converged,
    }
