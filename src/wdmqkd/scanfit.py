"""Weighted sinusoid fits for polarizer-scan fringes.

The fit model is

    counts(theta) = c * (1 + v * cos(2*pi*(theta - theta0) / PERIOD_DEG)),

with the period fixed at 180 deg, the fringe of a polarizer pair.  With
w = 2*pi/PERIOD_DEG it is the linear model A + B*cos(w*theta) +
C*sin(w*theta), so each weighted least-squares optimum is one linear solve,
mapped back by c = A, v = hypot(B, C)/A and theta0 = atan2(C, B)/w.  The
first solve takes max(counts, 1) as each point's Poisson variance, and two
more take max(model counts, 1) of the previous solution, which moves the
fit toward the Poisson likelihood (Baker & Cousins, NIM 221, 437 (1984)).
The covariance of (A, B, C) is R^-1 R^-T, with R the triangular factor of
the last weighted solve, carried to (c, v, theta0) by the map's Jacobian.

Scans that share one angle list are fitted together (``fit_scans``): the
design matrix and its rank are computed once, the weighted least-squares
problems are solved by stacked QR decompositions, and the covariances come
from their stacked R factors.  ``fit_sinusoid`` and ``fit_scan`` are one-row
calls of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import normalize_angle_deg
from .detection import ScanData

__all__ = [
    "FitResult",
    "ScanMetrics",
    "fit_sinusoid",
    "fit_scan",
    "fit_scans",
    "scan_metrics",
]

PERIOD_DEG = 180.0  # fringe period of the fit model, degrees


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted fringe parameters; fits compare and hash by every field.

    Attributes:
        c: Baseline count level, model counts at zero visibility.
        v: Fringe visibility, canonicalized to >= 0 (and <= 1 for any
            physical fringe).
        theta0: Phase of the cosine peak, degrees in [0, PERIOD_DEG).
        covariance: 3x3 covariance of (c, v, theta0), that of the linear
            coefficients carried through the map to (c, v, theta0); the
            entries of a parameter are inf when it is unidentifiable, e.g.
            theta0 of a constant scan, or v and theta0 at subnormal counts.
            The fit holds its own read-only copy.
        chi2_reduced: Weighted residual sum over (n_points - 3).
        converged: Always True for a returned fit: the solves are a fixed
            sequence with no convergence test, and input they cannot fit
            raises instead.
        n_points: Number of fitted points.
    """

    c: float
    v: float
    theta0: float
    covariance: np.ndarray
    chi2_reduced: float
    converged: bool
    n_points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "covariance", np.array(self.covariance, dtype=float))
        self.covariance.flags.writeable = False

    def _key(self) -> tuple:  # every field, the covariance entry by entry
        return (self.c, self.v, self.theta0, *self.covariance.ravel().tolist(),
                self.chi2_reduced, self.converged, self.n_points)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


def _shared_error(theta: np.ndarray, rows: np.ndarray) -> str | None:
    """fit_sinusoid's message for angles that no row can be fitted at, or None."""
    if theta.ndim != 1 or rows.shape[1:] != theta.shape:
        return "theta_deg and counts must be 1-d arrays of equal length"
    if theta.size < 4:
        return f"need at least 4 points to fit 3 parameters, got {theta.size}"
    span = float(theta.max() - theta.min())
    if span < PERIOD_DEG / 2.0 - 1e-9:
        return f"angles span {span} deg but at least half a period ({PERIOD_DEG / 2.0} deg) is required"
    return None


def _fit_rows(theta: np.ndarray, rows: np.ndarray) -> list[FitResult | ValueError]:
    """FitResult or ValueError for each row of counts rows[k] at the angles theta.

    A row's ValueError is the first of fit_sinusoid's checks it fails; the
    rows that pass are solved together.
    """
    results = [None] * len(rows)

    def fail(bad: np.ndarray, message: str) -> bool:
        """Give rows where bad holds the message, unless they failed before; True if all failed."""
        if bad.any():
            for k in np.flatnonzero(bad):
                results[k] = results[k] or ValueError(message)
        return all(results)

    every_row = np.ones(len(rows), dtype=bool)

    finite = np.isfinite(rows).reshape(len(rows), -1).all(axis=1) & np.isfinite(theta).all()
    if fail(~finite, "theta_deg and counts must be finite"):
        return results
    shared = _shared_error(theta, rows)
    if shared is not None:
        fail(every_row, shared)
        return results
    fail((rows < 0.0).any(axis=1), "counts must be >= 0")
    if fail(~(rows > 0.0).any(axis=1), "counts are all zero: an empty scan has no fringe to fit"):
        return results
    omega = 2.0 * np.pi / PERIOD_DEG  # radians per degree of scan angle
    design = np.column_stack([np.ones_like(theta), np.cos(omega * theta), np.sin(omega * theta)])
    # Positive weights leave the rank as it is, so it is the design's, found once.
    rank = np.linalg.matrix_rank(design)
    if rank < 3:
        fail(every_row, f"theta_deg needs at least 3 distinct angles modulo {PERIOD_DEG} deg; "
             f"the fit's design matrix has rank {rank}")
        return results

    good = [k for k, result in enumerate(results) if result is None]
    y = variance = rows[good]
    for _ in range(3):  # weighted by the counts, then twice by the previous model
        sqrt_w = 1.0 / np.sqrt(np.maximum(variance, 1.0))
        weighted = design * sqrt_w[:, :, None]
        target = y * sqrt_w
        q, r = np.linalg.qr(weighted)
        solve = lambda rhs: np.linalg.solve(r, np.einsum("kni,kn->ki", q, rhs)[..., None])[..., 0]
        solution = solve(target)
        # One refinement step: the next weights, 1/model, would magnify this
        # solve's rounding wherever the model is only a few counts.
        solution += solve(target - np.einsum("kni,ki->kn", weighted, solution))
        variance = solution @ design.T
    residual = target - np.einsum("kni,ki->kn", weighted, solution)
    chi2_reduced = (residual**2).sum(axis=1) / (theta.size - 3)

    # Canonical form: positive visibility, phase folded into [0, PERIOD_DEG).
    a, b, s = solution.T
    h, phi = np.hypot(b, s), np.arctan2(s, b)
    with np.errstate(divide="ignore", invalid="ignore"):  # a that rounds to +-0 is rejected below
        c, v, theta0 = a, h / a, phi / omega
    theta0 = normalize_angle_deg(np.where(v < 0.0, theta0 + PERIOD_DEG / 2.0, theta0))
    v = np.abs(v)

    # The covariance of (a, b, s) is (R^T R)^-1 = R^-1 R^-T, from the last solve's
    # factor; the map's Jacobian diag(scale) @ turn carries it to (c, v, theta0).
    cos_phi, sin_phi, one, zero = np.cos(phi), np.sin(phi), np.ones_like(a), np.zeros_like(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        turn = np.stack([one, zero, zero, -v * np.sign(a), cos_phi, sin_phi, zero, -sin_phi, cos_phi], axis=-1)
        turned = turn.reshape(-1, 3, 3) @ np.linalg.inv(r)
        scale = np.stack([one, 1.0 / np.abs(a), 1.0 / (omega * h)], axis=-1)
        covariance = scale[:, :, None] * (turned @ turned.transpose(0, 2, 1)) * scale[:, None, :]
    # An infinite scale (a or h zero or subnormal) leaves its parameter unidentified.
    covariance[np.isinf(scale[:, :, None] + scale[:, None, :])] = np.inf
    for k, ck, vk, tk, cov, chi2 in zip(
        good, c.tolist(), v.tolist(), theta0.tolist(), covariance, chi2_reduced.tolist()
    ):
        fit = FitResult(ck, vk, tk, cov, chi2, True, int(theta.size))
        results[k] = fit if math.isfinite(vk) else ValueError("the fitted baseline c rounds to 0, so v is undefined")
    return results


def _raise_or_return(result):
    if isinstance(result, ValueError):
        raise result
    return result


def fit_sinusoid(theta_deg, counts) -> FitResult:
    """Fit the fringe model to (angle, counts) data.

    Args:
        theta_deg: Scanned angles in degrees.
        counts: Counts per angle; floats are accepted so exact model data
            round-trips without quantization.

    Returns:
        FitResult in canonical form (v >= 0, theta0 in [0, PERIOD_DEG)).

    Raises:
        ValueError: For non-finite angles or counts, fewer than 4 points,
            an angle span below half a period, negative or all-zero counts,
            fewer than 3 distinct angles modulo the period (a rank-deficient
            solve), or a fitted baseline that rounds to zero.
    """
    theta = np.asarray(theta_deg, dtype=float)
    rows = np.asarray(counts, dtype=float)[None]
    return _raise_or_return(_fit_rows(theta, rows)[0])


def fit_scan(data: ScanData) -> FitResult:
    """Fit the fringe model to a simulated or parsed scan."""
    return _raise_or_return(fit_scans([data])[0])


def fit_scans(scans) -> list[FitResult | ValueError]:
    """Fit the fringe model to scans that share one angle list, in one solve.

    Returns:
        One entry per scan, in order: its FitResult, or the ValueError that
        fit_scan raises for it (a scan that cannot be fitted does not stop
        the others).

    Raises:
        ValueError: For scans whose angle lists differ.
    """
    scans = list(scans)
    if not scans:
        return []
    angles = scans[0].angles
    if any(scan.angles != angles for scan in scans):
        raise ValueError("fit_scans needs scans that share one angle list")
    rows = np.array([scan.counts for scan in scans], dtype=float)
    return _fit_rows(np.array(angles, dtype=float), rows)


def scan_metrics(fit: FitResult) -> ScanMetrics:
    """Peak position and visibility of a fitted scan; the cosine peak sits at theta0."""
    return ScanMetrics(
        theta_max=fit.theta0,
        theta_max_err=fit.theta0_err,
        visibility=fit.v,
        visibility_err=fit.v_err,
    )

