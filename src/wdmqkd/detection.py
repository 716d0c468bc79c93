"""Counting statistics for polarizer-scan measurements.

Each scan point is an independent Poisson draw whose mean is the detected
coincidence rate times the integration time,

    mean = T * (pair_rate * eff_s * eff_i * p + accidental_rate),

with p the coincidence probability at the analyzer angles.  Each scan draws
its points from one random stream, split per (seed, channel, fixed arm,
fixed angle), in ascending order of the scanned angle: results never depend
on evaluation order, permuting the scanned angle list simply permutes the
counts, and the points at 0 and 180 deg are separate draws.

``simulate_scans`` evaluates several scans of one arm over one (fixed x
scanned) grid and returns their counts as one int64 array; each scan keeps
its own stream, so row j holds what ``simulate_scan`` draws at fixed angle j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .biphoton import PairState, coincidence_probabilities, normalize_angle_deg

__all__ = [
    "DetectionConfig",
    "ScanData",
    "derive_stream",
    "angle_stream_key",
    "expected_mean",
    "simulate_scan",
    "simulate_scans",
]

SCAN_ARMS = ("signal", "idler")

# Largest Poisson mean of one scan point a DetectionConfig may give.  numpy's
# Poisson sampler rejects means above about 9.2e18 (its int64 output range)
# with an error that names no input; this bound sits below that limit.
MAX_MEAN = 1e18


@dataclass(frozen=True)
class DetectionConfig:
    """Detector and source-rate parameters of a coincidence measurement.

    Attributes:
        pair_rate: Detected pair rate at unit coincidence probability, 1/s.
        efficiency_signal: Signal-arm detection efficiency in [0, 1].
        efficiency_idler: Idler-arm detection efficiency in [0, 1].
        accidental_rate: Angle-independent background coincidence rate, 1/s.
        integration_time: Counting time per scan point, s.
        seed: Master seed of the per-scan random streams.
    """

    pair_rate: float = 2000.0
    efficiency_signal: float = 1.0
    efficiency_idler: float = 1.0
    accidental_rate: float = 0.0
    integration_time: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pair_rate", "efficiency_signal", "efficiency_idler", "accidental_rate", "integration_time"):
            _check_number(getattr(self, name), name)
        for name in ("pair_rate", "accidental_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")
        for name in ("efficiency_signal", "efficiency_idler"):
            eff = getattr(self, name)
            if not 0.0 <= eff <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {eff}")
        if not 0.0 < self.integration_time < math.inf:
            raise ValueError(f"integration_time must be finite and > 0, got {self.integration_time}")
        object.__setattr__(self, "seed", checked_int(self.seed, "seed"))
        peak = expected_mean(1.0, self)
        if not peak <= MAX_MEAN:
            raise ValueError(
                "integration_time * (pair_rate * efficiency_signal * efficiency_idler"
                f" + accidental_rate) must be <= {MAX_MEAN:g}, got {peak}"
            )


@dataclass(frozen=True)
class ScanData:
    """Simulated counts of one polarizer scan.

    Attributes:
        theta_fixed_arm: Which arm is held fixed, 'signal' or 'idler'.
        theta_fixed: Fixed-arm polarizer angle, degrees.
        angles: Scanned angles of the other arm, degrees, as given.
        counts: Coincidence counts per angle, non-negative integers.
        config: Detection parameters the counts were drawn with.
    """

    theta_fixed_arm: str
    theta_fixed: float
    angles: tuple[float, ...]
    counts: tuple[int, ...]
    config: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self) -> None:
        if self.theta_fixed_arm not in SCAN_ARMS:
            raise ValueError(
                f"theta_fixed_arm must be one of {SCAN_ARMS}, got {self.theta_fixed_arm!r}"
            )
        _check_number(self.theta_fixed, "theta_fixed")
        if not math.isfinite(self.theta_fixed):
            raise ValueError(f"theta_fixed must be finite, got {self.theta_fixed}")
        angles = tuple(float(a) for a in self.angles)
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"angles must be finite, got {angles}")
        if len(angles) != len(self.counts):
            raise ValueError("angles and counts differ in length")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "counts", tuple(checked_int(c, "counts") for c in self.counts))


def _check_number(value, name: str) -> None:
    """ValueError naming the value unless it is a real number; a bool is not one."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be numeric, got {value!r}")


def _angle_list(values, name: str) -> np.ndarray:
    """values, any iterable of numbers, as a 1-d float array, else ValueError naming them."""
    try:
        return np.fromiter(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numeric angles in degrees, got {values!r}") from None


def angle_stream_key(theta_deg: float) -> int:
    """Integer stream key of a scan angle: millidegrees in [0, 180000)."""
    if not math.isfinite(theta_deg):
        raise ValueError(f"scan angle theta_deg must be finite, got {theta_deg}")
    # 179.9995 deg and up round to 180000; the integer fold maps that key to 0
    return int(round(normalize_angle_deg(theta_deg) * 1000.0)) % 180000


def checked_int(value, name: str, low: int = 0, high: int | None = None) -> int:
    """value as an int if it is an integer (not a bool) in [low, high], else ValueError naming it."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):  # e.g. NaN or inf
        n = None
    if n is None or n != value or n < low or (high is not None and n > high):
        bounds = "a non-negative integer" if (low, high) == (0, None) else f"an integer in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return n


def derive_stream(seed: int, channel_id: int = 0, *key: int) -> np.random.Generator:
    """Independent random stream for one (channel, *key) cell of a run.

    The stream is that of SeedSequence([seed, channel_id, *key]); every
    part must be a non-negative integer.
    """
    parts = [checked_int(seed, "seed"), checked_int(channel_id, "channel_id")]
    parts += (checked_int(k, "stream key") for k in key)
    return np.random.default_rng(np.random.SeedSequence(parts))


def expected_mean(p, config: DetectionConfig):
    """Poisson mean at coincidence probability p, a float or an array of them."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"coincidence probability must be in [0, 1], got {p}")
    return config.integration_time * (
        config.pair_rate * config.efficiency_signal * config.efficiency_idler * p
        + config.accidental_rate
    )


def simulate_scans(
    state: PairState,
    arm: str,
    fixed_angles,
    angles,
    config: DetectionConfig,
    channel_id: int = 0,
) -> np.ndarray:
    """Simulate one polarizer scan per fixed angle of one arm.

    Args:
        state: Pair state the coincidence probabilities come from.
        arm: The held arm, 'signal' or 'idler'; the other arm is scanned.
        fixed_angles: Angles of the held polarizer in degrees, one scan each.
        angles: Scanned angles in degrees, any order, shared by every scan.
            One stream per (seed, channel_id, arm, fixed angle) draws a
            scan's points in ascending order, so permuting the angles
            permutes the counts.
        config: Detection parameters, including the master seed.
        channel_id: Spectral channel index mixed into the stream split.

    Returns:
        The counts as an int64 array of shape (len(fixed_angles),
        len(angles)): row j is the scan at fixed_angles[j].  A non-numeric
        angle raises ValueError naming fixed_angles or angles.
    """
    if arm not in SCAN_ARMS:
        raise ValueError(f"fixed arm must be one of {SCAN_ARMS}, got {arm!r}")
    fixed, scanned = _angle_list(fixed_angles, "fixed_angles"), _angle_list(angles, "angles")
    grid = (fixed[:, None], scanned[None, :]) if arm == "signal" else (scanned[None, :], fixed[:, None])
    means = expected_mean(coincidence_probabilities(state, *grid), config)
    order = np.argsort(scanned, kind="stable")
    counts = np.empty(means.shape, dtype=np.int64)
    for row, theta, mean in zip(counts, fixed.tolist(), means):
        key = SCAN_ARMS.index(arm) * 180000 + angle_stream_key(theta)
        row[order] = derive_stream(config.seed, channel_id, key).poisson(mean[order])
    return counts


def simulate_scan(
    state: PairState,
    fixed: tuple[str, float],
    angles,
    config: DetectionConfig,
    channel_id: int = 0,
) -> ScanData:
    """Simulate one polarizer scan; fixed is (arm, angle_deg).  See simulate_scans."""
    try:
        arm, theta = fixed
    except (TypeError, ValueError):
        raise ValueError(f"fixed must be an (arm, angle_deg) pair, got {fixed!r}") from None
    counts = simulate_scans(state, arm, (theta,), angles, config, channel_id)[0]
    return ScanData(arm, float(theta), angles, tuple(counts.tolist()), config)
