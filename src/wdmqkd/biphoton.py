"""Two-photon polarization model of a down-conversion pair source.

The source emits signal/idler photon pairs in a superposition of the two
cross-polarized terms |H>_s|V>_i and |V>_s|H>_i.  The relative weight of the
second term is an amplitude ratio ``f`` and its relative phase is ``alpha``;
f = 1 with alpha = 0 or pi gives a maximally entangled state, f = 0 a bare
|H>_s|V>_i product.  Each arm ends in a linear polarizer whose angle is
measured from the vertical axis, so the transmitted direction at angle theta
has horizontal component sin(theta) and vertical component cos(theta).

Every state is its 4x4 density matrix rho over {HH, HV, VH, VV}, built from
(0, 1, f e^{i alpha}, 0) / hypot(1, f), finite for every finite f, or from
the separable (1, 1, 1, 1) / 2.  ``plane_moments`` alone reads rho, as the
moments M_jk = Tr(rho o_j x o_k), o = (1, sigma_z, sigma_x); the Born rule
Tr(rho P_s x P_i) is then n_s^T M n_i / 4 with n the ``analyzer_vectors``.
The four transmit/reflect outcomes behind two-output analyzers come back as
plain probabilities in the order (tt, tr, rt, rr).

All angles crossing this module's public boundary are degrees; phases are
radians.  Polarizer settings are 180-degree periodic and are normalized on
construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BiphotonPureState",
    "ProductState",
    "PairState",
    "MeasurementSetting",
    "coincidence_probability",
    "coincidence_probabilities",
    "rate_expanded",
    "joint_outcome_distribution",
    "correlation_E",
]

_TWO_PI = 2.0 * math.pi

# Row 3j + k is o_j x o_k flattened: real and symmetric, so Im rho cancels in the trace.
_PLANE_OPERATORS = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
_MOMENT_ROWS = np.array([np.kron(a, b).ravel() for a in _PLANE_OPERATORS for b in _PLANE_OPERATORS])


def normalize_angle_deg(theta):
    """Reduce polarizer angles to [0, 180); analyzer axes are 180-deg periodic.

    theta is a float (a float is returned) or a numpy array (an array is
    returned); Python's % and numpy's agree bit for bit.  A tiny negative
    angle rounds up to 180, which the second % maps to 0.
    """
    return theta % 180.0 % 180.0


def analyzer_vectors(theta) -> np.ndarray:
    """n = (1, -cos 2 theta, sin 2 theta), shape (3,) + theta's: the polarizer projects onto n . o / 2."""
    two_theta = np.radians(2.0 * normalize_angle_deg(np.asarray(theta, dtype=float)))
    return np.array([np.ones_like(two_theta), -np.cos(two_theta), np.sin(two_theta)])


@dataclass(frozen=True)
class BiphotonPureState:
    """Pure polarization state of one emitted pair.

    Attributes:
        f: Amplitude ratio of the |V>_s|H>_i term relative to |H>_s|V>_i.
            Must be finite and non-negative.
        alpha: Relative phase between the two terms in radians, stored
            normalized to [0, 2*pi).
    """

    f: float = 1.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.f) or self.f < 0.0:
            raise ValueError(f"amplitude ratio f must be finite and >= 0, got {self.f}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"relative phase alpha must be finite, got {self.alpha}")
        object.__setattr__(self, "f", float(self.f))
        object.__setattr__(self, "alpha", float(self.alpha) % _TWO_PI)

    @classmethod
    def from_degrees(cls, f: float, alpha_deg: float) -> "BiphotonPureState":
        """Build a state with the phase given in degrees."""
        return cls(f, math.radians(alpha_deg))

    @property
    def density_matrix(self) -> np.ndarray:
        """rho of (0, 1, f e^{i alpha}, 0) / hypot(1, f), basis {HH, HV, VH, VV}."""
        norm = math.hypot(1.0, self.f)
        psi = np.array([0.0, 1.0 / norm, self.f / norm * cmath.exp(1j * self.alpha), 0.0])
        return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class ProductState:
    """Separable reference state: both photons polarized along +45 degrees.

    Its coincidence rate factorizes into independent single-arm fringes, so
    the idler-scan peak position never depends on the signal polarizer angle.
    Used as the unentangled baseline in analysis and simulation.
    """

    @property
    def density_matrix(self) -> np.ndarray:
        """rho of (1, 1, 1, 1) / 2, basis {HH, HV, VH, VV}."""
        return np.full((4, 4), 0.25)


PairState = BiphotonPureState | ProductState


def plane_moments(state: PairState) -> np.ndarray:
    """M_jk = Tr(rho o_j x o_k), o = (1, sigma_z, sigma_x); T = M[1:, 1:] is the correlation tensor."""
    return (_MOMENT_ROWS @ state.density_matrix.real.ravel()).reshape(3, 3)


@dataclass(frozen=True)
class MeasurementSetting:
    """Polarizer angles of the two arms, degrees from the vertical axis.

    Angles are stored modulo 180 since a polarizer axis is orientation-free.
    """

    theta_s: float
    theta_i: float

    def __post_init__(self) -> None:
        for name in ("theta_s", "theta_i"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, normalize_angle_deg(float(value)))


def coincidence_probabilities(state: PairState, theta_s, theta_i) -> np.ndarray:
    """Probabilities Tr(rho P_s x P_i) that both analyzers transmit.

    theta_s and theta_i are polarizer angles in degrees, scalars or arrays
    that broadcast against each other by numpy's rules: a scalar theta_s and
    an array of idler angles give one scan.  The result has the broadcast
    shape (a numpy float for two scalars) and values in [0, 1]; each arm's
    analyzer vectors are computed once, on its own angles.  A NaN or infinite
    angle, or shapes that do not broadcast, raise ValueError.
    """
    theta_s, theta_i = np.asarray(theta_s, dtype=float), np.asarray(theta_i, dtype=float)
    np.broadcast_shapes(theta_s.shape, theta_i.shape)
    for name, theta in (("theta_s", theta_s), ("theta_i", theta_i)):
        if not np.isfinite(theta).all():
            raise ValueError(f"polarizer angles {name} must be finite")
    n_s, n_i = analyzer_vectors(theta_s), analyzer_vectors(theta_i)
    p = np.einsum("j...,jk,k...->...", n_s, plane_moments(state), n_i) / 4.0
    return np.minimum(np.maximum(p, 0.0), 1.0)


def outcome_probabilities(state: PairState, theta_s, theta_i) -> np.ndarray:
    """Outcomes (tt, tr, rt, rr) on a new last axis; each reflect port sits at its set angle + 90 deg."""
    theta_s, theta_i = np.asarray(theta_s)[..., None], np.asarray(theta_i)[..., None]
    return coincidence_probabilities(state, theta_s + [0.0, 0.0, 90.0, 90.0], theta_i + [0.0, 90.0, 0.0, 90.0])


def coincidence_probability(state: PairState, setting: MeasurementSetting) -> float:
    """Probability that both analyzers transmit at one setting."""
    return float(coincidence_probabilities(state, setting.theta_s, setting.theta_i))


def rate_expanded(f: float, alpha: float, setting: MeasurementSetting) -> float:
    """Unnormalized coincidence rate in sum/difference-angle form.

    Evaluates the three-term expansion over sin^2(theta_s + theta_i),
    sin^2(theta_s - theta_i) and their cross product.  It equals
    (1 + f^2) * coincidence_probability for the same parameters; keeping the
    expanded form separate lets tests check the two routes against each other.

    Args:
        f: Amplitude ratio, >= 0.
        alpha: Relative phase, radians.
        setting: Polarizer angles in degrees.
    """
    if not math.isfinite(f) or f < 0.0:
        raise ValueError(f"amplitude ratio f must be finite and >= 0, got {f}")
    if not math.isfinite(alpha):
        raise ValueError(f"phase alpha must be finite, got {alpha}")
    ts = math.radians(setting.theta_s)
    ti = math.radians(setting.theta_i)
    plus = math.sin(ts + ti)
    minus = math.sin(ts - ti)
    f2 = f * f
    ca = math.cos(alpha)
    return (
        (1.0 + f2 + 2.0 * f * ca) / 4.0 * plus * plus
        + (1.0 + f2 - 2.0 * f * ca) / 4.0 * minus * minus
        + (1.0 - f2) / 2.0 * plus * minus
    )


def joint_outcome_distribution(
    state: PairState, setting: MeasurementSetting
) -> tuple[float, float, float, float]:
    """Probabilities (tt, tr, rt, rr) behind two-output analyzers, summing to one.

    Outcome letters are (signal, idler); 't' is transmission at the set angle
    and 'r' transmission at the orthogonal angle (see outcome_probabilities).
    """
    return tuple(outcome_probabilities(state, setting.theta_s, setting.theta_i).tolist())


def correlation_E(state: PairState, setting: MeasurementSetting) -> float:
    """Two-outcome correlation E = p_tt + p_rr - p_tr - p_rt = n_s^T T n_i, in [-1, 1]."""
    n_s, n_i = analyzer_vectors([setting.theta_s, setting.theta_i])[1:].T
    e = float(n_s @ plane_moments(state)[1:, 1:] @ n_i)
    return max(-1.0, min(1.0, e))
