"""Reference physics for the benchmark's output checks, written apart from wdmqkd.

Nothing here imports the package under test.  The two-photon state is a
2x2 complex amplitude array psi[a, b] over signal polarization a and idler
polarization b (index 0 = H, 1 = V); a polarizer at angle theta from the
vertical transmits the direction (sin theta, cos theta) in the (H, V) basis.
Every quantity the checks compare with is derived from that formula alone:

- coincidence probabilities |sum_ab psi[a, b] u_a(theta_s) u_b(theta_i)|^2;
- the idler-scan peak and visibility from the Fourier component of the
  sampled curve at the fringe frequency (period 180 deg);
- the correlation tensor T_ij = <psi| sigma_i x sigma_j |psi> on the plane
  of linear polarizations, and the CHSH maximum 2 sqrt(t1^2 + t2^2) of its
  two singular values (R., P. & M. Horodecki, Phys. Lett. A 200, 340
  (1995), restricted to the linear analyzers the program models);
- per-basis key error rates under given bit flips;
- per-channel amplitude ratios from Gaussian band profiles.
"""

from __future__ import annotations

import math

import numpy as np

# Pauli operators in the (H, V) basis.  A polarizer at theta measures
# -cos(2 theta) sigma_z + sin(2 theta) sigma_x (transmit = +1).
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def entangled_state(f: float, alpha_deg: float) -> np.ndarray:
    """(|H>_s|V>_i + f e^{i alpha} |V>_s|H>_i) / sqrt(1 + f^2)."""
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 1] = 1.0
    psi[1, 0] = f * np.exp(1j * math.radians(alpha_deg))
    return psi / math.sqrt(1.0 + f * f)


def product_state() -> np.ndarray:
    """Both photons linearly polarized at +45 deg from the vertical."""
    return np.full((2, 2), 0.5, dtype=complex)


def _analyzer(theta_deg) -> np.ndarray:
    t = np.radians(np.asarray(theta_deg, dtype=float))
    return np.stack([np.sin(t), np.cos(t)], axis=-1)


def coincidence(psi: np.ndarray, theta_s, theta_i) -> np.ndarray:
    """Probability that both polarizers transmit; broadcasts over angles."""
    us = _analyzer(theta_s)
    ui = _analyzer(theta_i)
    amp = np.einsum("...a,ab,...b->...", us, psi, ui)
    return np.abs(amp) ** 2


def scan_peak(psi: np.ndarray, theta_s: float, n: int = 360) -> tuple[float, float, float]:
    """Peak angle (deg in [0, 180)), visibility and peak value of an idler scan.

    The curve is sampled at n uniform idler angles over one period; its mean
    and its component at cos/sin(2 theta_i) are exact for any n >= 3.
    """
    grid = np.arange(n) * (180.0 / n)
    curve = coincidence(psi, theta_s, grid)
    two = np.radians(2.0 * grid)
    mean = float(curve.mean())
    a = 2.0 * float(np.mean(curve * np.cos(two)))
    b = 2.0 * float(np.mean(curve * np.sin(two)))
    swing = math.hypot(a, b)
    peak = math.degrees(0.5 * math.atan2(b, a)) % 180.0
    return peak, (swing / mean if mean > 0.0 else 0.0), float(curve.max())


def correlation(psi: np.ndarray, a: float, b: float) -> float:
    """E(a, b) = p_tt + p_rr - p_tr - p_rt behind two-output analyzers."""
    p = lambda s, i: float(coincidence(psi, s, i))
    return p(a, b) + p(a + 90.0, b + 90.0) - p(a, b + 90.0) - p(a + 90.0, b)


def chsh(psi: np.ndarray, a: float, a_prime: float, b: float, b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    e = lambda s, i: correlation(psi, s, i)
    return e(a, b) - e(a, b_prime) + e(a_prime, b) + e(a_prime, b_prime)


def plane_tensor(psi: np.ndarray) -> np.ndarray:
    """Correlation tensor over (sigma_z, sigma_x) for signal and idler."""
    v = psi.reshape(4)
    ops = (_SIGMA_Z, _SIGMA_X)
    return np.array(
        [[float(np.real(np.conj(v) @ np.kron(si, sj) @ v)) for sj in ops] for si in ops]
    )


def chsh_max(psi: np.ndarray) -> float:
    """Horodecki maximum 2 sqrt(t1^2 + t2^2) over linear analyzers."""
    t1, t2 = np.linalg.svd(plane_tensor(psi), compute_uv=False)
    return 2.0 * math.sqrt(t1 * t1 + t2 * t2)


def qbers(psi: np.ndarray, flips: tuple[bool, bool], bases=(0.0, 45.0)) -> tuple[float, float]:
    """Error rate per matched basis after one party inverts flagged bases.

    Without a flip an error is a disagreement (tr or rt); with one it is an
    agreement (tt or rr).
    """
    out = []
    for theta, flip in zip(bases, flips):
        agree = float(coincidence(psi, theta, theta) + coincidence(psi, theta + 90.0, theta + 90.0))
        disagree = float(coincidence(psi, theta, theta + 90.0) + coincidence(psi, theta + 90.0, theta))
        out.append((agree if flip else disagree) / (agree + disagree))
    return out[0], out[1]


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def secret_fraction(q_rect: float, q_diag: float) -> float:
    """Asymptotic two-basis bound max(0, 1 - h(q_rect) - h(q_diag))."""
    return max(0.0, 1.0 - binary_entropy(q_rect) - binary_entropy(q_diag))


def gaussian_rate(profile: dict, lambda_nm: float) -> float:
    """Rate of a profile given as {center_nm, fwhm_nm, peak_cps} (config schema)."""
    x = (lambda_nm - profile["center_nm"]) / profile["fwhm_nm"]
    return profile["peak_cps"] * 2.0 ** (-4.0 * x * x)


def channel_table(source: dict) -> list[tuple[float, float]]:
    """(signal wavelength, f) per channel of a Gaussian-profile source section.

    The grid is uniform with both edges included; f = sqrt(rate_VH / rate_HV)
    (the 'ratio_as_f' reading).
    """
    lo, hi, n = source["lambda_min_nm"], source["lambda_max_nm"], source["n_channels"]
    rows = []
    for k in range(n):
        lam = lo + (hi - lo) * k / (n - 1) if n > 1 else lo
        f = math.sqrt(gaussian_rate(source["vh_profile"], lam) / gaussian_rate(source["hv_profile"], lam))
        rows.append((lam, f))
    return rows


def circular_difference(theta: float, reference: float) -> float:
    """theta - reference on the 180-deg circle, in (-90, 90]."""
    d = (theta - reference) % 180.0
    return d - 180.0 if d > 90.0 else d
