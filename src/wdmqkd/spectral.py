"""Wavelength structure of the pair source.

Signal and idler wavelengths are tied by energy conservation against the
pump, 1/lambda_s + 1/lambda_i = 1/lambda_p.  The two cross-polarized
emission terms have wavelength-dependent rates, modeled either by Gaussian
spectral profiles or by a tabulated spectrum; the rate ratio at a given
signal wavelength fixes the per-channel amplitude ratio of the two-photon
state.

All wavelengths are vacuum nanometers.  The idler and rate functions take
a float or an array of signal wavelengths, so a channel grid is evaluated
in one array pass; a float may come back as a numpy float64.  A non-finite
wavelength, rate or phase raises ValueError naming it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .biphoton import BiphotonPureState

__all__ = [
    "DEFAULT_PUMP_NM",
    "DEFAULT_CHANNEL_RANGE_NM",
    "DEFAULT_CHANNEL_COUNT",
    "RATIO_CONVENTIONS",
    "SpectralProfile",
    "SpectralChannel",
    "TabulatedSpectrum",
    "idler_wavelength",
    "default_profiles",
    "build_channels",
    "build_channels_from_table",
    "estimate_f",
    "channel_state",
]

# Pump at the second harmonic of the degenerate pair wavelength 859.4 nm.
DEFAULT_PUMP_NM = 429.7

# How a measured HV/VH rate ratio is read back into the state parameter:
# 'ratio_as_f' takes f = sqrt(rate_VH / rate_HV) (term weights as modeled),
# 'ratio_as_inverse_f' takes the reciprocal (swapped term labeling).
RATIO_CONVENTIONS = ("ratio_as_f", "ratio_as_inverse_f")

DEFAULT_CHANNEL_RANGE_NM = (860.0, 874.0)
DEFAULT_CHANNEL_COUNT = 8

# Largest channel count a table is built for.  Every channel is a Python
# object, and the commands write up to eight files for each one, so a count
# this large is already a mistake; 1e5 channels over the default 14 nm span
# are 0.14 pm apart, far finer than any filter that could separate them.
MAX_CHANNELS = 100_000

_DEFAULT_FWHM_NM = 8.0
_DEFAULT_PEAK_CPS = 1000.0
_BALANCED_NM = 870.0  # rates equal here
_TRIPLE_RATIO_NM = 866.0  # rate_HV / rate_VH = 3 here
# The log-ratio of two equal-width, equal-peak Gaussians is linear in
# wavelength, so a symmetric center split about the balance point is solved
# from the single ratio condition at 866 nm.
_CENTER_SPLIT_NM = (
    _DEFAULT_FWHM_NM**2
    * math.log(3.0)
    / (8.0 * math.log(2.0) * (_BALANCED_NM - _TRIPLE_RATIO_NM))
)


def _finite(values, name: str) -> np.ndarray:
    """values as an array; ValueError naming it if any value is not finite."""
    array = np.asarray(values)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {array[~np.isfinite(array)][0]}")
    return array


@dataclass(frozen=True)
class SpectralProfile:
    """Gaussian emission-rate profile.

    Attributes:
        center: Center wavelength, nm.
        width: Full width at half maximum, nm.
        peak: Rate at the center, counts/s.
    """

    center: float
    width: float
    peak: float

    def __post_init__(self) -> None:
        for name in ("center", "width", "peak"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"profile {name} must be finite, got {getattr(self, name)}")
        if self.width <= 0.0:
            raise ValueError(f"profile width must be > 0, got {self.width}")
        if self.peak < 0.0:
            raise ValueError(f"profile peak must be >= 0, got {self.peak}")

    def rate(self, lambda_nm):
        """Rate at the given wavelength (a float or an array), counts/s."""
        x = (_finite(lambda_nm, "lambda_nm") - self.center) / self.width
        return self.peak * np.exp(-4.0 * math.log(2.0) * x * x)


@dataclass(frozen=True)
class SpectralChannel:
    """One narrow wavelength channel of the source.

    Attributes:
        lambda_signal: Signal wavelength, nm (the channel key).
        lambda_idler: Energy-matched idler wavelength, nm.
        rate_HV: Rate of the H-signal / V-idler term, counts/s.
        rate_VH: Rate of the V-signal / H-idler term, counts/s.  Both rates
            may be zero (a dark channel, e.g. far outside both bands); such
            a channel has no state.
        alpha: Relative phase of the channel state, radians.

    Every field must be finite.
    """

    lambda_signal: float
    lambda_idler: float
    rate_HV: float
    rate_VH: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lambda_signal", "lambda_idler", "rate_HV", "rate_VH", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"channel {name} must be finite, got {getattr(self, name)}")
        if self.lambda_signal <= 0.0 or self.lambda_idler <= 0.0:
            raise ValueError("channel wavelengths must be positive")
        if self.rate_HV < 0.0 or self.rate_VH < 0.0:
            raise ValueError("channel rates must be >= 0")


def idler_wavelength(lambda_signal, pump_nm: float = DEFAULT_PUMP_NM):
    """Idler wavelength paired with a signal wavelength by energy conservation.

    Args:
        lambda_signal: Signal wavelength, nm, a float or an array; every
            value must be finite and exceed the pump wavelength so the idler
            carries positive energy.
        pump_nm: Pump wavelength, nm; finite and > 0.

    Returns:
        lambda_idler = 1 / (1/pump_nm - 1/lambda_signal), nm, shaped as lambda_signal.
    """
    if not 0.0 < pump_nm < math.inf:
        raise ValueError(f"pump_nm must be finite and > 0, got {pump_nm}")
    lam = _finite(lambda_signal, "lambda_signal")
    if (lam <= pump_nm).any():
        raise ValueError(
            f"signal wavelength {lam.min()} nm must exceed the pump wavelength {pump_nm} nm"
        )
    return 1.0 / (1.0 / pump_nm - 1.0 / lam)


def default_profiles() -> tuple[SpectralProfile, SpectralProfile]:
    """Default HV and VH rate profiles.

    Equal-peak (1000 counts/s) 8-nm-FWHM Gaussians whose centers straddle
    870 nm so the HV/VH ratio is exactly 3 at 866 nm and exactly 1 at 870 nm.
    """
    hv = SpectralProfile(_BALANCED_NM - _CENTER_SPLIT_NM / 2.0, _DEFAULT_FWHM_NM, _DEFAULT_PEAK_CPS)
    vh = SpectralProfile(_BALANCED_NM + _CENTER_SPLIT_NM / 2.0, _DEFAULT_FWHM_NM, _DEFAULT_PEAK_CPS)
    return hv, vh


def _build(rates, alpha, lambda_range, n_channels, pump_nm) -> tuple[SpectralChannel, ...]:
    """Channels on the uniform grid, rates(lambda_nm) giving the (rate_HV, rate_VH) columns."""
    lo, hi = lambda_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"lambda_range must be finite, got ({lo}, {hi})")
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if n_channels > MAX_CHANNELS:
        raise ValueError(f"n_channels must be <= {MAX_CHANNELS}, got {n_channels}")
    if lo > hi:
        raise ValueError(f"invalid wavelength range ({lo}, {hi})")
    lam = np.linspace(lo, hi, n_channels)
    columns = (lam, idler_wavelength(lam, pump_nm), *rates(lam))
    return tuple(SpectralChannel(*row, alpha) for row in zip(*(c.tolist() for c in columns)))


def build_channels(
    hv: SpectralProfile,
    vh: SpectralProfile,
    alpha: float = 0.0,
    lambda_range: tuple[float, float] = DEFAULT_CHANNEL_RANGE_NM,
    n_channels: int = DEFAULT_CHANNEL_COUNT,
    pump_nm: float = DEFAULT_PUMP_NM,
) -> tuple[SpectralChannel, ...]:
    """Build channels on a uniform signal-wavelength grid from rate profiles.

    Args:
        hv: Profile of the H-signal / V-idler rate.
        vh: Profile of the V-signal / H-idler rate.
        alpha: Relative phase shared by all channels, radians.
        lambda_range: (min, max) signal wavelength in nm, both included.
            With n_channels = 1 the grid is the single point lambda_range[0].
        n_channels: Number of channels, in [1, MAX_CHANNELS].
        pump_nm: Pump wavelength for the idler pairing, nm.
    """
    return _build(lambda lam: (hv.rate(lam), vh.rate(lam)), alpha, lambda_range, n_channels, pump_nm)


class TabulatedSpectrum:
    """Measured HV/VH rates on a wavelength grid, linearly interpolated.

    Built from a CSV file with header ``lambda_nm,rate_hv,rate_vh``.  Rows
    are sorted by wavelength; queries outside the tabulated range clamp to
    the edge values, and a non-finite query raises ValueError.
    """

    def __init__(self, lambda_nm, rate_hv, rate_vh) -> None:
        lam = np.asarray(lambda_nm, dtype=float)
        hv = np.asarray(rate_hv, dtype=float)
        vh = np.asarray(rate_vh, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("tabulated spectrum needs at least two rows")
        if lam.shape != hv.shape or lam.shape != vh.shape:
            raise ValueError("tabulated spectrum columns differ in length")
        for name, column in (("lambda_nm", lam), ("rate_hv", hv), ("rate_vh", vh)):
            if not np.isfinite(column).all():
                raise ValueError(f"tabulated {name} values must be finite")
        order = np.argsort(lam)
        lam = lam[order]
        if np.any(np.diff(lam) <= 0.0):
            raise ValueError("tabulated wavelengths must be distinct")
        if np.any(hv < 0.0) or np.any(vh < 0.0):
            raise ValueError("tabulated rates must be >= 0")
        self._lambda = lam
        self._hv = hv[order]
        self._vh = vh[order]

    @classmethod
    def from_csv(cls, path) -> "TabulatedSpectrum":
        # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" export writes
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["lambda_nm", "rate_hv", "rate_vh"]:
                raise ValueError(
                    f"{path}: expected header 'lambda_nm,rate_hv,rate_vh', got {header}"
                )
            rows = [row for row in reader if row]
        try:
            data = [(float(lam), float(hv), float(vh)) for lam, hv, vh in rows]
        except ValueError as exc:  # a field that is not a number, or not three fields
            raise ValueError(f"{path}: malformed spectrum row: {exc}") from None
        if not data:
            raise ValueError(f"{path}: spectrum file has no data rows")
        lam, hv, vh = zip(*data)
        return cls(lam, hv, vh)

    def rate_hv(self, lambda_nm):
        return np.interp(_finite(lambda_nm, "lambda_nm"), self._lambda, self._hv)

    def rate_vh(self, lambda_nm):
        return np.interp(_finite(lambda_nm, "lambda_nm"), self._lambda, self._vh)


def build_channels_from_table(
    table: TabulatedSpectrum,
    alpha: float = 0.0,
    lambda_range: tuple[float, float] = DEFAULT_CHANNEL_RANGE_NM,
    n_channels: int = DEFAULT_CHANNEL_COUNT,
    pump_nm: float = DEFAULT_PUMP_NM,
) -> tuple[SpectralChannel, ...]:
    """Build channels on a uniform grid from a tabulated spectrum."""
    return _build(lambda lam: (table.rate_hv(lam), table.rate_vh(lam)), alpha, lambda_range, n_channels, pump_nm)


def estimate_f(rate_HV: float, rate_VH: float) -> tuple[float, float]:
    """Estimate the amplitude ratio from the two cross-polarized rates.

    The |H>_s|V>_i term carries weight 1 and the |V>_s|H>_i term weight f^2,
    so f_hat = sqrt(rate_VH / rate_HV).  Because the measured ratio does not
    fix which term is which, the reciprocal reading f_hat_inverse is returned
    alongside.  One zero rate makes one reading infinite; a dark channel
    (both rates zero) has no ratio, so both readings are NaN.

    Returns:
        (f_hat, f_hat_inverse), one reading per RATIO_CONVENTIONS entry, in that order.

    Raises:
        ValueError: If a rate is negative or not finite.
    """
    if not (0.0 <= rate_HV < math.inf and 0.0 <= rate_VH < math.inf):
        raise ValueError(f"rates must be finite and >= 0, got (rate_HV={rate_HV}, rate_VH={rate_VH})")
    if rate_HV == rate_VH == 0.0:
        return math.nan, math.nan
    f_hat = math.sqrt(rate_VH / rate_HV) if rate_HV > 0.0 else math.inf
    f_inv = math.sqrt(rate_HV / rate_VH) if rate_VH > 0.0 else math.inf
    return f_hat, f_inv


def channel_state(
    channel: SpectralChannel, convention: str = "ratio_as_f"
) -> BiphotonPureState:
    """Two-photon state of one channel under the chosen ratio convention.

    Args:
        channel: Spectral channel with its two term rates.
        convention: 'ratio_as_f' takes estimate_f's f_hat = sqrt(rate_VH / rate_HV),
            'ratio_as_inverse_f' its f_hat_inverse.

    Raises:
        ValueError: For an unknown convention, a dark channel (both rates
            zero), or when the chosen reading is infinite (the zero-rate side
            would need a label swap).
    """
    if convention not in RATIO_CONVENTIONS:
        raise ValueError(
            f"unknown ratio convention {convention!r}, expected one of {RATIO_CONVENTIONS}"
        )
    f = estimate_f(channel.rate_HV, channel.rate_VH)[RATIO_CONVENTIONS.index(convention)]
    if math.isnan(f):  # a dark channel
        raise ValueError(
            f"channel at {channel.lambda_signal!r} nm has zero rate in both bands; "
            "its amplitude ratio is undefined"
        )
    if math.isinf(f):  # a zero rate under the root, or a ratio that overflows (subnormal rate)
        raise ValueError(
            f"amplitude ratio is infinite under {convention}; "
            "swap the term labeling (use the other convention)"
        )
    return BiphotonPureState(f, channel.alpha)
