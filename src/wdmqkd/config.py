"""Run configuration: a documented JSON key set with strict validation.

A config file holds a master seed, an output directory, and four sections
(source, detection, fit, qkd).  Every key is optional and defaults are
filled in; unknown or duplicate keys are rejected with their dotted path so
typos fail loudly instead of silently running defaults.  Angles and
wavelengths in the file are degrees and nanometers.

The fully resolved configuration can be dumped back to the same schema
(``config_to_dict``); commands write that echo next to their outputs, and
loading the echo reproduces the RunConfig exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .detection import DetectionConfig
from .qkd import MAX_PAIRS, ProtocolConfig
from .spectral import (
    DEFAULT_CHANNEL_COUNT,
    DEFAULT_CHANNEL_RANGE_NM,
    DEFAULT_PUMP_NM,
    RATIO_CONVENTIONS,
    PumpConfig,
    SpectralChannel,
    SpectralProfile,
    TabulatedSpectrum,
    build_channels,
    build_channels_from_table,
    default_profiles,
)

__all__ = [
    "ConfigError",
    "SourceConfig",
    "RunConfig",
    "load_config",
    "loads_config",
    "default_run_config",
    "config_to_dict",
    "source_channels",
]

SOURCE_KINDS = ("entangled", "product")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class SourceConfig:
    """Source section: what the pair source emits.

    Attributes:
        kind: 'entangled' for the two-term superposition source, 'product'
            for the separable +45 baseline.
        pump_nm: Pump wavelength, nm.
        alpha_deg: Relative phase of the emitted state, degrees.
        f_convention: How per-channel rate ratios map to the amplitude
            ratio; one of RATIO_CONVENTIONS.
        lambda_min_nm: Lower edge of the signal-wavelength grid, nm.
        lambda_max_nm: Upper edge, nm.
        n_channels: Number of channels on the uniform grid.
        hv_profile: Gaussian profile of the H-signal/V-idler rate.
        vh_profile: Gaussian profile of the V-signal/H-idler rate.
        spectrum_csv: Optional path to a tabulated spectrum; when set it
            replaces the two profiles.
    """

    kind: str = "entangled"
    pump_nm: float = DEFAULT_PUMP_NM
    alpha_deg: float = 0.0
    f_convention: str = "ratio_as_f"
    lambda_min_nm: float = DEFAULT_CHANNEL_RANGE_NM[0]
    lambda_max_nm: float = DEFAULT_CHANNEL_RANGE_NM[1]
    n_channels: int = DEFAULT_CHANNEL_COUNT
    hv_profile: SpectralProfile = default_profiles()[0]
    vh_profile: SpectralProfile = default_profiles()[1]
    spectrum_csv: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    seed: int = 0
    out_dir: str = "out"
    source: SourceConfig = SourceConfig()
    detection: DetectionConfig = DetectionConfig()
    fit_period: float = 180.0
    qkd: ProtocolConfig = ProtocolConfig()


def _reject_unknown(section: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{path}{key}' (allowed: {', '.join(allowed)})"
            )


def _get(section: dict, key: str, default, kind, path: str):
    value = section.get(key, default)
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"key '{path}{key}' must be of type {kind.__name__}, got {value!r}")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(
            f"key '{path}{key}' must be of type {kind.__name__}, got {value!r}"
        )
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key '{path}{key}' must be finite, got {value}")
    return value


def _parse_profile(section: dict, path: str, default: SpectralProfile) -> SpectralProfile:
    _reject_unknown(section, ("center_nm", "fwhm_nm", "peak_cps"), path)
    try:
        return SpectralProfile(
            center=_get(section, "center_nm", default.center, float, path),
            width=_get(section, "fwhm_nm", default.width, float, path),
            peak=_get(section, "peak_cps", default.peak, float, path),
        )
    except ValueError as exc:
        raise ConfigError(f"section '{path.rstrip('.')}': {exc}") from None


def _parse_source(section: dict, path: str = "source.") -> SourceConfig:
    allowed = (
        "kind",
        "pump_nm",
        "alpha_deg",
        "f_convention",
        "lambda_min_nm",
        "lambda_max_nm",
        "n_channels",
        "hv_profile",
        "vh_profile",
        "spectrum_csv",
    )
    _reject_unknown(section, allowed, path)
    kind = _get(section, "kind", "entangled", str, path)
    if kind not in SOURCE_KINDS:
        raise ConfigError(f"key '{path}kind' must be one of {SOURCE_KINDS}, got {kind!r}")
    convention = _get(section, "f_convention", "ratio_as_f", str, path)
    if convention not in RATIO_CONVENTIONS:
        raise ConfigError(
            f"key '{path}f_convention' must be one of {RATIO_CONVENTIONS}, got {convention!r}"
        )
    pump_nm = _get(section, "pump_nm", DEFAULT_PUMP_NM, float, path)
    if pump_nm <= 0.0:
        raise ConfigError(f"key '{path}pump_nm' must be > 0, got {pump_nm}")
    lo = _get(section, "lambda_min_nm", DEFAULT_CHANNEL_RANGE_NM[0], float, path)
    hi = _get(section, "lambda_max_nm", DEFAULT_CHANNEL_RANGE_NM[1], float, path)
    if not lo <= hi:
        raise ConfigError(
            f"key '{path}lambda_min_nm' ({lo}) must not exceed '{path}lambda_max_nm' ({hi})"
        )
    if lo <= pump_nm:
        raise ConfigError(
            f"key '{path}lambda_min_nm' ({lo}) must exceed the pump wavelength ({pump_nm})"
        )
    n_channels = _get(section, "n_channels", DEFAULT_CHANNEL_COUNT, int, path)
    if n_channels < 1:
        raise ConfigError(f"key '{path}n_channels' must be >= 1, got {n_channels}")
    spectrum_csv = section.get("spectrum_csv", None)
    if spectrum_csv is not None and not isinstance(spectrum_csv, str):
        raise ConfigError(
            f"key '{path}spectrum_csv' must be a path string or null, got {spectrum_csv!r}"
        )
    hv_default, vh_default = default_profiles()
    hv = _parse_profile(_get(section, "hv_profile", {}, dict, path), path + "hv_profile.", hv_default)
    vh = _parse_profile(_get(section, "vh_profile", {}, dict, path), path + "vh_profile.", vh_default)
    return SourceConfig(
        kind=kind,
        pump_nm=pump_nm,
        alpha_deg=_get(section, "alpha_deg", 0.0, float, path),
        f_convention=convention,
        lambda_min_nm=lo,
        lambda_max_nm=hi,
        n_channels=n_channels,
        hv_profile=hv,
        vh_profile=vh,
        spectrum_csv=spectrum_csv,
    )


def _parse_detection(section: dict, seed: int, path: str = "detection.") -> DetectionConfig:
    allowed = (
        "pair_rate_cps",
        "efficiency_signal",
        "efficiency_idler",
        "accidental_rate_cps",
        "integration_time_s",
    )
    _reject_unknown(section, allowed, path)
    try:
        return DetectionConfig(
            pair_rate=_get(section, "pair_rate_cps", 2000.0, float, path),
            efficiency_signal=_get(section, "efficiency_signal", 1.0, float, path),
            efficiency_idler=_get(section, "efficiency_idler", 1.0, float, path),
            accidental_rate=_get(section, "accidental_rate_cps", 0.0, float, path),
            integration_time=_get(section, "integration_time_s", 1.0, float, path),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"section 'detection': {exc}") from None


def _parse_qkd(section: dict, seed: int, path: str = "qkd.") -> ProtocolConfig:
    allowed = ("n_pairs", "flip_rectilinear", "flip_diagonal")
    _reject_unknown(section, allowed, path)
    n_pairs = _get(section, "n_pairs", 100_000, int, path)
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ConfigError(
            f"section 'qkd': key '{path}n_pairs' must be in [1, 2**63 - 1], got {n_pairs}"
        )
    try:
        return ProtocolConfig(
            n_pairs=n_pairs,
            flip_rectilinear=_get(section, "flip_rectilinear", True, bool, path),
            flip_diagonal=_get(section, "flip_diagonal", False, bool, path),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"section 'qkd': {exc}") from None


def _parse_fit(section: dict, path: str = "fit.") -> float:
    _reject_unknown(section, ("period_deg",), path)
    period = _get(section, "period_deg", 180.0, float, path)
    if period not in (180.0, 360.0):
        raise ConfigError(f"key '{path}period_deg' must be 180 or 360, got {period}")
    return period


def _build_run_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    allowed = ("seed", "out_dir", "source", "detection", "fit", "qkd")
    _reject_unknown(raw, allowed, "")
    seed = _get(raw, "seed", 0, int, "")
    if seed < 0:
        raise ConfigError(f"key 'seed' must be >= 0, got {seed}")
    out_dir = _get(raw, "out_dir", "out", str, "")
    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        source=_parse_source(_get(raw, "source", {}, dict, "")),
        detection=_parse_detection(_get(raw, "detection", {}, dict, ""), seed),
        fit_period=_parse_fit(_get(raw, "fit", {}, dict, "")),
        qkd=_parse_qkd(_get(raw, "qkd", {}, dict, ""), seed),
    )


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key '{key}' in config")
        seen[key] = value
    return seen


def loads_config(text: str, name: str = "<config>") -> RunConfig:
    """Parse config JSON text; see load_config."""
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return _build_run_config(raw)


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file.

    Raises:
        ConfigError: On malformed JSON (with line/column), unknown or
            duplicate keys (with the dotted key path), or out-of-range values.
        OSError: When the file cannot be read.
    """
    text = Path(path).read_text()
    return loads_config(text, name=str(path))


def default_run_config(seed: int = 0, out_dir: str = "out") -> RunConfig:
    """RunConfig with every key at its default."""
    return _build_run_config({"seed": seed, "out_dir": out_dir})


def config_to_dict(cfg: RunConfig) -> dict:
    """Resolved configuration in the file schema (the echo written by commands)."""
    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "source": {
            "kind": cfg.source.kind,
            "pump_nm": cfg.source.pump_nm,
            "alpha_deg": cfg.source.alpha_deg,
            "f_convention": cfg.source.f_convention,
            "lambda_min_nm": cfg.source.lambda_min_nm,
            "lambda_max_nm": cfg.source.lambda_max_nm,
            "n_channels": cfg.source.n_channels,
            "hv_profile": {
                "center_nm": cfg.source.hv_profile.center,
                "fwhm_nm": cfg.source.hv_profile.width,
                "peak_cps": cfg.source.hv_profile.peak,
            },
            "vh_profile": {
                "center_nm": cfg.source.vh_profile.center,
                "fwhm_nm": cfg.source.vh_profile.width,
                "peak_cps": cfg.source.vh_profile.peak,
            },
            "spectrum_csv": cfg.source.spectrum_csv,
        },
        "detection": {
            "pair_rate_cps": cfg.detection.pair_rate,
            "efficiency_signal": cfg.detection.efficiency_signal,
            "efficiency_idler": cfg.detection.efficiency_idler,
            "accidental_rate_cps": cfg.detection.accidental_rate,
            "integration_time_s": cfg.detection.integration_time,
        },
        "fit": {"period_deg": cfg.fit_period},
        "qkd": {
            "n_pairs": cfg.qkd.n_pairs,
            "flip_rectilinear": cfg.qkd.flip_rectilinear,
            "flip_diagonal": cfg.qkd.flip_diagonal,
        },
    }


def source_channels(source: SourceConfig) -> tuple[SpectralChannel, ...]:
    """Build the channel table a source section describes."""
    pump = PumpConfig(source.pump_nm)
    alpha = math.radians(source.alpha_deg)
    lam_range = (source.lambda_min_nm, source.lambda_max_nm)
    if source.spectrum_csv is not None:
        table = TabulatedSpectrum.from_csv(source.spectrum_csv)
        return build_channels_from_table(
            table, alpha=alpha, lambda_range=lam_range,
            n_channels=source.n_channels, pump=pump,
        )
    return build_channels(
        source.hv_profile, source.vh_profile, alpha=alpha,
        lambda_range=lam_range, n_channels=source.n_channels, pump=pump,
    )
