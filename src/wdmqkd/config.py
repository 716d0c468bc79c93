"""Run configuration: a documented JSON key set with strict validation.

A config file holds a master seed, an output directory, and four sections
(source, detection, fit, qkd).  The master seed is stored only as the seed
of the detection and qkd sections, which RunConfig requires to be equal;
``RunConfig.seed`` reads it back.  Every key is optional and defaults are
filled in; unknown or duplicate keys are rejected with their dotted path so
typos fail loudly instead of silently running defaults.  Angles and
wavelengths in the file are degrees and nanometers.  Retired keys load, so
existing configs and echoes still do, but are never kept or echoed:
fit.period_deg may only be 180 (``scanfit.PERIOD_DEG``), and
qkd.flip_rectilinear and qkd.flip_diagonal must be bools, as each channel's
state sets its flips.  ``source_state`` alone decides, by the source kind,
the state a channel emits.

Each section but fit is one key table, file key -> (attribute, type), read
by ``_section``: unknown keys are rejected, each value is read typed and
finite-checked, and a missing key keeps the attribute of the section's
default object, whose class then checks the ranges, so a section built in
code is checked as a loaded one is.  The reader's own faults name the dotted
key; the class's errors get the prefix ``section '<path>': `` unless they
are ConfigErrors, which name their key (every SourceConfig error).  The echo
(``config_to_dict``, written next to every command's outputs) is built from
the same tables, and loading it reproduces the RunConfig exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .biphoton import PairState, ProductState
from .detection import DetectionConfig
from .qkd import ProtocolConfig
from .scanfit import PERIOD_DEG
from .spectral import (
    DEFAULT_CHANNEL_COUNT,
    DEFAULT_CHANNEL_RANGE_NM,
    DEFAULT_PUMP_NM,
    MAX_CHANNELS,
    RATIO_CONVENTIONS,
    SpectralChannel,
    SpectralProfile,
    TabulatedSpectrum,
    build_channels,
    channel_state,
    default_profiles,
)

__all__ = [
    "ConfigError",
    "SourceConfig",
    "RunConfig",
    "load_config",
    "loads_config",
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

    def __post_init__(self) -> None:
        for key, attr, kind in _rows(_SOURCE_KEYS):  # the loader's type and finiteness checks
            kind = SpectralProfile if isinstance(kind, dict) else kind
            object.__setattr__(self, attr, _get({key: getattr(self, attr)}, key, None, kind, "source."))
        for name, choices in (("kind", SOURCE_KINDS), ("f_convention", RATIO_CONVENTIONS)):
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"key 'source.{name}' must be one of {choices}, got {value!r}")
        pump_nm, lo, hi = self.pump_nm, self.lambda_min_nm, self.lambda_max_nm
        if pump_nm <= 0.0:
            raise ConfigError(f"key 'source.pump_nm' must be > 0, got {pump_nm}")
        if not lo <= hi:
            raise ConfigError(
                f"key 'source.lambda_min_nm' ({lo}) must not exceed 'source.lambda_max_nm' ({hi})"
            )
        if lo <= pump_nm:
            raise ConfigError(
                f"key 'source.lambda_min_nm' ({lo}) must exceed the pump wavelength ({pump_nm})"
            )
        if self.n_channels < 1:
            raise ConfigError(f"key 'source.n_channels' must be >= 1, got {self.n_channels}")
        if self.n_channels > MAX_CHANNELS:
            raise ConfigError(f"key 'source.n_channels' must be <= {MAX_CHANNELS}, got {self.n_channels}")


# Key tables, one per section: file key -> (attribute, type), or just the
# type when the attribute has the key's name.  A table as the type is a
# nested section; str | None is a path or null.
_PROFILE_KEYS = {
    "center_nm": ("center", float),
    "fwhm_nm": ("width", float),
    "peak_cps": ("peak", float),
}
_SOURCE_KEYS = {
    "kind": str,
    "pump_nm": float,
    "alpha_deg": float,
    "f_convention": str,
    "lambda_min_nm": float,
    "lambda_max_nm": float,
    "n_channels": int,
    "hv_profile": _PROFILE_KEYS,
    "vh_profile": _PROFILE_KEYS,
    "spectrum_csv": str | None,
}
_DETECTION_KEYS = {
    "pair_rate_cps": ("pair_rate", float),
    "efficiency_signal": float,
    "efficiency_idler": float,
    "accidental_rate_cps": ("accidental_rate", float),
    "integration_time_s": ("integration_time", float),
}
# Attribute None: a retired key, still type-checked so old configs load, never kept or echoed.
_QKD_KEYS = {"n_pairs": int, "flip_rectilinear": (None, bool), "flip_diagonal": (None, bool)}


def _rows(keys: dict):
    """(file key, attribute, type) of each row of a key table."""
    for key, row in keys.items():
        yield (key, *row) if isinstance(row, tuple) else (key, key, row)


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}' (allowed: {', '.join(allowed)})")


def _get(section: dict, key: str, default, kind, path: str):
    value = section.get(key, default)
    if kind == str | None:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"key '{path}{key}' must be a path string or null, got {value!r}")
        return value
    is_bool = isinstance(value, bool)  # bool subclasses int, but is never a number here
    if kind is float and isinstance(value, int) and not is_bool:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"key '{path}{key}' must be finite, got an integer beyond the float range") from None
    if not isinstance(value, kind) or (is_bool and kind is not bool):
        raise ConfigError(f"key '{path}{key}' must be of type {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key '{path}{key}' must be finite, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    out_dir: str = "out"
    source: SourceConfig = SourceConfig()
    detection: DetectionConfig = DetectionConfig()
    qkd: ProtocolConfig = ProtocolConfig()

    def __post_init__(self) -> None:
        if self.detection.seed != self.qkd.seed:
            raise ConfigError(
                f"detection.seed ({self.detection.seed}) and qkd.seed ({self.qkd.seed}) differ;"
                " both must carry the one master seed"
            )

    @property
    def seed(self) -> int:
        """The master seed; the detection and qkd sections carry it."""
        return self.detection.seed


def _read(section: dict, keys: dict, default, path: str) -> dict:
    """Attribute -> value of every row; a missing key keeps default's value."""
    values = {}
    for key, attr, kind in _rows(keys):
        if isinstance(kind, dict):  # a nested section
            values[attr] = _section(section, key, kind, getattr(default, attr), path)
        elif attr is None:  # a retired key, only type-checked (kind() when missing)
            _get(section, key, kind(), kind, path)
        else:
            values[attr] = _get(section, key, getattr(default, attr), kind, path)
    return values


def _section(parent: dict, key: str, keys: dict, default, path: str = ""):
    """default with the section parent[key] read over it; its class validates the values.

    A ValueError of the class that is not a ConfigError (which names its key)
    is prefixed with the section's name.
    """
    section, path = _get(parent, key, {}, dict, path), f"{path}{key}."
    _reject_unknown(section, keys, path)
    values = _read(section, keys, default, path)
    try:
        return replace(default, **values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"section '{path.rstrip('.')}': {exc}") from None


def _check_fit(section: dict, path: str = "fit.") -> None:
    _reject_unknown(section, ("period_deg",), path)
    period = _get(section, "period_deg", PERIOD_DEG, float, path)
    if period != PERIOD_DEG:
        raise ConfigError(f"key '{path}period_deg' must be 180, got {period}")


def _build_run_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    allowed = ("seed", "out_dir", "source", "detection", "fit", "qkd")
    _reject_unknown(raw, allowed, "")
    default = RunConfig()
    seed = _get(raw, "seed", default.seed, int, "")
    if seed < 0:
        raise ConfigError(f"key 'seed' must be >= 0, got {seed}")
    out_dir = _get(raw, "out_dir", default.out_dir, str, "")
    source = _section(raw, "source", _SOURCE_KEYS, default.source)
    detection = _section(raw, "detection", _DETECTION_KEYS, DetectionConfig(seed=seed))
    _check_fit(_get(raw, "fit", {}, dict, ""))  # retired: checked in its place, never kept
    return RunConfig(out_dir, source, detection, _section(raw, "qkd", _QKD_KEYS, ProtocolConfig(seed=seed)))


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
    except ConfigError:  # a duplicate key, already named
        raise
    except ValueError as exc:  # e.g. an integer beyond the int-string conversion limit
        raise ConfigError(f"{name}: {exc}") from None
    return _build_run_config(raw)


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file.

    Raises:
        ConfigError: On malformed JSON (with line/column), a JSON value
            the parser rejects (e.g. an integer beyond Python's int-string
            conversion limit, with the file name), unknown or duplicate
            keys (with the dotted key path), or out-of-range values.
        OSError: When the file cannot be read.
    """
    text = Path(path).read_text()
    return loads_config(text, name=str(path))


def _echo(obj, keys: dict) -> dict:
    return {
        key: _echo(getattr(obj, attr), kind) if isinstance(kind, dict) else getattr(obj, attr)
        for key, attr, kind in _rows(keys)
        if attr is not None
    }


def config_to_dict(cfg: RunConfig) -> dict:
    """Resolved configuration in the file schema (the echo written by commands)."""
    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "source": _echo(cfg.source, _SOURCE_KEYS),
        "detection": _echo(cfg.detection, _DETECTION_KEYS),
        "qkd": _echo(cfg.qkd, _QKD_KEYS),
    }


def source_channels(source: SourceConfig) -> tuple[SpectralChannel, ...]:
    """Build the channel table a source section describes."""
    grid = dict(
        alpha=math.radians(source.alpha_deg),
        lambda_range=(source.lambda_min_nm, source.lambda_max_nm),
        n_channels=source.n_channels,
        pump_nm=source.pump_nm,
    )
    if source.spectrum_csv is not None:
        table = TabulatedSpectrum.from_csv(source.spectrum_csv)
        rates = (table.rate_hv, table.rate_vh)
    else:
        rates = (source.hv_profile.rate, source.vh_profile.rate)
    return build_channels(*rates, **grid)


def source_state(source: SourceConfig, channel: SpectralChannel) -> PairState:
    """The state a channel emits: the +45 product state on a lit channel of a product source,
    else ``channel_state`` under the source's convention, which rejects a dark channel of either kind."""
    if source.kind == "product" and (channel.rate_HV > 0.0 or channel.rate_VH > 0.0):
        return ProductState()
    return channel_state(channel, source.f_convention)
