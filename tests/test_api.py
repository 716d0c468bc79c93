"""Package surface: the re-exported names and the rejection of non-finite inputs."""

import importlib
import math
import pkgutil
import types

import numpy as np
import pytest

import wdmqkd
from wdmqkd import (
    BiphotonPureState,
    DetectionConfig,
    ProtocolConfig,
    ScanData,
    SourceConfig,
    SpectralChannel,
    TabulatedSpectrum,
    angle_stream_key,
    build_channels,
    default_profiles,
    derive_stream,
    estimate_f,
    idler_wavelength,
    loads_config,
    run_bbm92,
    shift_table,
    signed_angle_difference,
    simulate_scans,
)

NAN, INF = math.nan, math.inf
TABLE = TabulatedSpectrum([860.0, 874.0], [1.0, 2.0], [2.0, 1.0])


def test_package_reexports_every_public_name():
    # cli is the command-line front end, not part of the library surface
    modules = [m.name for m in pkgutil.iter_modules(wdmqkd.__path__) if m.name != "cli"]
    declared = set().union(*(importlib.import_module(f"wdmqkd.{m}").__all__ for m in modules))
    exported = {
        name
        for name, value in vars(wdmqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: idler_wavelength(NAN), "lambda_signal"),
        (lambda: idler_wavelength(INF), "lambda_signal"),
        (lambda: idler_wavelength(900.0, NAN), "pump_nm"),
        (lambda: idler_wavelength(np.array([870.0, NAN])), "lambda_signal"),
        (lambda: default_profiles()[0].rate(NAN), "lambda_nm"),
        (lambda: default_profiles()[0].rate(INF), "lambda_nm"),
        (lambda: default_profiles()[1].rate(np.array([870.0, -INF])), "lambda_nm"),
        (lambda: TABLE.rate_hv(NAN), "lambda_nm"),
        (lambda: TABLE.rate_hv(INF), "lambda_nm"),
        (lambda: TABLE.rate_vh(NAN), "lambda_nm"),
        (lambda: TABLE.rate_vh(INF), "lambda_nm"),
        (lambda: build_channels(*default_profiles(), lambda_range=(NAN, 874.0), n_channels=2), "lambda_range"),
        (lambda: build_channels(*default_profiles(), lambda_range=(860.0, INF), n_channels=2), "lambda_range"),
        (lambda: SpectralChannel(NAN, 869.0, 1.0, 1.0, 0.0), "lambda_signal"),
        (lambda: SpectralChannel(870.0, INF, 1.0, 1.0, 0.0), "lambda_idler"),
        (lambda: SpectralChannel(870.0, 869.0, NAN, 1.0, 0.0), "rate_HV"),
        (lambda: SpectralChannel(870.0, 869.0, 1.0, INF, 0.0), "rate_VH"),
        (lambda: SpectralChannel(870.0, 869.0, 1.0, 1.0, NAN), "alpha"),
        (lambda: estimate_f(NAN, 1.0), "rate_HV"),
        (lambda: estimate_f(1.0, INF), "rate_VH"),
        (lambda: signed_angle_difference(INF, 0.0), "theta"),
        (lambda: signed_angle_difference(0.0, NAN), "reference"),
        (lambda: angle_stream_key(INF), "theta_deg"),
        (lambda: angle_stream_key(NAN), "theta_deg"),
        (lambda: DetectionConfig(seed=INF), "seed"),
        (lambda: DetectionConfig(seed=NAN), "seed"),
        (lambda: ProtocolConfig(seed=INF), "seed"),
        (lambda: ProtocolConfig(seed=NAN), "seed"),
        # the two retired flip keys are still type-checked when a config loads
        (lambda: loads_config('{"qkd": {"flip_rectilinear": "no"}}'), "flip_rectilinear"),
        (lambda: loads_config('{"qkd": {"flip_diagonal": 1}}'), "flip_diagonal"),
        (lambda: SourceConfig(alpha_deg=NAN), "source.alpha_deg"),
        (lambda: SourceConfig(pump_nm=INF), "source.pump_nm"),
        (lambda: SourceConfig(lambda_min_nm=NAN), "source.lambda_min_nm"),
        (lambda: SourceConfig(lambda_max_nm=INF), "source.lambda_max_nm"),
        (lambda: SourceConfig(pump_nm=-1.0), "source.pump_nm"),
        (lambda: SourceConfig(n_channels=0), "source.n_channels"),
        (lambda: SourceConfig(n_channels=2.5), "'source.n_channels' must be of type int, got 2.5"),
        (lambda: SourceConfig(n_channels=True), "'source.n_channels' must be of type int, got True"),
        (lambda: SourceConfig(pump_nm="400"), "'source.pump_nm' must be of type float, got '400'"),
        (lambda: shift_table(BiphotonPureState(), [0.0], reference=NAN), "reference must"),
        (lambda: ScanData("signal", NAN, (0.0, 10.0), (1, 1)), "theta_fixed"),
        (lambda: ScanData("signal", 0.0, (0.0, INF), (1, 1)), "angles"),
        (lambda: ScanData("signal", 0.0, (0.0, 10.0), (1, 1.5)), "counts"),
        (lambda: derive_stream(0, -1, 0), "channel_id"),
        (lambda: derive_stream(-1), "seed"),
        (lambda: derive_stream(0, 0, -1), "stream key"),
        (lambda: run_bbm92(BiphotonPureState(), ProtocolConfig(), channel_id=-1), "channel_id"),
        (
            lambda: simulate_scans(BiphotonPureState(), "signal", (0.0,), (0.0, 10.0), DetectionConfig(), -1),
            "channel_id",
        ),
    ],
)
def test_non_finite_input_raises_naming_it(call, name):
    with pytest.raises(ValueError, match=name):
        call()
