"""Config parsing/validation and the command-line front end."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdmqkd
from wdmqkd import (
    ConfigError,
    RunConfig,
    SourceConfig,
    config_to_dict,
    load_config,
    loads_config,
    source_channels,
)
from wdmqkd.biphoton import BiphotonPureState, ProductState
from wdmqkd.cli import build_parser, main
from wdmqkd.config import source_state
from wdmqkd.correlation import signed_angle_difference
from wdmqkd.detection import MAX_MEAN, DetectionConfig
from wdmqkd.qkd import MAX_PAIRS, ProtocolConfig
from wdmqkd.spectral import MAX_CHANNELS, SpectralChannel

RETIRED_QKD_KEYS = ("flip_rectilinear", "flip_diagonal")


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.out_dir == "out"
    assert cfg.source.kind == "entangled"
    assert cfg.source.pump_nm == pytest.approx(429.7)
    assert cfg.source.n_channels == 8
    assert (cfg.source.lambda_min_nm, cfg.source.lambda_max_nm) == (860.0, 874.0)
    assert cfg.detection.pair_rate == 2000.0
    assert "fit" not in config_to_dict(cfg)  # retired: the fit period is fixed at 180
    assert cfg.qkd.n_pairs == 100_000
    # no flip options: each channel's state sets its flips
    assert config_to_dict(cfg)["qkd"] == {"n_pairs": 100_000}


def test_minimal_config_fills_defaults():
    cfg = loads_config('{"seed": 5}')
    assert cfg.seed == 5
    assert cfg.detection.seed == 5
    assert cfg.qkd.seed == 5
    assert cfg.source.n_channels == 8


def test_master_seed_feeds_sections():
    cfg = loads_config('{"seed": 11, "detection": {"pair_rate_cps": 900.0}}')
    assert cfg.detection.seed == 11
    assert cfg.detection.pair_rate == 900.0
    assert cfg.qkd.seed == 11


def test_run_config_seed_is_read_only():
    # the master seed lives in the detection and qkd sections, which use it
    with pytest.raises(TypeError):
        replace(loads_config('{"seed": 5}'), seed=6)


def test_run_config_holds_one_master_seed():
    # sections with two different seeds would echo a config that reloads differently
    with pytest.raises(ConfigError, match=r"detection.seed \(3\) and qkd.seed \(0\)"):
        RunConfig(detection=DetectionConfig(seed=3))
    cfg = RunConfig(detection=DetectionConfig(seed=3), qkd=ProtocolConfig(seed=3))
    assert loads_config(json.dumps(config_to_dict(cfg))) == cfg


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown key 'sede'"):
        loads_config('{"sede": 5}')
    with pytest.raises(ConfigError, match="source.pump_mm"):
        loads_config('{"source": {"pump_mm": 400.0}}')
    with pytest.raises(ConfigError, match="detection.pairrate"):
        loads_config('{"detection": {"pairrate": 100}}')
    with pytest.raises(ConfigError, match="source.hv_profile.centre_nm"):
        loads_config('{"source": {"hv_profile": {"centre_nm": 870.0}}}')


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        loads_config('{"seed": 1, "seed": 2}')


def test_json_syntax_error_reports_position():
    with pytest.raises(ConfigError, match=r"line 2 column"):
        loads_config('{\n  "seed": ,\n}')


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="'seed' must be of type int"):
        loads_config('{"seed": "zero"}')
    with pytest.raises(ConfigError, match="source.pump_nm"):
        loads_config('{"source": {"pump_nm": "blue"}}')
    # booleans are not numbers here even though Python subclasses int
    with pytest.raises(ConfigError, match="detection.pair_rate_cps"):
        loads_config('{"detection": {"pair_rate_cps": true}}')
    with pytest.raises(ConfigError, match="qkd.flip_rectilinear"):
        loads_config('{"qkd": {"flip_rectilinear": 1}}')


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param(field, value, message, id=f"{field}-{value}")
        for field, value, message in [
            ("kind", "produkt", "must be one of"),
            ("f_convention", "nope", "must be one of"),
            ("n_channels", 0, "must be >= 1"),
            ("n_channels", MAX_CHANNELS + 1, "must be <="),
            ("pump_nm", -1.0, "must be > 0"),
            ("alpha_deg", math.nan, "must be finite"),
            ("lambda_min_nm", 880.0, r"\(880.0\) must not exceed"),
            ("lambda_min_nm", 400.0, r"\(400.0\) must exceed the pump"),
        ]
    ],
)
def test_source_config_rejects_unknown_choices_in_code(field, value, message):
    # a SourceConfig built in code, not loaded, is checked as the loader checks it
    with pytest.raises(ValueError, match=f"source.{field}' {message}"):
        RunConfig(source=SourceConfig(**{field: value}))


def test_value_constraints_name_the_key():
    with pytest.raises(ConfigError, match="'seed' must be >= 0"):
        loads_config('{"seed": -1}')
    with pytest.raises(ConfigError, match="source.kind"):
        loads_config('{"source": {"kind": "squeezed"}}')
    with pytest.raises(ConfigError, match="f_convention"):
        loads_config('{"source": {"f_convention": "upside_down"}}')
    with pytest.raises(ConfigError, match="lambda_min_nm"):
        loads_config('{"source": {"lambda_min_nm": 900.0, "lambda_max_nm": 880.0}}')
    with pytest.raises(ConfigError, match="must exceed the pump"):
        loads_config('{"source": {"lambda_min_nm": 400.0, "lambda_max_nm": 880.0}}')
    with pytest.raises(ConfigError, match="n_channels"):
        loads_config('{"source": {"n_channels": 0}}')
    with pytest.raises(ConfigError, match="period_deg"):
        loads_config('{"fit": {"period_deg": 90.0}}')
    with pytest.raises(ConfigError, match="'detection'"):
        loads_config('{"detection": {"efficiency_signal": 1.4}}')
    with pytest.raises(ConfigError, match="'qkd'"):
        loads_config('{"qkd": {"n_pairs": 0}}')
    with pytest.raises(ConfigError, match="root"):
        loads_config("[1, 2]")


@pytest.mark.parametrize("value", ["Infinity", "NaN", str(2**63), str(2**70)])
def test_unsupported_n_pairs_rejected_with_path(value):
    # a non-integer is the reader's type fault; an integer out of range is ProtocolConfig's
    match = "qkd.n_pairs" if value in ("Infinity", "NaN") else r"section 'qkd': n_pairs must be an integer in \[1, "
    with pytest.raises(ConfigError, match=match):
        loads_config('{"qkd": {"n_pairs": %s}}' % value)


@pytest.mark.parametrize(
    "key", ["pair_rate_cps", "accidental_rate_cps", "integration_time_s", "efficiency_signal"]
)
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_detection_values_rejected_with_path(key, value):
    with pytest.raises(ConfigError, match="detection." + key):
        loads_config('{"detection": {"%s": %s}}' % (key, value))


def test_non_finite_values_rejected_in_every_section():
    with pytest.raises(ConfigError, match="source.alpha_deg"):
        loads_config('{"source": {"alpha_deg": NaN}}')
    with pytest.raises(ConfigError, match="source.hv_profile.fwhm_nm"):
        loads_config('{"source": {"hv_profile": {"fwhm_nm": Infinity}}}')
    with pytest.raises(ConfigError, match="fit.period_deg"):
        loads_config('{"fit": {"period_deg": NaN}}')


@pytest.mark.parametrize(
    "key", ["source.alpha_deg", "source.hv_profile.center_nm", "detection.pair_rate_cps", "fit.period_deg"]
)
def test_float_key_beyond_float_range_rejected_with_path(key, tmp_path):
    # qkd has no float key; a JSON integer of 400 digits overflows float()
    text = "1" + "0" * 400
    for name in reversed(key.split(".")):
        text = '{"%s": %s}' % (name, text)
    with pytest.raises(ConfigError) as info:
        loads_config(text)
    assert str(info.value).endswith(f"key '{key}' must be finite, got an integer beyond the float range")
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string conversion limit"
)
def test_integer_beyond_conversion_limit_rejected_with_file(tmp_path, capsys):
    # json.loads rejects an integer of more than 4300 digits with a plain ValueError
    text = '{"source": {"alpha_deg": 1%s}}' % ("0" * 5000)
    with pytest.raises(ConfigError) as info:
        loads_config(text, name="big.json")
    assert str(info.value).startswith("big.json: Exceeds the limit (4300 digits)")
    path = tmp_path / "big.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: Exceeds the limit")


def test_duplicate_key_message_is_not_rewrapped():
    with pytest.raises(ConfigError) as info:
        loads_config('{"seed": 1, "seed": 2}', name="dup.json")
    assert str(info.value) == "duplicate key 'seed' in config"


def test_detection_mean_cap_rejected_with_section():
    with pytest.raises(ConfigError) as info:
        loads_config('{"detection": {"pair_rate_cps": %r}}' % math.nextafter(MAX_MEAN, math.inf))
    assert str(info.value) == (
        "section 'detection': integration_time * (pair_rate * efficiency_signal * efficiency_idler"
        " + accidental_rate) must be <= 1e+18, got 1.0000000000000001e+18"
    )


def test_load_config_rejects_non_finite(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"detection": {"integration_time_s": Infinity}}')
    with pytest.raises(ConfigError, match="detection.integration_time_s"):
        load_config(path)


def test_two_channel_config():
    cfg = loads_config(
        json.dumps(
            {
                "source": {
                    "lambda_min_nm": 866.0,
                    "lambda_max_nm": 870.0,
                    "n_channels": 2,
                }
            }
        )
    )
    channels = source_channels(cfg.source)
    assert len(channels) == 2
    assert channels[0].lambda_signal == pytest.approx(866.0)
    assert channels[1].lambda_signal == pytest.approx(870.0)
    assert channels[0].rate_HV / channels[0].rate_VH == pytest.approx(3.0, rel=1e-9)
    assert channels[1].rate_HV / channels[1].rate_VH == pytest.approx(1.0, rel=1e-9)


def test_spectrum_csv_source(tmp_path):
    csv_path = tmp_path / "spec.csv"
    csv_path.write_text("lambda_nm,rate_hv,rate_vh\n860.0,400.0,100.0\n874.0,400.0,100.0\n")
    cfg = loads_config(json.dumps({"source": {"spectrum_csv": str(csv_path), "n_channels": 3}}))
    channels = source_channels(cfg.source)
    assert len(channels) == 3
    assert all(ch.rate_HV == pytest.approx(400.0) for ch in channels)


def test_config_echo_round_trip(tmp_path):
    text = json.dumps(
        {
            "seed": 9,
            "out_dir": "elsewhere",
            "source": {"alpha_deg": 60.0, "n_channels": 3, "hv_profile": {"peak_cps": 1500.0}},
            "detection": {"pair_rate_cps": 750.0, "accidental_rate_cps": 2.0},
            "fit": {"period_deg": 180.0},
            "qkd": {"n_pairs": 2000, "flip_diagonal": True},
        }
    )
    cfg = loads_config(text)
    echo = config_to_dict(cfg)
    again = loads_config(json.dumps(echo))
    assert again == cfg
    # alpha round trips exactly because the config stores degrees
    assert again.source.alpha_deg == 60.0


def test_fit_section_still_loads_with_its_one_value(tmp_path, monkeypatch):
    # existing configs, echoes and the benchmark's own config keep the key
    assert loads_config('{"fit": {"period_deg": 180}}') == RunConfig()
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        plan = json.loads(workloads.make_inputs(workload, 1, 1.0, tmp_path / workload).read_text())
        echo = config_to_dict(load_config(plan["config"]))
        assert "fit" not in echo
        # the two retired flip keys it writes load too, and are not echoed
        qkd = json.loads(Path(plan["config"]).read_text())["qkd"]
        assert set(qkd) == {"n_pairs", *RETIRED_QKD_KEYS}
        assert echo["qkd"] == {"n_pairs": qkd["n_pairs"]}
    with pytest.raises(ConfigError, match=r"fit\.period_deg"):
        loads_config('{"fit": {"period_deg": 360.0}}')


def test_period_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate-fit", "--period", "360", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: wdmqkd")
    assert "wdmqkd: error: unrecognized arguments: --period 360" in err
    assert not (tmp_path / "out").exists()


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"seed": 4}')
    assert load_config(path).seed == 4
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.json")


# One input per key with a single fault (unknown key, wrong type, non-finite
# or out-of-range value) and the exact message it is reported with.
SINGLE_FAULT_MESSAGES = [
    ('{"bogus": 1}', "unknown key 'bogus' (allowed: seed, out_dir, source, detection, fit, qkd)"),
    ('{"source": {"bogus": 1}}', "unknown key 'source.bogus' (allowed: kind, pump_nm, alpha_deg, f_convention, lambda_min_nm, lambda_max_nm, n_channels, hv_profile, vh_profile, spectrum_csv)"),
    ('{"source": {"hv_profile": {"bogus": 1}}}', "unknown key 'source.hv_profile.bogus' (allowed: center_nm, fwhm_nm, peak_cps)"),
    ('{"source": {"vh_profile": {"bogus": 1}}}', "unknown key 'source.vh_profile.bogus' (allowed: center_nm, fwhm_nm, peak_cps)"),
    ('{"detection": {"bogus": 1}}', "unknown key 'detection.bogus' (allowed: pair_rate_cps, efficiency_signal, efficiency_idler, accidental_rate_cps, integration_time_s)"),
    ('{"fit": {"bogus": 1}}', "unknown key 'fit.bogus' (allowed: period_deg)"),
    ('{"qkd": {"bogus": 1}}', "unknown key 'qkd.bogus' (allowed: n_pairs, flip_rectilinear, flip_diagonal)"),
    ('{"seed": true}', "key 'seed' must be of type int, got True"),
    ('{"out_dir": 5}', "key 'out_dir' must be of type str, got 5"),
    ('{"source": 5}', "key 'source' must be of type dict, got 5"),
    ('{"detection": 5}', "key 'detection' must be of type dict, got 5"),
    ('{"fit": 5}', "key 'fit' must be of type dict, got 5"),
    ('{"qkd": 5}', "key 'qkd' must be of type dict, got 5"),
    ('{"source": {"pump_nm": "x"}}', "key 'source.pump_nm' must be of type float, got 'x'"),
    ('{"source": {"pump_nm": NaN}}', "key 'source.pump_nm' must be finite, got nan"),
    ('{"source": {"alpha_deg": "x"}}', "key 'source.alpha_deg' must be of type float, got 'x'"),
    ('{"source": {"alpha_deg": NaN}}', "key 'source.alpha_deg' must be finite, got nan"),
    ('{"source": {"lambda_min_nm": "x"}}', "key 'source.lambda_min_nm' must be of type float, got 'x'"),
    ('{"source": {"lambda_min_nm": NaN}}', "key 'source.lambda_min_nm' must be finite, got nan"),
    ('{"source": {"lambda_max_nm": "x"}}', "key 'source.lambda_max_nm' must be of type float, got 'x'"),
    ('{"source": {"lambda_max_nm": NaN}}', "key 'source.lambda_max_nm' must be finite, got nan"),
    ('{"detection": {"pair_rate_cps": "x"}}', "key 'detection.pair_rate_cps' must be of type float, got 'x'"),
    ('{"detection": {"pair_rate_cps": NaN}}', "key 'detection.pair_rate_cps' must be finite, got nan"),
    ('{"detection": {"efficiency_signal": "x"}}', "key 'detection.efficiency_signal' must be of type float, got 'x'"),
    ('{"detection": {"efficiency_signal": NaN}}', "key 'detection.efficiency_signal' must be finite, got nan"),
    ('{"detection": {"efficiency_idler": "x"}}', "key 'detection.efficiency_idler' must be of type float, got 'x'"),
    ('{"detection": {"efficiency_idler": NaN}}', "key 'detection.efficiency_idler' must be finite, got nan"),
    ('{"detection": {"accidental_rate_cps": "x"}}', "key 'detection.accidental_rate_cps' must be of type float, got 'x'"),
    ('{"detection": {"accidental_rate_cps": NaN}}', "key 'detection.accidental_rate_cps' must be finite, got nan"),
    ('{"detection": {"integration_time_s": "x"}}', "key 'detection.integration_time_s' must be of type float, got 'x'"),
    ('{"detection": {"integration_time_s": NaN}}', "key 'detection.integration_time_s' must be finite, got nan"),
    ('{"fit": {"period_deg": "x"}}', "key 'fit.period_deg' must be of type float, got 'x'"),
    ('{"fit": {"period_deg": NaN}}', "key 'fit.period_deg' must be finite, got nan"),
    ('{"source": {"hv_profile": 5}}', "key 'source.hv_profile' must be of type dict, got 5"),
    ('{"source": {"hv_profile": {"center_nm": "x"}}}', "key 'source.hv_profile.center_nm' must be of type float, got 'x'"),
    ('{"source": {"hv_profile": {"center_nm": NaN}}}', "key 'source.hv_profile.center_nm' must be finite, got nan"),
    ('{"source": {"hv_profile": {"fwhm_nm": "x"}}}', "key 'source.hv_profile.fwhm_nm' must be of type float, got 'x'"),
    ('{"source": {"hv_profile": {"fwhm_nm": NaN}}}', "key 'source.hv_profile.fwhm_nm' must be finite, got nan"),
    ('{"source": {"hv_profile": {"peak_cps": "x"}}}', "key 'source.hv_profile.peak_cps' must be of type float, got 'x'"),
    ('{"source": {"hv_profile": {"peak_cps": NaN}}}', "key 'source.hv_profile.peak_cps' must be finite, got nan"),
    ('{"source": {"hv_profile": {"fwhm_nm": 0.0}}}', "section 'source.hv_profile': profile width must be > 0, got 0.0"),
    ('{"source": {"hv_profile": {"peak_cps": -1.0}}}', "section 'source.hv_profile': profile peak must be >= 0, got -1.0"),
    ('{"source": {"vh_profile": 5}}', "key 'source.vh_profile' must be of type dict, got 5"),
    ('{"source": {"vh_profile": {"center_nm": "x"}}}', "key 'source.vh_profile.center_nm' must be of type float, got 'x'"),
    ('{"source": {"vh_profile": {"center_nm": NaN}}}', "key 'source.vh_profile.center_nm' must be finite, got nan"),
    ('{"source": {"vh_profile": {"fwhm_nm": "x"}}}', "key 'source.vh_profile.fwhm_nm' must be of type float, got 'x'"),
    ('{"source": {"vh_profile": {"fwhm_nm": NaN}}}', "key 'source.vh_profile.fwhm_nm' must be finite, got nan"),
    ('{"source": {"vh_profile": {"peak_cps": "x"}}}', "key 'source.vh_profile.peak_cps' must be of type float, got 'x'"),
    ('{"source": {"vh_profile": {"peak_cps": NaN}}}', "key 'source.vh_profile.peak_cps' must be finite, got nan"),
    ('{"source": {"vh_profile": {"fwhm_nm": 0.0}}}', "section 'source.vh_profile': profile width must be > 0, got 0.0"),
    ('{"source": {"vh_profile": {"peak_cps": -1.0}}}', "section 'source.vh_profile': profile peak must be >= 0, got -1.0"),
    ('{"source": {"kind": 5}}', "key 'source.kind' must be of type str, got 5"),
    ('{"source": {"kind": "squeezed"}}', "key 'source.kind' must be one of ('entangled', 'product'), got 'squeezed'"),
    ('{"source": {"f_convention": 5}}', "key 'source.f_convention' must be of type str, got 5"),
    ('{"source": {"f_convention": "upside_down"}}', "key 'source.f_convention' must be one of ('ratio_as_f', 'ratio_as_inverse_f'), got 'upside_down'"),
    ('{"source": {"n_channels": "x"}}', "key 'source.n_channels' must be of type int, got 'x'"),
    ('{"source": {"n_channels": 0}}', "key 'source.n_channels' must be >= 1, got 0"),
    ('{"source": {"n_channels": -3}}', "key 'source.n_channels' must be >= 1, got -3"),
    ('{"source": {"spectrum_csv": 5}}', "key 'source.spectrum_csv' must be a path string or null, got 5"),
    ('{"source": {"pump_nm": 0.0}}', "key 'source.pump_nm' must be > 0, got 0.0"),
    ('{"source": {"pump_nm": -1.0}}', "key 'source.pump_nm' must be > 0, got -1.0"),
    ('{"source": {"lambda_min_nm": 880.0}}', "key 'source.lambda_min_nm' (880.0) must not exceed 'source.lambda_max_nm' (874.0)"),
    ('{"source": {"lambda_min_nm": 429.7}}', "key 'source.lambda_min_nm' (429.7) must exceed the pump wavelength (429.7)"),
    ('{"source": {"lambda_max_nm": 850.0}}', "key 'source.lambda_min_nm' (860.0) must not exceed 'source.lambda_max_nm' (850.0)"),
    ('{"source": {"lambda_min_nm": 400.0, "lambda_max_nm": 420.0}}', "key 'source.lambda_min_nm' (400.0) must exceed the pump wavelength (429.7)"),
    ('{"source": {"pump_nm": 870.0}}', "key 'source.lambda_min_nm' (860.0) must exceed the pump wavelength (870.0)"),
    ('{"detection": {"efficiency_signal": 1.4}}', "section 'detection': efficiency_signal must be in [0, 1], got 1.4"),
    ('{"detection": {"efficiency_idler": -0.1}}', "section 'detection': efficiency_idler must be in [0, 1], got -0.1"),
    ('{"fit": {"period_deg": 90.0}}', "key 'fit.period_deg' must be 180, got 90.0"),
    ('{"fit": {"period_deg": 90}}', "key 'fit.period_deg' must be 180, got 90.0"),
    ('{"qkd": {"n_pairs": "x"}}', "key 'qkd.n_pairs' must be of type int, got 'x'"),
    ('{"qkd": {"n_pairs": 0}}', "section 'qkd': n_pairs must be an integer in [1, 9223372036854775807], got 0"),
    ('{"qkd": {"n_pairs": -1}}', "section 'qkd': n_pairs must be an integer in [1, 9223372036854775807], got -1"),
    ('{"qkd": {"n_pairs": 9223372036854775808}}', "section 'qkd': n_pairs must be an integer in [1, 9223372036854775807], got 9223372036854775808"),
    ('{"qkd": {"n_pairs": 1180591620717411303424}}', "section 'qkd': n_pairs must be an integer in [1, 9223372036854775807], got 1180591620717411303424"),
    ('{"qkd": {"flip_rectilinear": 1}}', "key 'qkd.flip_rectilinear' must be of type bool, got 1"),
    ('{"qkd": {"flip_diagonal": 1}}', "key 'qkd.flip_diagonal' must be of type bool, got 1"),
    ('{"seed": -1}', "key 'seed' must be >= 0, got -1"),
    ('{"detection": {"pair_rate_cps": -1.0}}', "section 'detection': pair_rate must be finite and >= 0, got -1.0"),
    ('{"detection": {"accidental_rate_cps": -2.0}}', "section 'detection': accidental_rate must be finite and >= 0, got -2.0"),
    ('{"detection": {"integration_time_s": 0.0}}', "section 'detection': integration_time must be finite and > 0, got 0.0"),
    ('{"qkd": {"n_pairs": NaN}}', "key 'qkd.n_pairs' must be of type int, got nan"),
    ('{"source": {"n_channels": true}}', "key 'source.n_channels' must be of type int, got True"),
]


@pytest.mark.parametrize("text, message", SINGLE_FAULT_MESSAGES)
def test_single_fault_messages(text, message):
    with pytest.raises(ConfigError) as info:
        loads_config(text)
    assert str(info.value) == message


def test_channel_count_cap_rejected_with_path():
    with pytest.raises(ConfigError) as info:
        loads_config('{"source": {"n_channels": %d}}' % (MAX_CHANNELS + 1))
    assert str(info.value) == f"key 'source.n_channels' must be <= {MAX_CHANNELS}, got {MAX_CHANNELS + 1}"


def _number(min_value=None, max_value=None, exclude_min=False):
    """A legal JSON number for a float key: a finite float or an integer."""
    floats = st.floats(min_value, max_value, exclude_min=exclude_min, allow_nan=False, allow_infinity=False)
    lo = -(10**6) if min_value is None else math.floor(min_value) + 1
    hi = 10**6 if max_value is None else math.floor(max_value)
    return st.one_of(floats, st.integers(lo, hi)) if lo <= hi else floats


def _section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


_PROFILES = _section(center_nm=_number(), fwhm_nm=_number(0.0, exclude_min=True), peak_cps=_number(0.0))


@st.composite
def _legal_configs(draw):
    pump = draw(_number(0.0, 1e4, exclude_min=True))
    lo = draw(_number(pump, 2e4, exclude_min=True))
    hi = draw(_number(lo, 3e4))
    source = draw(
        _section(
            kind=st.sampled_from(["entangled", "product"]),
            pump_nm=st.just(pump),
            alpha_deg=_number(),
            f_convention=st.sampled_from(["ratio_as_f", "ratio_as_inverse_f"]),
            lambda_min_nm=st.just(lo),
            lambda_max_nm=st.just(hi),
            n_channels=st.integers(1, MAX_CHANNELS),
            hv_profile=_PROFILES,
            vh_profile=_PROFILES,
            spectrum_csv=st.none() | st.text(),
        )
    )
    # an omitted wavelength key takes its default, which must still be in order
    default = RunConfig().source
    pump = source.get("pump_nm", default.pump_nm)
    lo = source.get("lambda_min_nm", default.lambda_min_nm)
    hi = source.get("lambda_max_nm", default.lambda_max_nm)
    if not pump < lo <= hi:
        source.pop("lambda_min_nm", None)
        source.pop("pump_nm", None)
        source.pop("lambda_max_nm", None)
    raw = draw(
        _section(
            seed=st.integers(0, 2**64),
            out_dir=st.text(),
            source=st.just(source),
            detection=_section(
                pair_rate_cps=_number(0.0),
                efficiency_signal=_number(0.0, 1.0),
                efficiency_idler=_number(0.0, 1.0),
                accidental_rate_cps=_number(0.0),
                integration_time_s=_number(0.0, exclude_min=True),
            ),
            fit=_section(period_deg=st.sampled_from([180.0, 180])),
            qkd=_section(
                n_pairs=st.integers(1, MAX_PAIRS),
                flip_rectilinear=st.booleans(),
                flip_diagonal=st.booleans(),
            ),
        )
    )
    # the Poisson mean at p = 1 must not exceed MAX_MEAN; an over-large
    # draw drops its rate and time keys, which then take their defaults
    detection, d = raw.get("detection", {}), DetectionConfig()
    mean = detection.get("integration_time_s", d.integration_time) * (
        detection.get("pair_rate_cps", d.pair_rate)
        * detection.get("efficiency_signal", d.efficiency_signal)
        * detection.get("efficiency_idler", d.efficiency_idler)
        + detection.get("accidental_rate_cps", d.accidental_rate)
    )
    if not mean <= MAX_MEAN:
        for key in ("pair_rate_cps", "accidental_rate_cps", "integration_time_s"):
            detection.pop(key, None)
    return raw


def _assert_given_keys_echoed(given_section, echo_section):
    for key, value in given_section.items():
        if isinstance(value, dict):
            _assert_given_keys_echoed(value, echo_section[key])
        else:
            assert echo_section[key] == value, key


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_legal_configs())
def test_config_echo_round_trip_property(raw):
    cfg = loads_config(json.dumps(raw))
    echo = config_to_dict(cfg)
    assert loads_config(json.dumps(echo)) == cfg
    assert config_to_dict(loads_config(json.dumps(echo))) == echo
    # the retired keys (the fit section and the flip keys) load, change nothing and are not echoed
    kept = {k: v for k, v in raw.items() if k != "fit"}
    kept["qkd"] = {k: v for k, v in raw.get("qkd", {}).items() if k not in RETIRED_QKD_KEYS}
    assert loads_config(json.dumps(kept)) == cfg
    assert "fit" not in echo and not set(RETIRED_QKD_KEYS) & set(echo["qkd"])
    _assert_given_keys_echoed(kept, echo)


# --- CLI ---


def test_cli_theory_scan(tmp_path):
    out = tmp_path / "theory"
    rc = main(["theory-scan", "--f", "1.73", "--alpha-deg", "0", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "theory_scan_summary.json").read_text())
    assert summary["state"] == {"kind": "entangled", "f": 1.73, "alpha_deg": 0.0}
    rows = {row["theta_s_deg"]: row for row in summary["rows"]}
    assert rows[45.0]["theta_max_deg"] == pytest.approx(59.97059823848534, abs=1e-9)
    assert (out / "theory_scan_thetas_45.csv").exists()
    assert (out / "config_echo.json").exists()


def test_cli_theory_scan_product(tmp_path):
    out = tmp_path / "prod"
    rc = main(["theory-scan", "--product", "--theta-s", "0,45,135", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "theory_scan_summary.json").read_text())
    assert summary["state"] == {"kind": "product"}
    rows = {row["theta_s_deg"]: row for row in summary["rows"]}
    assert rows[0.0]["theta_max_deg"] == pytest.approx(45.0)
    assert rows[45.0]["theta_max_deg"] == pytest.approx(45.0)
    assert rows[135.0]["degenerate"] is True


def test_cli_simulate_fit(tmp_path):
    out = tmp_path / "sim"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "source": {"lambda_min_nm": 866.0, "lambda_max_nm": 870.0, "n_channels": 2},
                "detection": {"pair_rate_cps": 5000.0},
            }
        )
    )
    rc = main(["simulate-fit", "--config", str(cfg_path), "--seed", "3", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "simulate_fit_summary.json").read_text())
    assert list(summary) == ["rows"]
    assert len(summary["rows"]) == 8  # 2 channels x 4 fixed angles
    assert (out / "scan_ch00_thetas_45.csv").exists()
    assert (out / "fit_ch01_thetas_135.json").exists()
    for row in summary["rows"]:
        assert sorted(row) == [
            "channel",
            "lambda_signal_nm",
            "theta_max_deg",
            "theta_max_err_deg",
            "theta_s_deg",
            "visibility",
            "visibility_err",
        ]


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spec"
    rc = main(["spectrum", "--out", str(out)])
    assert rc == 0
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda_signal_nm,lambda_idler_nm,rate_hv,rate_vh,f_hat,f_hat_inv"
    assert len(lines) == 9  # header + 8 channels
    table = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
    row_866 = table[866.0]
    assert float(row_866[1]) == pytest.approx(852.8998395599359, abs=1e-9)
    # both readings of the 3:1 band ratio at 866 nm
    assert float(row_866[4]) == pytest.approx(1.0 / 3.0**0.5, rel=1e-9)
    assert float(row_866[5]) == pytest.approx(3.0**0.5, rel=1e-9)
    row_870 = table[870.0]
    assert float(row_870[4]) == pytest.approx(1.0, rel=1e-9)


def test_cli_dark_channels(tmp_path):
    # far from both bands the Gaussian rates underflow to 0.0: the last three
    # of 8 channels on 860-1100 nm are dark
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": {"lambda_max_nm": 1100.0}, "qkd": {"n_pairs": 1000}}))
    dark = {5, 6, 7}

    out = tmp_path / "spec"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "spectrum.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == 8
    for k, row in enumerate(rows):
        assert (row[2:] == ["0.0", "0.0", "nan", "nan"]) == (k in dark)

    out = tmp_path / "sim"
    assert main(["simulate-fit", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_fit_summary.json").read_text())
    errors = {r["channel"]: r["error"] for r in summary["rows"] if "error" in r}
    assert dark <= set(errors)
    assert "1100.0 nm" in errors[7]

    assert main(["qkd", "--config", str(cfg_path), "--out", str(tmp_path / "qkd")]) == 2


DARK_MESSAGE = "channel at 1100.0 nm has zero rate in both bands; its amplitude ratio is undefined"
INFINITE_MESSAGE = "amplitude ratio is infinite under ratio_as_f; swap the term labeling (use the other convention)"


@pytest.mark.parametrize(
    "kind, rates, expected",
    [
        ("entangled", (300.0, 100.0), BiphotonPureState(math.sqrt(100.0 / 300.0), 0.5)),
        ("entangled", (0.0, 100.0), INFINITE_MESSAGE),
        ("entangled", (5e-324, 100.0), INFINITE_MESSAGE),  # the ratio overflows
        ("entangled", (0.0, 0.0), DARK_MESSAGE),
        ("product", (300.0, 100.0), ProductState()),
        ("product", (0.0, 100.0), ProductState()),
        ("product", (0.0, 0.0), DARK_MESSAGE),
    ],
)
def test_source_state_of_each_kind_and_channel(kind, rates, expected):
    # a lit, a one-sided and a dark channel: a dark one has no state under either kind
    channel = SpectralChannel(1100.0, 700.0, *rates, 0.5)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc_info:
            source_state(SourceConfig(kind=kind), channel)
        assert str(exc_info.value) == expected
    else:
        assert source_state(SourceConfig(kind=kind), channel) == expected


def test_cli_qkd_rejects_dark_channels_of_a_product_source(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "product", "lambda_max_nm": 1100}}))
    out = tmp_path / "qkd"
    assert main(["qkd", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: channel at 1031.4285714285713 nm has zero rate in both bands; its amplitude ratio is undefined\n"
    )
    assert not out.exists()


def test_cli_simulate_fit_all_zero_scan(tmp_path):
    # channel 4 (997 nm) has f ~ 4e7: at theta_s = 90 deg every count is 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": {"lambda_max_nm": 1100.0}}))
    out = tmp_path / "sim"
    assert main(["simulate-fit", "--config", str(cfg_path), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    written = sorted(out.glob("*.json"))
    assert written
    docs = {p.name: json.loads(p.read_text(), parse_constant=reject) for p in written}
    rows = docs["simulate_fit_summary.json"]["rows"]
    row = next(r for r in rows if r["channel"] == 4 and r.get("theta_s_deg") == 90.0)
    assert "all zero" in row["error"]
    assert "fit_ch04_thetas_90.json" not in docs


def test_cli_simulate_fit_batches_channels_and_fits(tmp_path, monkeypatch):
    # 24 channels x 4 scans: one probability evaluation per channel, one fit
    # for the whole run, and still one random stream per scan
    import wdmqkd.cli as cli
    import wdmqkd.detection as detection

    calls = {"coincidence_probabilities": 0, "derive_stream": 0, "fit_scans": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(detection, "coincidence_probabilities")
    counting(detection, "derive_stream")
    counting(cli, "fit_scans")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": {"n_channels": 24}}))
    out = tmp_path / "sim"
    assert main(["simulate-fit", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert calls == {"coincidence_probabilities": 24, "derive_stream": 96, "fit_scans": 1}
    assert len(list(out.glob("scan_*.csv"))) == len(list(out.glob("fit_*.json"))) == 96


def test_cli_out_naming_a_regular_file_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    for command in ("simulate-fit", "spectrum", "reproduce-figures"):
        capsys.readouterr()
        assert main([command, "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("i/o error:")
    assert target.read_text() == "not a directory\n"


def test_cli_theory_scan_peak_calls(tmp_path, monkeypatch):
    import wdmqkd.cli as cli
    import wdmqkd.correlation as correlation

    calls = []
    original = correlation.find_theta_max
    counting = lambda *a: calls.append(a) or original(*a)
    monkeypatch.setattr(correlation, "find_theta_max", counting)
    # also count calls the command would make outside shift_table
    monkeypatch.setattr(cli, "find_theta_max", counting, raising=False)
    rc = main(["theory-scan", "--theta-s", "0,45,90,135", "--out", str(tmp_path / "t")])
    assert rc == 0
    assert len(calls) == 4 + 1  # one per signal angle plus the reference


def test_cli_qkd(tmp_path):
    out = tmp_path / "qkd"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"qkd": {"n_pairs": 4000}}))
    rc = main(["qkd", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    totals = json.loads((out / "qkd_summary.json").read_text())
    assert totals["n_channels"] == 8
    assert totals["total_sifted_bits"] > 0
    reports = json.loads((out / "key_reports.json").read_text())
    assert len(reports) == 8
    assert all(r["qber_rect"] == 0.0 for r in reports)
    csv_lines = (out / "key_reports.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 9


def test_cli_simulate_fit_product_source(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "product"}}))
    out = tmp_path / "sim"
    assert main(["simulate-fit", "--config", str(cfg_path), "--seed", "11", "--out", str(out)]) == 0
    rows = json.loads((out / "simulate_fit_summary.json").read_text())["rows"]
    assert len(rows) == 8 * 4
    for row in rows:
        if row["theta_s_deg"] == 135.0:
            # the +45 product state never passes a signal polarizer at 135 deg
            assert "all zero" in row["error"]
        else:
            assert "error" not in row
            shift = signed_angle_difference(row["theta_max_deg"], 45.0)
            assert abs(shift) <= 3.0 * row["theta_max_err_deg"]


def test_cli_qkd_product_source(tmp_path):
    n_pairs = 20_000
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source": {"kind": "product"}, "qkd": {"n_pairs": n_pairs}}))
    out = tmp_path / "qkd"
    assert main(["qkd", "--config", str(cfg_path), "--seed", "11", "--out", str(out)]) == 0
    reports = json.loads((out / "key_reports.json").read_text())
    assert len(reports) == 8
    # ~n_pairs / 4 pairs land in the rectilinear basis pair, each an error with probability 1/2
    sigma = math.sqrt(0.25 / (n_pairs / 4))
    for report in reports:
        assert report["qber_diag"] == 0.0  # both photons always pass at +45
        assert abs(report["qber_rect"] - 0.5) <= 6.0 * sigma


def test_cli_reproduce_figures(tmp_path):
    out = tmp_path / "figs"
    rc = main(["reproduce-figures", "--out", str(out)])
    assert rc == 0
    collected = json.loads((out / "figure_summary.json").read_text())
    assert set(collected) == {"f1_alpha0", "f1_alpha180", "f1_alpha60", "f173_alpha0"}
    rows = {r["theta_s_deg"]: r for r in collected["f173_alpha0"]["rows"]}
    assert rows[45.0]["shift_deg"] == pytest.approx(-30.029401761514655, abs=1e-6)
    assert (out / "f1_alpha60" / "theory_scan_thetas_90.csv").exists()


def test_cli_reproduce_figures_peaks_below_180(tmp_path):
    # f = 1, alpha = 180 deg peaks at 0 deg for theta_s = 90 deg
    out = tmp_path / "figs"
    assert main(["reproduce-figures", "--out", str(out)]) == 0
    peaks = []

    def collect(obj):
        if "theta_max_deg" in obj:
            peaks.append(obj["theta_max_deg"])
        return obj

    for path in out.rglob("*.json"):
        json.loads(path.read_text(), object_hook=collect)
    assert len(peaks) > 16
    assert all(0.0 <= p < 180.0 for p in peaks)


def test_cli_seed_override_changes_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"source": {"n_channels": 1}, "qkd": {"n_pairs": 2000}}))
    assert main(["qkd", "--config", str(cfg), "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["qkd", "--config", str(cfg), "--seed", "2", "--out", str(out_b)]) == 0
    a = (out_a / "key_reports.csv").read_text()
    b = (out_b / "key_reports.csv").read_text()
    assert a != b


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"source": {"kind": "squeezed"}}')
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 1
    assert main(["theory-scan", "--theta-s", "abc", "--out", str(tmp_path / "y")]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize(
    "theta_s, expected",
    [
        ("0,nan", ("--theta-s",)),
        ("inf", ("--theta-s",)),
        ("0,-inf", ("--theta-s",)),
        ("1e999", ("--theta-s",)),  # parses to inf
        # 6 significant digits name the file: two different angles, one file
        ("0.1234561,0.1234562", ("theta_s_list", "theory_scan_thetas_0.123456.csv")),
    ],
)
def test_cli_theory_scan_rejects_signal_angles_before_writing(theta_s, expected, tmp_path, capsys):
    assert main(["theory-scan", f"--theta-s={theta_s}", "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in expected), err
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_parser_is_reused_without_leaking_flags(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate-fit", "--period", "360", "--out", str(tmp_path / "usage")])
    assert exit_info.value.code == 2
    flags = ["--f", "1.73", "--alpha-deg", "10", "--out", str(tmp_path / "flags")]
    assert main(["theory-scan", *flags]) == 0
    # relative --out, so the config echo is the same in both runs
    (tmp_path / "here").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    assert main(["theory-scan", "--out", "out"]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(wdmqkd.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "wdmqkd.cli", "theory-scan", "--out", "out"],
        capture_output=True,
        text=True,
        cwd=tmp_path / "fresh",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    here, fresh = tmp_path / "here" / "out", tmp_path / "fresh" / "out"
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert len(names) == 5  # three curves, the summary and the config echo
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def test_cli_subprocess_smoke(tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "wdmqkd.cli", "theory-scan", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "theory_scan_summary.json").exists()
