"""Every command's output files, compared with a recorded fixture.

``tests/fixtures/outputs.json`` records, for each case below, the argv, the
config, the exit code, stderr and the text of every output file, with the
temporary directory the case ran in written as ``<tmp>``.  A config that
names ``<tmp>/spectrum.csv`` runs on ``SPECTRUM_TABLE``, written there.
Text is compared token by token: strings and integers exactly, floats
within 1e-12 relative or 1e-15 absolute, so rounding dust from another
numpy build passes.  The
curve CSVs of ``reproduce-figures`` and every file of the two runs on the
default 8-channel config are stored as SHA-256 digests only and checked
only under the numpy version the fixture was recorded with.

A deliberate output change regenerates the fixture with

    PYTHONPATH=src python tests/test_output_fixture.py

and lists the changed files in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wdmqkd.cli import main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "outputs.json"
SEED = "11"
EDGE_ANGLES = "--theta-s=-1e-300,1e300,179.9999,-45,0,0"

CONFIGS = {
    "default": {"source": {"n_channels": 2}},
    "product": {"source": {"n_channels": 2, "kind": "product"}},
    "dark": {"source": {"n_channels": 2, "lambda_min_nm": 1090.0, "lambda_max_nm": 1100.0}},
    "product-dark": {
        "source": {"n_channels": 2, "kind": "product", "lambda_min_nm": 1090.0, "lambda_max_nm": 1100.0}
    },
    "one-sided": {"source": {"n_channels": 2, "hv_profile": {"peak_cps": 0.0}}},
    "product-one-sided": {"source": {"n_channels": 2, "kind": "product", "hv_profile": {"peak_cps": 0.0}}},
}
# source paths only the commands that read the source take: the label-swapped
# ratio reading and a tabulated spectrum
SOURCE_CONFIGS = {
    "inverse": {"source": {"n_channels": 2, "f_convention": "ratio_as_inverse_f"}},
    "table": {"source": {"n_channels": 2, "spectrum_csv": "<tmp>/spectrum.csv"}},
}
SPECTRUM_TABLE = "lambda_nm,rate_hv,rate_vh\n858.0,900.0,300.0\n866.0,600.0,600.0\n876.0,200.0,1000.0\n"
# cases whose every file is stored as a digest: the default config's 8 channels
FULL_CASES = ("simulate-fit-8-channels", "qkd-8-channels")
# case name -> (command and its own flags, config)
CASES = {
    **{
        f"{command}-{name}": ([command], config)
        for command in ("theory-scan", "simulate-fit", "spectrum", "qkd")
        for name, config in CONFIGS.items()
    },
    **{
        f"{command}-{name}": ([command], config)
        for command in ("simulate-fit", "spectrum", "qkd")
        for name, config in SOURCE_CONFIGS.items()
    },
    "reproduce-figures": (["reproduce-figures"], CONFIGS["default"]),
    "qkd-one-pair": (["qkd"], {"source": {"n_channels": 2}, "qkd": {"n_pairs": 1}}),
    "qkd-alpha180": (["qkd"], {"source": {"n_channels": 2, "alpha_deg": 180.0}}),
    "theory-scan-edges-product": (["theory-scan", EDGE_ANGLES, "--product"], {}),
    "theory-scan-edges-f0": (["theory-scan", EDGE_ANGLES, "--f", "0"], {}),
    "simulate-fit-8-channels": (["simulate-fit"], {}),
    "qkd-8-channels": (["qkd"], {}),
}


def _digest_only(case: str, name: str) -> bool:
    return case in FULL_CASES or (case == "reproduce-figures" and name.endswith(".csv"))


def run_case(case: str, tmp: Path) -> dict:
    """Run one case in tmp and return its record, with tmp written as <tmp>."""
    argv, config = CASES[case]
    config_path, out = tmp / "config.json", tmp / "out"
    written = config
    if "spectrum_csv" in config.get("source", {}):  # always <tmp>/spectrum.csv
        (tmp / "spectrum.csv").write_text(SPECTRUM_TABLE)
        written = {**config, "source": {**config["source"], "spectrum_csv": str(tmp / "spectrum.csv")}}
    config_path.write_text(json.dumps(written))
    full = [argv[0], "--config", str(config_path), "--seed", SEED, "--out", str(out), *argv[1:]]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(full)
    normalize = lambda text: text.replace(str(tmp), "<tmp>")
    files = {}
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if path.is_file():
            name = path.relative_to(out).as_posix()
            text = normalize(path.read_text())
            digest = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
            files[name] = digest if _digest_only(case, name) else text
    return {
        "argv": [normalize(arg) for arg in full],
        "config": config,
        "exit_code": code,
        "stderr": normalize(stderr.getvalue()),
        "files": files,
    }


def _cell(text: str):
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _tokens(name: str, text: str):
    """A file's text as values: parsed JSON, or CSV cells with '#' lines kept whole."""
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        lines = text.split("\n")
        return [line if line.startswith("#") else [_cell(c) for c in line.split(",")] for line in lines]
    return text


def _assert_same(want, got, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} is not of the type of {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)}, want {list(want)}"
        for key in want:
            _assert_same(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items, want {len(want)}"
        for k, (w, g) in enumerate(zip(want, got)):
            _assert_same(w, g, f"{where}[{k}]")
    elif isinstance(want, float):
        close = got == want or (math.isnan(got) and math.isnan(want))
        close = close or abs(got - want) <= max(1e-12 * max(abs(got), abs(want)), 1e-15)
        assert close, f"{where}: {got!r}, want {want!r}"
    else:
        assert got == want, f"{where}: {got!r}, want {want!r}"


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_holds_every_case(recorded):
    assert list(recorded["cases"]) == list(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_the_fixture(case, recorded, tmp_path):
    want, got = recorded["cases"][case], run_case(case, tmp_path)
    for key in ("argv", "config", "exit_code", "stderr"):
        assert got[key] == want[key], f"{case}: {key}"
    assert list(got["files"]) == list(want["files"]), f"{case}: file names"
    for name, text in want["files"].items():
        if not _digest_only(case, name):
            _assert_same(_tokens(name, text), _tokens(name, got["files"][name]), f"{case}/{name}")


def test_curve_digests_match_under_the_recorded_numpy(recorded, tmp_path):
    if np.__version__ != recorded["numpy"]:
        pytest.skip(f"curve digests were recorded under numpy {recorded['numpy']}, not {np.__version__}")
    for case in ("reproduce-figures", *FULL_CASES):
        (tmp_path / case).mkdir()
        want, got = recorded["cases"][case]["files"], run_case(case, tmp_path / case)["files"]
        for name in want:
            if _digest_only(case, name):
                assert got[name] == want[name], f"{case}/{name}"


def regenerate() -> None:
    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(case, Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    # no options: --help prints usage and any argument exits 2, both before the fixture is touched
    argparse.ArgumentParser(description="Regenerate tests/fixtures/outputs.json from the current code.").parse_args()
    regenerate()
    print(f"wrote {FIXTURE}", file=sys.stderr)
