"""Tests of the benchmark's reference computations and of its output checks.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

The reference is tested against known values of the model; each workload's
check is shown to pass on a real operation and to reject a corrupted copy
of its output.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def test_balanced_state_reaches_tsirelson_bound():
    psi = ref.entangled_state(1.0, 0.0)
    assert ref.chsh_max(psi) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert ref.chsh(psi, 0.0, 45.0, 67.5, 22.5) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_unbalanced_state_shifts_peak_by_30_deg():
    psi = ref.entangled_state(1.73, 0.0)
    p0 = ref.scan_peak(psi, 0.0)[0]
    assert ref.circular_difference(ref.scan_peak(psi, 45.0)[0], p0) == pytest.approx(-30.0, abs=0.1)
    assert ref.circular_difference(ref.scan_peak(psi, 135.0)[0], p0) == pytest.approx(30.0, abs=0.1)


def test_visibility_of_dephased_balanced_state():
    assert ref.scan_peak(ref.entangled_state(1.0, 60.0), 45.0)[1] == pytest.approx(0.5, abs=1e-12)
    assert ref.scan_peak(ref.entangled_state(1.0, 0.0), 20.0)[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("f", [0.3, 1.0, 1.73])
def test_qber_with_rectilinear_flip(f):
    q_rect, q_diag = ref.qbers(ref.entangled_state(f, 0.0), (True, False))
    assert q_rect == pytest.approx(0.0, abs=1e-15)
    assert q_diag == pytest.approx((1.0 - f) ** 2 / (2.0 * (1.0 + f * f)), abs=1e-12)


def test_product_state_is_classical_and_its_peak_fixed():
    psi = ref.product_state()
    assert ref.chsh_max(psi) == pytest.approx(2.0, abs=1e-12)
    peaks = {round(ref.scan_peak(psi, ts)[0], 9) for ts in (0.0, 45.0, 90.0)}
    assert peaks == {45.0}


def test_channel_ratios_of_default_source():
    table = dict(ref.channel_table(workloads._source(15)))
    assert table[866.0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert table[870.0] == pytest.approx(1.0, rel=1e-12)


def _operation(tmp_path, name):
    """Run the first operation of a workload and check its real output."""
    plan_path = workloads.make_inputs(name, 3, 1.0, tmp_path)
    plan = json.loads(plan_path.read_text())
    wl = workloads.Workload(plan, workloads.setup(plan, BENCH.parent / "src"))
    assert wl.problems == []
    ops = wl.ops(0)
    op = ops[0] if name != "audit" else ops[-1]  # audit: the product state
    result = op.run()
    op.check(result)
    return op, result


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_characterize_check_rejects_corrupted_counts(tmp_path):
    op, result = _operation(tmp_path, "characterize")
    scan = op.out / "scan_ch05_thetas_45.csv"
    lines = scan.read_text().splitlines()
    theta, count = lines[8].split(",")
    lines[8] = f"{theta},{int(count) + 1000}"
    scan.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="count total"):
        op.check(result)


def test_characterize_check_rejects_corrupted_peak(tmp_path):
    op, result = _operation(tmp_path, "characterize")

    def shift(summary):
        row = summary["rows"][9]
        row["theta_max_deg"] = (row["theta_max_deg"] + 20.0 * row["theta_max_err_deg"]) % 180.0

    _edit_json(op.out / "simulate_fit_summary.json", shift)
    with pytest.raises(checks.CheckError):
        op.check(result)


def test_keying_check_rejects_corrupted_qber(tmp_path):
    op, result = _operation(tmp_path, "keying")
    _edit_json(op.out / "key_reports.json", lambda rows: rows[2].update(qber_diag=rows[2]["qber_diag"] + 0.01))
    with pytest.raises(checks.CheckError, match="qber_diag"):
        op.check(result)


def test_keying_check_rejects_wrong_totals(tmp_path):
    op, result = _operation(tmp_path, "keying")
    _edit_json(op.out / "qkd_summary.json", lambda t: t.update(total_sifted_bits=t["total_sifted_bits"] + 1))
    with pytest.raises(checks.CheckError, match="total sifted"):
        op.check(result)


def test_audit_check_rejects_corrupted_curve(tmp_path):
    op, result = _operation(tmp_path, "audit")
    csv_path = op.out / "theory_scan_thetas_45.csv"
    lines = csv_path.read_text().splitlines()
    theta, p = lines[30].split(",")
    lines[30] = f"{theta},{float(p) + 1e-9!r}"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="curve differs"):
        op.check(result)


def test_audit_check_rejects_wrong_chsh(tmp_path):
    op, (angles, s, flips) = _operation(tmp_path, "audit")
    with pytest.raises(checks.CheckError, match="CHSH"):
        op.check((angles, s + 1e-5, flips))


def test_cleared_outputs_are_reported_missing(tmp_path):
    op, result = _operation(tmp_path, "audit")
    checks.clear_outputs(op.out)
    assert op.out.is_dir() and not any(p.is_file() for p in op.out.rglob("*"))
    with pytest.raises(checks.CheckError, match="missing output"):
        op.check(result)


@pytest.mark.parametrize("kind", ["interp", "files", "memory"])
def test_calibration_scales_to_reference_speed(tmp_path, kind):
    kernel = calibration.Kernel(kind, tmp_path / "calibration")
    assert kernel.seconds() > 0.0
    reference = calibration.REFERENCE_S[kind]
    # An operation of 1 s between kernels twice as slow as the reference takes 0.5 s at reference speed.
    assert kernel.at_reference_speed(1.0, 2.0 * reference, 2.0 * reference) == pytest.approx(0.5)
    assert not any(p.is_file() for p in tmp_path.rglob("*"))
