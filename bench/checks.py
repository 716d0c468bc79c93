"""Output checks of the three workloads.

Each check reads what one operation wrote (or returned) and compares it with
bench/reference.py or with a property the method must have.  None compares
with a stored copy of earlier output.  A failed check raises CheckError with
the file and the value at fault.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import reference as ref

# characterize: bounds per scan.  Totals are Poisson sums over 19 points;
# fitted peaks are compared in units of their reported standard error.
POISSON_Z = 7.0
THETA_Z_MAX = 8.0
THETA_Z_COVERED = 3.0
MIN_COVERED_SHARE = 0.99  # acceptance 7 of the test suite
VISIBILITY_ABS_TOL = 0.08
# keying: binomial bounds on error rates and the sifted fraction.
BINOMIAL_Z = 6.0
# audit: the program's closed forms against the reference.
CURVE_TOL = 1e-12
PEAK_TOL_DEG = 1e-6
VISIBILITY_TOL = 1e-9
CHSH_TOL = 1e-6
DEGENERATE_PEAK = 1e-20

SCAN_ANGLES = [float(a) for a in range(0, 181, 10)]
SIGNAL_ANGLES = (0.0, 45.0, 90.0, 135.0)


class CheckError(AssertionError):
    """An output of the program disagrees with the reference or a required property."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _label(theta: float) -> str:
    return format(float(theta), "g")


def clear_outputs(out: Path) -> None:
    """Remove every file under out (its directories stay), so each operation writes afresh.

    Files rewritten in place are flushed to disk as they close (ext4 does so
    for a file truncated and rewritten), which made each operation wait on
    the shared disk; new files that are removed within the same second
    never reach it.  A file the operation did not write is then missing.
    """
    if out.is_dir():
        for path in out.rglob("*"):
            if path.is_file():
                path.unlink()


def _read(path: Path) -> str:
    require(path.is_file(), f"missing output {path.name}")
    return path.read_text()


def _load_json(path: Path):
    return json.loads(_read(path))


def _read_scan(path: Path) -> tuple[dict, list[float], list[int]]:
    meta, angles, counts = {}, [], []
    rows = _read(path).splitlines()
    body = [line for line in rows if not line.startswith("#")]
    for line in rows:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    require(body[0] == "theta_deg,counts", f"{path.name}: bad header {body[0]!r}")
    for line in body[1:]:
        theta, count = line.split(",")
        angles.append(float(theta))
        counts.append(int(count))
    return meta, angles, counts


def scan_mean_total(psi, theta_s: float, detection: dict) -> float:
    """Expected count total of one idler scan over SCAN_ANGLES."""
    p = ref.coincidence(psi, theta_s, SCAN_ANGLES)
    rate = detection["pair_rate_cps"] * detection["efficiency_signal"] * detection["efficiency_idler"]
    return float(detection["integration_time_s"] * (rate * p + detection["accidental_rate_cps"]).sum())


def check_characterize(out: Path, config: dict, op_seed: int) -> list[float]:
    """Check one simulate-fit run; returns the peak deviations in standard errors."""
    source, detection = config["source"], config["detection"]
    table = ref.channel_table(source)
    rows = _load_json(out / "simulate_fit_summary.json")["rows"]
    require(len(rows) == 4 * len(table), f"summary has {len(rows)} rows, want {4 * len(table)}")
    z_values = []
    for row in rows:
        k, ts = row["channel"], row["theta_s_deg"]
        where = f"channel {k} theta_s {ts}"
        require("error" not in row, f"{where}: error row {row.get('error')!r}")
        lam, f = table[k]
        require(abs(row["lambda_signal_nm"] - lam) <= 1e-9, f"{where}: wavelength {row['lambda_signal_nm']}")
        psi = ref.entangled_state(f, source["alpha_deg"])
        stem = f"ch{k:02d}_thetas_{_label(ts)}"

        meta, angles, counts = _read_scan(out / f"scan_{stem}.csv")
        require(meta.get("seed") == str(op_seed), f"{where}: scan seed {meta.get('seed')}")
        require(angles == SCAN_ANGLES, f"{where}: scanned angles {angles}")
        mean = scan_mean_total(psi, ts, detection)
        total = sum(counts)
        require(
            min(counts) >= 0 and abs(total - mean) <= POISSON_Z * math.sqrt(mean) + 1.0,
            f"{where}: count total {total}, expected {mean:.1f}",
        )

        fit = _load_json(out / f"fit_{stem}.json")
        require(
            fit["v"] == row["visibility"] and fit["theta0_deg"] % 180.0 == row["theta_max_deg"],
            f"{where}: fit report and summary disagree",
        )
        peak, vis, _ = ref.scan_peak(psi, ts)
        require(
            abs(row["visibility"] - vis) <= VISIBILITY_ABS_TOL,
            f"{where}: visibility {row['visibility']:.4f}, reference {vis:.4f}",
        )
        err = row["theta_max_err_deg"]
        require(err > 0.0 and math.isfinite(err), f"{where}: peak error bar {err}")
        z = ref.circular_difference(row["theta_max_deg"], peak) / err
        require(abs(z) <= THETA_Z_MAX, f"{where}: peak {row['theta_max_deg']:.3f} is {z:.1f} errors from {peak:.3f}")
        z_values.append(z)
    return z_values


def check_coverage(z_values: list[float]) -> None:
    """Share of fitted peaks within 3 reported errors of the reference peak.

    Judged on the whole run, as acceptance 7 judges 500 scans: below 2000
    scans a share under 99 % can be chance, so there the run fails only when
    the binomial tail of the outside count at a 1 % rate is below 1e-6.
    """
    n = len(z_values)
    outside = sum(abs(z) > THETA_Z_COVERED for z in z_values)
    if n >= 2000:
        require(outside <= (1.0 - MIN_COVERED_SHARE) * n, f"{outside} of {n} peaks outside 3 errors")
        return
    q = 1.0 - MIN_COVERED_SHARE
    log_term = lambda j: (
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(q) + (n - j) * math.log1p(-q)
    )
    tail = sum(math.exp(log_term(j)) for j in range(outside, n + 1))
    require(tail >= 1e-6, f"{outside} of {n} peaks outside 3 errors (tail {tail:.2e})")


def check_keying(out: Path, config: dict) -> int:
    """Check one qkd run; returns the number of pairs keyed."""
    source, qkd = config["source"], config["qkd"]
    n = qkd["n_pairs"]
    flips = (qkd["flip_rectilinear"], qkd["flip_diagonal"])
    table = ref.channel_table(source)
    reports = _load_json(out / "key_reports.json")
    require(len(reports) == len(table), f"{len(reports)} key reports, want {len(table)}")
    rows = list(csv.DictReader(_read(out / "key_reports.csv").splitlines()))
    require(len(rows) == len(table), "key_reports.csv row count")
    for k, (report, (lam, f)) in enumerate(zip(reports, table)):
        where = f"channel {k}"
        require(abs(report["lambda_nm"] - lam) <= 1e-9, f"{where}: wavelength {report['lambda_nm']}")
        sifted = report["sifted_bits"]
        require(
            abs(sifted - n / 2.0) <= BINOMIAL_Z * math.sqrt(n / 4.0),
            f"{where}: {sifted} sifted bits of {n} pairs",
        )
        want = ref.qbers(ref.entangled_state(f, source["alpha_deg"]), flips)
        n_basis = sifted / 2.0
        for name, q_ref in zip(("qber_rect", "qber_diag"), want):
            q = report[name]
            bound = BINOMIAL_Z * math.sqrt(q_ref * (1.0 - q_ref) / n_basis) + 1.0 / n_basis
            require(abs(q - q_ref) <= bound, f"{where}: {name} {q:.6f}, reference {q_ref:.6f}")
        fraction = ref.secret_fraction(report["qber_rect"], report["qber_diag"])
        require(abs(report["secret_fraction"] - fraction) <= 1e-12, f"{where}: secret fraction")
        require(
            math.isclose(report["secret_bits"], sifted * fraction, rel_tol=1e-12, abs_tol=1e-9),
            f"{where}: secret bits",
        )
    totals = _load_json(out / "qkd_summary.json")
    require(totals["n_channels"] == len(reports), "summary channel count")
    require(totals["total_sifted_bits"] == sum(r["sifted_bits"] for r in reports), "total sifted bits")
    require(
        math.isclose(totals["total_secret_bits"], sum(r["secret_bits"] for r in reports), rel_tol=1e-12, abs_tol=1e-9),
        "total secret bits",
    )
    return n * len(reports)


def check_audit(out: Path, psi, product: bool, chsh: tuple, flips: tuple[bool, bool]) -> None:
    """Check one channel audit: theory scans, their summary, CHSH and flips."""
    for ts in SIGNAL_ANGLES:
        path = out / f"theory_scan_thetas_{_label(ts)}.csv"
        lines = _read(path).splitlines()
        require(lines[0] == "theta_i_deg,rate" and len(lines) == 181, f"{path.name}: layout")
        values = [tuple(map(float, line.split(","))) for line in lines[1:]]
        thetas = [t for t, _ in values]
        require(thetas == [float(t) for t in range(180)], f"{path.name}: idler grid")
        want = ref.coincidence(psi, ts, thetas)
        worst = max(abs(p - w) for (_, p), w in zip(values, want))
        require(worst <= CURVE_TOL, f"{path.name}: curve differs by {worst:.2e}")

    summary = _load_json(out / "theory_scan_summary.json")
    require(summary["state"]["kind"] == ("product" if product else "entangled"), "state kind")
    rows = summary["rows"]
    require([r["theta_s_deg"] for r in rows] == list(SIGNAL_ANGLES), "summary signal angles")
    ref_peak0 = ref.scan_peak(psi, 0.0)[0]
    for row in rows:
        ts = row["theta_s_deg"]
        peak, vis, top = ref.scan_peak(psi, ts)
        degenerate = top <= DEGENERATE_PEAK
        require(row["degenerate"] == degenerate, f"theta_s {ts}: degenerate flag {row['degenerate']}")
        if degenerate:
            require(row["visibility"] == 0.0, f"theta_s {ts}: degenerate scan has visibility")
            continue
        require(
            abs(ref.circular_difference(row["theta_max_deg"], peak)) <= PEAK_TOL_DEG,
            f"theta_s {ts}: peak {row['theta_max_deg']}, reference {peak}",
        )
        require(
            abs(ref.circular_difference(row["shift_deg"], ref.circular_difference(peak, ref_peak0))) <= PEAK_TOL_DEG,
            f"theta_s {ts}: shift {row['shift_deg']}",
        )
        require(abs(row["visibility"] - vis) <= VISIBILITY_TOL, f"theta_s {ts}: visibility {row['visibility']}")
    if product:
        peaks = {r["theta_max_deg"] for r in rows}
        require(len(peaks) == 1, f"product-state peak depends on theta_s: {sorted(peaks)}")

    angles, s = chsh
    s_max = ref.chsh_max(psi)
    require(abs(s - s_max) <= CHSH_TOL, f"CHSH {s:.9f}, Horodecki bound {s_max:.9f}")
    require(abs(ref.chsh(psi, *angles) - s) <= 1e-9, f"CHSH angles {angles} do not give {s}")
    if product:
        require(s <= 2.0 + 1e-9, f"product state CHSH {s} above 2")
    for basis, flip in zip((0.0, 45.0), flips):
        e = ref.correlation(psi, basis, basis)
        if abs(e) > 1e-9:
            require(flip == (e < 0.0), f"flip in basis {basis} is {flip}, correlation {e:.6f}")
