"""Command-line front end.

Subcommands:
    theory-scan        analytic idler-scan curves and peak-shift summary
    simulate-fit       Monte Carlo scans per channel, fitted fringe reports
    spectrum           per-channel wavelengths, rates and ratio estimates
    qkd                per-channel key exchange and the multiplexed totals
    reproduce-figures  theory scans for the four standard parameter sets

Every command takes --config/--seed/--out, creates its output
directory once, writes its outputs plus a resolved-config echo into it, and
is byte-deterministic under a fixed seed.  Exit status is 0 on success
(degenerate scans are flagged in the summaries, not errors), 2 for a
configuration problem or any other rejected value (e.g. qkd on a channel
with zero rate in both bands, of either source kind), and 1 for I/O failures.

This module alone turns results into file text.  Every CSV is a header
line, then one line per row of ``repr`` values joined by commas (a scan
CSV starts with '# ' comment lines), written a column at a time; every
JSON file is indented with sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from .biphoton import BiphotonPureState, PairState, ProductState, coincidence_probabilities
from .config import ConfigError, RunConfig, config_to_dict, load_config, source_channels, source_state
from .correlation import shift_table
from .detection import simulate_scans
from .qkd import run_bbm92, wdm_aggregate
from .scanfit import fit_scans, scan_metrics
from .spectral import estimate_f

__all__ = [
    "main",
    "cmd_theory_scan",
    "cmd_simulate_and_fit",
    "cmd_spectrum",
    "cmd_qkd",
    "cmd_reproduce_figures",
]

FIXED_SIGNAL_ANGLES_DEG = (0.0, 45.0, 90.0, 135.0)
# 180 deg stays: the benchmark and acceptance grids scan 0-180, and with one
# stream per scan it is a second, independent measurement of the 0-deg setting.
SCAN_ANGLES_DEG = tuple(float(a) for a in range(0, 181, 10))
# theory-scan's idler grid: 0-179 deg in 1-deg steps
THEORY_GRID_DEG = tuple(float(a) for a in range(180))

# Parameter sets of the standard model plots: (directory, f, alpha_deg).
FIGURE_SETS = (
    ("f1_alpha0", 1.0, 0.0),
    ("f1_alpha180", 1.0, 180.0),
    ("f1_alpha60", 1.0, 60.0),
    ("f173_alpha0", 1.73, 0.0),
)

# Column names of the key tables (CSV and JSON), one per ChannelKeyReport field in order.
REPORT_COLUMNS = ("lambda_nm", "sifted_bits", "qber_rect", "qber_diag", "secret_fraction", "secret_bits")


def _text(values) -> tuple[str, ...]:
    """A CSV column's text: the repr of each value."""
    return tuple(map(repr, values))


_THEORY_GRID_TEXT, _SCAN_ANGLES_TEXT = _text(THEORY_GRID_DEG), _text(SCAN_ANGLES_DEG)


def _write_csv(path: Path, header, columns, comments=()) -> None:
    """'# ' comment lines, the header line, then each row of the text columns, one per header name, joined by commas."""
    if len(columns) != len(header):
        raise ValueError(f"{path.name}: {len(columns)} columns under {len(header)} header names")
    rows = map(",".join, zip(*columns, strict=True))
    path.write_text("\n".join([*(f"# {line}" for line in comments), ",".join(header), *rows]) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(cfg: RunConfig) -> Path:
    """A command's output directory, created (with its parents) if missing."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _angle_label(theta: float) -> str:
    return format(float(theta), "g")


def cmd_theory_scan(
    cfg: RunConfig,
    f: float | None = None,
    alpha_deg: float | None = None,
    theta_s_list=None,
    product: bool = False,
) -> dict:
    """Write analytic scan curves and the peak-shift summary.

    One CSV per fixed signal angle (idler on a 1-degree grid) plus a JSON
    summary with peak positions, shifts against theta_s = 0, visibilities
    and degeneracy flags.  Two different angles that would share one file
    name raise ValueError before anything is written.
    """
    if product or (f is None and cfg.source.kind == "product"):
        state: PairState = ProductState()
        described = {"kind": "product"}
    else:
        state = BiphotonPureState.from_degrees(
            f if f is not None else 1.0,
            alpha_deg if alpha_deg is not None else cfg.source.alpha_deg,
        )
        described = {"kind": "entangled", "f": state.f, "alpha_deg": math.degrees(state.alpha)}
    thetas = tuple(theta_s_list) if theta_s_list else (0.0, 45.0, 135.0)
    curves = coincidence_probabilities(state, np.array(thetas)[:, None], THEORY_GRID_DEG).tolist()
    labels = [_angle_label(ts) for ts in thetas]
    first: dict[str, float] = {}  # label -> the first angle written under it
    for label, ts in zip(labels, thetas):
        if first.setdefault(label, ts) != ts:
            raise ValueError(
                f"theta_s_list: {first[label]!r} and {ts!r} would share the file "
                f"theory_scan_thetas_{label}.csv"
            )
    out = _out_dir(cfg)
    for label, rates in zip(labels, curves):
        _write_csv(out / f"theory_scan_thetas_{label}.csv", ("theta_i_deg", "rate"), (_THEORY_GRID_TEXT, _text(rates)))
    rows = []
    for entry in shift_table(state, thetas, reference=0.0):
        rows.append(
            {
                "theta_s_deg": entry.theta_s,
                "theta_max_deg": entry.theta_max,
                "shift_deg": entry.shift,
                "visibility": entry.visibility,
                "degenerate": entry.degenerate,
            }
        )
    summary = {"state": described, "rows": rows}
    _write_json(out / "theory_scan_summary.json", summary)
    return summary


def cmd_simulate_and_fit(cfg: RunConfig) -> dict:
    """Simulate idler scans per channel and fixed signal angle, then fit them.

    Each channel's scans are simulated in one call, and the whole run's
    scans are fitted in one batched solve.  Writes one scan CSV and one fit
    JSON per (channel, angle) and a summary with fitted peaks and
    visibilities.  Failures (a fit that cannot run, a channel with no state:
    dark under either source kind, or an entangled one whose ratio is infinite
    under the configured convention) are recorded per row and do not abort the run.
    """
    rows, scanned = [], []  # scanned: (file stem, scan, its summary row)
    for k, channel in enumerate(source_channels(cfg.source)):
        head = {"channel": k, "lambda_signal_nm": channel.lambda_signal}
        try:
            state = source_state(cfg.source, channel)
        except ValueError as exc:
            rows.append({**head, "error": str(exc)})
            continue
        scans = simulate_scans(
            state, "signal", FIXED_SIGNAL_ANGLES_DEG, SCAN_ANGLES_DEG, cfg.detection, channel_id=k
        )
        for ts, scan in zip(FIXED_SIGNAL_ANGLES_DEG, scans):
            rows.append({**head, "theta_s_deg": ts})
            scanned.append((f"ch{k:02d}_thetas_{_angle_label(ts)}", scan, rows[-1]))
    fits = fit_scans([scan for _, scan, _ in scanned])
    out = _out_dir(cfg)
    for (stem, scan, row), fit in zip(scanned, fits):
        _write_csv(
            out / f"scan_{stem}.csv",
            ("theta_deg", "counts"),
            (_SCAN_ANGLES_TEXT, _text(scan.counts)),
            (f"fixed_arm={scan.theta_fixed_arm}", f"fixed_theta_deg={scan.theta_fixed!r}", f"seed={scan.config.seed}"),
        )
        if isinstance(fit, ValueError):
            row["error"] = str(fit)
            continue
        fitted = {
            "c": fit.c,
            "v": fit.v,
            "theta0_deg": fit.theta0,
            "c_err": fit.c_err,
            "v_err": fit.v_err,
            "theta0_err_deg": fit.theta0_err,
            "chi2_reduced": fit.chi2_reduced,
        }
        _write_json(out / f"fit_{stem}.json", fitted)
        metrics = scan_metrics(fit)
        row.update(
            {
                "theta_max_deg": metrics.theta_max,
                "theta_max_err_deg": metrics.theta_max_err,
                "visibility": metrics.visibility,
                "visibility_err": metrics.visibility_err,
            }
        )
    summary = {"rows": rows}
    _write_json(out / "simulate_fit_summary.json", summary)
    return summary


def cmd_spectrum(cfg: RunConfig) -> list[dict]:
    """Write the per-channel wavelength/rate table with both ratio readings.

    A dark channel (both rates zero) has no ratio; its readings are NaN.
    """
    rows = []
    for channel in source_channels(cfg.source):
        f_hat, f_hat_inv = estimate_f(channel.rate_HV, channel.rate_VH)
        rows.append(
            {
                "lambda_signal_nm": channel.lambda_signal,
                "lambda_idler_nm": channel.lambda_idler,
                "rate_hv": channel.rate_HV,
                "rate_vh": channel.rate_VH,
                "f_hat": f_hat,
                "f_hat_inv": f_hat_inv,
            }
        )
    _write_csv(_out_dir(cfg) / "spectrum.csv", rows[0], [_text(c) for c in zip(*(row.values() for row in rows))])
    return rows


def cmd_qkd(cfg: RunConfig) -> dict:
    """Run the key exchange on every channel and write reports plus totals."""
    reports = [
        run_bbm92(source_state(cfg.source, channel), cfg.qkd, channel_id=k, lambda_signal=channel.lambda_signal)
        for k, channel in enumerate(source_channels(cfg.source))
    ]
    summary = wdm_aggregate(reports)
    out = _out_dir(cfg)
    table = [astuple(r) for r in summary.channels]
    _write_csv(out / "key_reports.csv", REPORT_COLUMNS, [_text(c) for c in zip(*table)])
    # the JSON table writes a NaN QBER (no pair sifted in that basis) as null
    nulled = ([None if math.isnan(v) else v for v in row] for row in table)
    _write_json(out / "key_reports.json", [dict(zip(REPORT_COLUMNS, row, strict=True)) for row in nulled])
    totals = {
        "n_channels": len(summary.channels),
        "total_sifted_bits": summary.total_sifted_bits,
        "total_secret_bits": summary.total_secret_bits,
    }
    _write_json(out / "qkd_summary.json", totals)
    return totals


def cmd_reproduce_figures(cfg: RunConfig) -> dict:
    """Regenerate the analytic curves behind the standard model plots.

    Runs theory-scan for the four parameter sets (f, alpha_deg) =
    (1, 0), (1, 180), (1, 60), (1.73, 0) at signal angles 0/45/90/135 and
    collects the peak shifts into one summary.
    """
    out = _out_dir(cfg)
    collected = {}
    for name, f, alpha_deg in FIGURE_SETS:
        collected[name] = cmd_theory_scan(
            replace(cfg, out_dir=str(out / name)),
            f=f,
            alpha_deg=alpha_deg,
            theta_s_list=FIXED_SIGNAL_ANGLES_DEG,
        )
    _write_json(out / "figure_summary.json", collected)
    return collected


def _parse_theta_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"--theta-s expects comma-separated degrees, got {text!r}") from None
    if not values:
        raise ConfigError("--theta-s lists no angles")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"--theta-s angles must be finite, got {text!r}")
    return values


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", metavar="DIR", default=None, help="override the output directory")


def _theory_scan(cfg: RunConfig, args: argparse.Namespace) -> None:
    cmd_theory_scan(
        cfg,
        f=args.f,
        alpha_deg=args.alpha_deg,
        theta_s_list=_parse_theta_list(args.theta_s),
        product=args.product,
    )


# Subcommand name -> (help, run(cfg, args)).
COMMANDS = {
    "theory-scan": ("analytic scan curves and peak shifts", _theory_scan),
    "simulate-fit": (
        "Monte Carlo scans and fringe fits per channel",
        lambda cfg, args: cmd_simulate_and_fit(cfg),
    ),
    "spectrum": ("per-channel wavelength and rate table", lambda cfg, args: cmd_spectrum(cfg)),
    "qkd": ("per-channel key exchange and totals", lambda cfg, args: cmd_qkd(cfg)),
    "reproduce-figures": (
        "theory scans for the four standard parameter sets",
        lambda cfg, args: cmd_reproduce_figures(cfg),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="wdmqkd",
        description="Pair-source polarization correlations, scan fits and per-channel key rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_common_options(sub.add_parser(name, help=help_text))
    p_theory = sub.choices["theory-scan"]
    p_theory.add_argument("--f", type=float, default=None, help="amplitude ratio (default 1)")
    p_theory.add_argument("--alpha-deg", type=float, default=None, help="relative phase, degrees")
    p_theory.add_argument(
        "--theta-s", default="0,45,135", help="comma-separated fixed signal angles, degrees"
    )
    p_theory.add_argument("--product", action="store_true", help="use the +45 product state")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = replace(
            cfg,
            detection=replace(cfg.detection, seed=args.seed),
            qkd=replace(cfg.qkd, seed=args.seed),
        )
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        COMMANDS[args.command][1](cfg, args)
        _write_json(Path(cfg.out_dir) / "config_echo.json", config_to_dict(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
