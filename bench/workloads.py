"""Inputs of the three workloads and the process that runs one of them.

``make_inputs`` (standard library only) turns a workload name and seed into
a config file and a plan; the program sees nothing else.  Run as a script,
this file is one workload process:

    python3 bench/workloads.py PLAN MODE

It imports wdmqkd from the checkout, loads the config and builds the
channel table (the set-up the parent times up to the ``ready`` line), and
exits there in mode ``setup``.  In mode ``run`` it then repeats whole
rounds of operations until the plan's run length is used up, checking every
operation's outputs; in mode ``trace`` each round runs once untraced and
once with spans (bench/tracing.py), which gives the per-layer figures and
the tracing overhead.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

WORKLOADS = ("characterize", "keying", "audit")

CHARACTERIZE_CHANNELS = 24  # 96 scans of 19 points per operation
KEYING_CHANNELS = 4
KEYING_PAIRS = 2_000_000  # per channel
AUDIT_CHANNELS = 15  # 1 nm apart; each round adds the +45 product state

# The calibration kernel (bench/calibration.py) that does the same kind of
# work as each workload's operations.
CALIBRATION = {"characterize": "files", "keying": "memory", "audit": "interp"}

# Default source: equal-peak 8 nm FWHM Gaussian bands whose HV/VH rate ratio
# is 3 at 866 nm and 1 at 870 nm (centres split symmetrically about 870 nm).
_FWHM = 8.0
_SPLIT = _FWHM**2 * math.log(3.0) / (8.0 * math.log(2.0) * 4.0)


def _source(n_channels: int, alpha_deg: float = 0.0) -> dict:
    band = lambda center: {"center_nm": center, "fwhm_nm": _FWHM, "peak_cps": 1000.0}
    return {
        "kind": "entangled",
        "pump_nm": 429.7,
        "alpha_deg": alpha_deg,
        "f_convention": "ratio_as_f",
        "lambda_min_nm": 860.0,
        "lambda_max_nm": 874.0,
        "n_channels": n_channels,
        "hv_profile": band(870.0 - _SPLIT / 2.0),
        "vh_profile": band(870.0 + _SPLIT / 2.0),
        "spectrum_csv": None,
    }


def _audit_phase(rng: random.Random) -> float:
    """A phase uniform on [0, 360) deg outside 85-95 and 265-275 deg.

    Within about 1 deg of 90 and 270 deg, where the diagonal correlation
    nearly vanishes, chsh_optimize stops at S = 2 below the true maximum
    (see FOUND in CHANGES.md); those phases are left out until it is fixed.
    """
    alpha = rng.uniform(0.0, 340.0)
    for edge in (85.0, 265.0):
        if alpha >= edge:
            alpha += 10.0
    return alpha


def make_inputs(workload: str, seed: int, seconds: float, work: Path) -> Path:
    """Write config.json and plan.json for one run into work; returns the plan path."""
    rng = random.Random(f"wdmqkd-bench/{workload}/{seed}")
    config = {
        "seed": 0,
        "out_dir": str(work / "out"),
        "detection": {
            "pair_rate_cps": 2000.0,
            "efficiency_signal": 1.0,
            "efficiency_idler": 1.0,
            "accidental_rate_cps": 0.0,
            "integration_time_s": 1.0,
        },
        "fit": {"period_deg": 180.0},
        "qkd": {"n_pairs": KEYING_PAIRS, "flip_rectilinear": True, "flip_diagonal": False},
    }
    plan = {"workload": workload, "seconds": seconds, "work": str(work), "config": str(work / "config.json")}
    if workload == "characterize":
        config["source"] = _source(CHARACTERIZE_CHANNELS)
    elif workload == "keying":
        config["source"] = _source(KEYING_CHANNELS, alpha_deg=rng.uniform(0.0, 60.0))
    elif workload == "audit":
        config["source"] = _source(AUDIT_CHANNELS)
        plan["phases_deg"] = [_audit_phase(rng) for _ in range(AUDIT_CHANNELS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Per-operation program seeds (characterize, keying) are drawn from this.
    plan["op_seed_base"] = rng.randrange(2**31)
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(config, indent=2))
    path = work / "plan.json"
    path.write_text(json.dumps(plan, indent=2))
    return path


def op_seed(plan: dict, index: int) -> int:
    return random.Random(f"{plan['op_seed_base']}/{index}").randrange(2**31)


@dataclass
class Op:
    """One operation: the timed calls into the program and their output check."""

    run: Callable[[], object]
    check: Callable[[object], None]
    out: Path
    units: dict[str, int]


class OpFailed(Exception):
    pass


def _main(cli, argv: list[str]) -> None:
    status = cli.main(argv)
    if status != 0:
        raise OpFailed(f"wdmqkd {argv[0]} exited with {status}")


class Workload:
    """Builds the operations of each round; every round repeats the same kinds of work."""

    def __init__(self, plan: dict, channels) -> None:
        import checks
        import reference
        from wdmqkd import biphoton, cli, correlation, qkd, spectral

        self.plan = plan
        self.config = json.loads(Path(plan["config"]).read_text())
        self.channels = channels
        self.z_values: list[float] = []
        self.problems: list[str] = []
        self._checks, self._ref = checks, reference
        self._cli, self._biphoton, self._correlation, self._qkd, self._spectral = (
            cli, biphoton, correlation, qkd, spectral)
        source = self.config["source"]
        # The program's channel table must be the one the config describes.
        table = reference.channel_table(source)
        if len(table) != len(channels) or any(
            abs(channel.lambda_signal - lam) > 1e-9
            or not math.isclose(math.sqrt(channel.rate_VH / channel.rate_HV), f, rel_tol=1e-12)
            for channel, (lam, f) in zip(channels, table)
        ):
            self.problems.append("the program's channel table differs from the reference")

    def ops(self, index: int) -> list[Op]:
        return getattr(self, "_" + self.plan["workload"])(index)

    def _out(self, name: str) -> Path:
        # One output directory per position in the round, emptied before each operation.
        return Path(self.plan["work"]) / "ops" / name

    def _characterize(self, index: int) -> list[Op]:
        seed = op_seed(self.plan, index)
        out = self._out("characterize")
        argv = ["simulate-fit", "--config", self.plan["config"], "--seed", str(seed), "--out", str(out)]

        def check(_):
            self.z_values.extend(self._checks.check_characterize(out, self.config, seed))

        n = len(self.channels)
        return [Op(lambda: _main(self._cli, argv), check, out, {"channels": n, "scans": 4 * n})]

    def _keying(self, index: int) -> list[Op]:
        out = self._out("keying")
        argv = ["qkd", "--config", self.plan["config"], "--seed", str(op_seed(self.plan, index)), "--out", str(out)]
        n = len(self.channels)
        check = lambda _: self._checks.check_keying(out, self.config)
        return [Op(lambda: _main(self._cli, argv), check, out, {"channels": n, "pairs": n * KEYING_PAIRS})]

    def _audit(self, index: int) -> list[Op]:
        ops = [self._audit_op(k, channel, alpha) for k, (channel, alpha) in
               enumerate(zip(self.channels, self.plan["phases_deg"]))]
        return ops + [self._audit_op(len(ops), None, None)]

    def _audit_op(self, k: int, channel, alpha_deg) -> Op:
        out = self._out(f"audit{k:02d}")
        product = channel is None
        common = ["--theta-s", "0,45,90,135", "--config", self.plan["config"], "--out", str(out)]
        if product:
            psi = self._ref.product_state()
        else:
            f_ref = self._ref.channel_table(self.config["source"])[k][1]
            psi = self._ref.entangled_state(f_ref, alpha_deg)

        def run():
            if product:
                state = self._biphoton.ProductState()
                args = ["theory-scan", "--product", *common]
            else:
                channel_k = replace(channel, alpha=math.radians(alpha_deg))
                state = self._spectral.channel_state(channel_k, self.config["source"]["f_convention"])
                args = ["theory-scan", "--f", repr(state.f), "--alpha-deg", repr(alpha_deg), *common]
            _main(self._cli, args)
            settings, s = self._correlation.chsh_optimize(state)
            return (settings.a, settings.a_prime, settings.b, settings.b_prime), s, self._qkd.derive_flips(state)

        def check(result):
            angles, s, flips = result
            self._checks.check_audit(out, psi, product, (angles, s), flips)

        return Op(run, check, out, {"channels": 1})


class Timings:
    """Operation times per position in the round (the same work in every round).

    Each operation is timed between two passes of the calibration kernel;
    ``times`` holds its time at the reference speed, ``raw`` its wall time.
    """

    def __init__(self, plan: dict) -> None:
        import calibration

        self.kernel = calibration.Kernel(CALIBRATION[plan["workload"]], Path(plan["work"]) / "calibration")
        self.times: dict[int, list[float]] = {}
        self.raw: dict[int, list[float]] = {}
        self.units: dict[int, dict[str, int]] = {}
        self.attempted = self.failed = 0

    def run_round(self, workload: Workload, index: int, problems: list[str]) -> list[Op]:
        import checks

        ops = workload.ops(index)
        before = self.kernel.seconds()
        for slot, op in enumerate(ops):
            self.attempted += 1
            checks.clear_outputs(op.out)
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation that fails is counted, the run goes on
                print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                self.failed += 1
                before = self.kernel.seconds()
                continue
            elapsed = time.perf_counter() - start
            after = self.kernel.seconds()
            self.raw.setdefault(slot, []).append(elapsed)
            self.times.setdefault(slot, []).append(self.kernel.at_reference_speed(elapsed, before, after))
            self.units[slot] = op.units
            before = after
            try:
                op.check(result)
            except checks.CheckError as exc:
                problems.append(str(exc))
                print(f"check failed: {exc}", file=sys.stderr)
        return ops

    def total(self) -> float:
        return sum(sum(t) for t in self.raw.values())

    def rate(self, unit: str, raw: bool = False) -> float:
        """Units of one round over the sum of each position's median time."""
        seconds = sum(statistics.median(t) for t in (self.raw if raw else self.times).values())
        done = sum(units.get(unit, 0) for units in self.units.values())
        return done / seconds if seconds > 0.0 else 0.0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    Linux's VmHWM belongs to the process's own address space.  getrusage's
    ru_maxrss would also count the parent's resident memory at the fork
    that started this process (numpy and the calibration kernel there).
    """
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(plan: dict, channels, trace: bool) -> dict:
    workload = Workload(plan, channels)
    problems = workload.problems
    start = time.perf_counter()
    index = 0
    if not trace:
        timings = Timings(plan)
        while index == 0 or time.perf_counter() - start < plan["seconds"]:
            timings.run_round(workload, index, problems)
            index += 1
        attempted, failed = timings.attempted, timings.failed
        metrics = {
            "channels_per_s": (timings.rate("channels"), "channels/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        info = {"rounds": index, "channels_per_s_raw": timings.rate("channels", raw=True)}
        for unit in ("scans", "pairs"):
            if any(unit in units for units in timings.units.values()):
                info[f"{unit}_per_s"] = timings.rate(unit)
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = Timings(plan), Timings(plan)
        files = nbytes = 0
        while index == 0 or time.perf_counter() - start < plan["seconds"]:
            # Alternate which copy of the round goes first, so that warm-up
            # effects do not count as tracing overhead.
            if index % 2 == 0:
                plain.run_round(workload, index, problems)
            tracer.install()
            try:
                ops = traced.run_round(workload, index, problems)
            finally:
                tracer.uninstall()
            for op in ops:
                written = [p for p in op.out.rglob("*") if p.is_file()]
                files, nbytes = files + len(written), nbytes + sum(p.stat().st_size for p in written)
            if index % 2 == 1:
                plain.run_round(workload, index, problems)
            index += 1
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        metrics = tracer.per_op(max(traced.attempted - traced.failed, 1), files, nbytes)
        overhead = 100.0 * (traced.total() / plain.total() - 1.0) if plain.total() > 0.0 else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        info = {"rounds": index}
    if workload.z_values:
        try:
            workload._checks.check_coverage(workload.z_values)
        except workload._checks.CheckError as exc:
            problems.append(str(exc))
        info["peaks_within_3_errors"] = sum(abs(z) <= 3.0 for z in workload.z_values) / len(workload.z_values)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def setup(plan: dict, src: Path):
    """The timed set-up: import the CLI, load the config, build the channel table."""
    import wdmqkd.cli  # noqa: F401  (the import is part of what is timed)
    from wdmqkd.config import load_config, source_channels

    import wdmqkd

    if Path(wdmqkd.__file__).resolve().parent != (src / "wdmqkd").resolve():
        raise SystemExit(f"wdmqkd imported from {wdmqkd.__file__}, not from {src}")
    cfg = load_config(plan["config"])
    return source_channels(cfg.source)


def main(argv: list[str]) -> int:
    plan_path, mode = argv
    plan = json.loads(Path(plan_path).read_text())
    channels = setup(plan, Path(__file__).resolve().parent.parent / "src")
    print("ready", flush=True)
    if mode == "setup":
        return 0
    result = run(plan, channels, trace=(mode == "trace"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
