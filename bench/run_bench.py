"""Benchmark of wdmqkd: source characterization, multiplexed keying, channel audit.

    python3 bench/run_bench.py --workload characterize --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload audit --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  The inputs are made from --seed; each
workload then runs in fresh interpreters (bench/workloads.py) with the
checkout's src/ on the import path.  Set-up time is the median over
SETUP_LAUNCHES launches of the time from process start until wdmqkd.cli is
imported, the config loaded and the channel table built, each scaled to
the reference machine speed by a calibration kernel timed right before and
after it (bench/calibration.py).  The last stdout line is the JSON result;
the lines before it name every figure with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_LAUNCHES = 10
CHILD_TIMEOUT_S = 170.0


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One caller, one thread: numpy's BLAS pools stay at a single thread.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _launch(plan: Path, mode: str, deadline: float) -> tuple[float, str]:
    """Start one workload process; returns (seconds until it is set up, rest of its stdout)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), str(plan), mode],
        stdout=subprocess.PIPE,
        text=True,
        env=_environment(),
        cwd=ROOT,
    )
    try:
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = child.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise SystemExit(f"workload process ({mode}) did not finish in time")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if ready.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"workload process ({mode}) failed with exit code {child.returncode}")
    return setup_s, rest


def _setup_launch(plan: Path, kernel: calibration.Kernel, deadline: float) -> tuple[float, float]:
    """One launch that only sets up; returns (its set-up time at the reference speed, its wall time)."""
    before = kernel.seconds()
    setup_s = _launch(plan, "setup", deadline)[0]
    after = kernel.seconds()
    return kernel.at_reference_speed(setup_s, before, after), setup_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "wdmqkd" / "cli.py").is_file():
        print(f"no wdmqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = make_inputs(args.workload, args.seed, args.seconds, work)
        # Set-up launches before and after the measured run, so that the
        # median does not rest on one moment of a shared machine.  Set-up is
        # user time spent loading modules, which moved with the memory kernel.
        kernel = calibration.Kernel("memory", work)
        kernel.seconds()  # warm-up
        extra = 0 if args.trace else SETUP_LAUNCHES // 2
        setups = [_setup_launch(plan, kernel, deadline) for _ in range(extra)]
        out = _launch(plan, "trace" if args.trace else "run", deadline)[1]
        setups += [_setup_launch(plan, kernel, deadline) for _ in range(extra)]
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"}, **metrics}
        result["info"]["setup_s_raw"] = statistics.median(raw for _, raw in setups)
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in result["info"].items():
        print(f"{args.workload:13s} {name:42s} {value:.6g}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
