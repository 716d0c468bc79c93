"""Machine-speed calibration: fixed kernels timed between operations.

The reference machine is a few cores of a shared host, and its speed moves
by a third or more from one minute to the next and between runs, and every
operation slows with it.  A kernel of fixed work that uses none of wdmqkd
is timed right before and right after each operation; the operation's time
divided by the mean of the two, times the kernel's reference time, is the
operation's time at the reference speed.  A change in the program moves
that figure in full, since the kernel does not change; a change in the
machine's speed moves both and cancels.

Each workload uses the kernel that does its kind of work:

``interp``  many numpy calls on short arrays, Python loops and arithmetic,
            as in audit;
``files``   two passes of ``interp``, then 7 small files created, written
            and removed in a directory of the run, as in characterize,
            whose operations each write 194 files: on a filesystem shared
            with other tenants, the system time of creating and removing
            files moved by a factor of five while ``interp`` moved by a
            quarter.  The mix is the least-squares fit of characterize's
            operation times to the two parts' times over eight runs;
``memory``  a few passes over arrays of 2e6 doubles, as in keying's
            per-pair arrays and in the interpreter's start-up, which loads
            modules into memory (bench/run_bench.py scales set-up time
            with it).  Its arrays are made and freed inside the kernel
            (about 50 MB at peak, below keying's own peak).

``REFERENCE_S`` are the kernels' median times on the reference machine
(bench/README.md), so figures at the reference speed read close to raw
figures there.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

REFERENCE_S = {"interp": 2.5e-3, "files": 7e-3, "memory": 25e-3}

_SHORT = np.linspace(0.0, 1.0, 64)
_CSV = "".join(f"{10 * k},{100 + k}\n" for k in range(19))


def _interp() -> float:
    acc = 0.0
    for i in range(400):
        acc += float(np.cos(_SHORT * i).sum()) + sum(range(i % 50))
    return acc


def _files(directory: Path) -> None:
    _interp()
    _interp()
    paths = [directory / f"kernel{k}.csv" for k in range(7)]
    for path in paths:
        path.write_text(_CSV)
    for path in paths:
        path.unlink()


def _memory() -> float:
    x = np.linspace(0.0, 1.0, 2_000_000)
    y = x * 3.0 + 1.0
    return float(np.where(y > 2.5, y, 0.0).sum())


class Kernel:
    """One calibration kernel; ``directory`` holds the files kernel's files."""

    def __init__(self, kind: str, directory: Path) -> None:
        self.kind = kind
        if kind == "files":
            directory.mkdir(parents=True, exist_ok=True)
            self._run = lambda: _files(directory)
        else:
            self._run = {"interp": _interp, "memory": _memory}[kind]

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def at_reference_speed(self, seconds: float, before: float, after: float) -> float:
        """seconds measured between two kernel passes, scaled to the reference speed."""
        return seconds * REFERENCE_S[self.kind] / (0.5 * (before + after))
