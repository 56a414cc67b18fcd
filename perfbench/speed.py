"""How fast the host runs right now, and times scaled to a nominal speed.

The benchmark runs on shared virtual machines whose speed drifts: the same
fixed pure-Python loop takes anywhere from about 0.7x to 1.5x its typical
time, switching every few seconds on each vCPU, and a whole host can stay
slower for many minutes.  A raw wall time therefore measures the host as
much as jshm.  The benchmark times a fixed reference next to every
operation and divides the operation's time by the reference's slowness
(its time over its nominal time), which gives the time the operation
would take on the nominal host.

There are two references, because interpreter arithmetic and process
start do not slow down together on these hosts:

- the loop: short-lived integers only, with the garbage collector off, so
  what jshm keeps in memory does not slow it; for operations that run
  inside the worker;
- the start: a bare ``python -I -S -c pass``, which imports nothing, so
  no change to jshm changes it; for set-up and for the CLI commands, which
  start an interpreter each.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

LOOP_STEPS = 8_000
LOOP_NOMINAL_S = 0.001  # the loop's time on the nominal host
START_NOMINAL_S = 0.011  # a bare interpreter's start on the nominal host
WINDOW = 3  # references on each side of an operation that set its scale


def loop_slowness() -> float:
    """Time of the reference loop now over its nominal time (best of two)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            x = 1
            for i in range(LOOP_STEPS):
                x = (x * 1103515245 + i) & 0xFFFFFFFF
            best = min(best, time.perf_counter() - start)
        return best / LOOP_NOMINAL_S
    finally:
        if enabled:
            gc.enable()


def start_slowness() -> float:
    """Time of a bare interpreter start now over its nominal time (best of two)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True,
                       stdin=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best / START_NOMINAL_S


def scaled(times: list[float], slowness: list[float]) -> list[float]:
    """Divide times[i] by the median of the slowness measured near it.

    slowness[i] is measured just after times[i]; the median of the WINDOW
    values on either side smooths out a single disturbed reference.
    """
    return [t / statistics.median(slowness[max(0, i - WINDOW):i + WINDOW + 1])
            for i, t in enumerate(times)]
