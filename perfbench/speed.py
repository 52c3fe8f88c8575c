"""Scale CPU times to one reference machine speed.

On the shared 2-vCPU VMs this benchmark was built on, one CPU second of
the same Python code is worth up to twice as much work at one moment as at
another: a fixed 1M-step loop took 136 to 269 ms of CPU time within one
minute, in regimes lasting seconds, with hypervisor steal time excluded.
Raw times would move more between runs than any bound worth having.

So every ~0.25 s segment of timed work is bracketed by a short fixed
reference computation (frozen-dataclass keys hashed into a dict, like the
library's own word and letter records), and the segment's CPU times are
multiplied by ``REFERENCE_S / (mean of the two reference times)``. The
worker does this between items, and ``cli_child.py`` inside each command
process from a virtual-time interval timer. A reported
time is thus "CPU seconds at the speed where the reference takes
``REFERENCE_S``". A change to the library moves the work, not the
reference, so the ratio between two versions survives the scaling. The
raw CPU and wall times are kept in the run record.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time
from dataclasses import dataclass

REFERENCE_S = 0.0117   # the reference's CPU time, run alone on a quiet VM
SEGMENT_S = 0.25       # CPU seconds of work between two references
SHARE = 0.05           # reference time per second of work it scales
STARTUP_REFERENCE_S = 0.2   # startup_reference() on the same VM


@dataclass(frozen=True)
class _Cell:
    a: int
    b: str


def reference(runs: int) -> float:
    """Mean CPU seconds of one run of the fixed reference computation. The
    speed changes within milliseconds, so a longer stretch of work gets a
    longer reference. The collector stays off, so that the time does not
    depend on the size of the workload's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        for _ in range(runs):
            d: dict = {}
            for k in range(4000):
                key = (_Cell(k & 63, "ab"[k & 1]), k & 255)
                d[key] = d.get(key, 0) + 1
        return (time.thread_time() - t0) / runs
    finally:
        if enabled:
            gc.enable()


def _runs_for(seconds: float) -> int:
    return max(2, math.ceil(SHARE * seconds / REFERENCE_S))


class Scaler:
    """Collects raw per-item CPU times and scales them segment by segment."""

    def __init__(self):
        self.before = reference(_runs_for(SEGMENT_S))
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.pending = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.pending += seconds
        if self.pending >= SEGMENT_S:
            self.flush()

    def segment(self, seconds: float) -> None:
        """A stretch of work that ends here, scaled on its own."""
        self.raw.append(seconds)
        self.pending += seconds
        self.flush()

    def flush(self) -> None:
        after = reference(_runs_for(self.pending))
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.scaled.extend(t * factor for t in self.raw[len(self.scaled):])
        self.before, self.pending = after, 0.0


def startup_reference() -> float:
    """Main-thread CPU seconds of a fresh interpreter that imports numpy.

    Set-up is mostly interpreter start-up and imports (exec, mmap, page
    faults, unmarshalling), whose speed the Python reference above does not
    track, so a set-up time is scaled by this one instead, measured right
    after it.
    """
    out = subprocess.run([sys.executable, "-c", "import time, numpy; print(time.thread_time())"],
                         capture_output=True, text=True, check=True)
    return float(out.stdout)
