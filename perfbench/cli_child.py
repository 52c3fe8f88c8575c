"""Run the ``sga`` command line in this fresh interpreter, as the ``sga``
console script does, and record the CPU time it took at the reference
speed (speed.py).

Usage: cli_child.py OUT.json [--trace] -- [sga arguments...]

The command's output and exit code pass through unchanged. A virtual
timer interrupts the command after every SEGMENT_S of CPU time to time
the reference computation, whose own time is left out. OUT.json gets the
raw and scaled CPU seconds and, with --trace, the trace totals; the spans
go to OUT.npz beside it.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

from speed import SEGMENT_S, Scaler


def main() -> int:
    startup = time.thread_time()    # interpreter start-up, before any reference
    out = Path(sys.argv[1])
    sep = sys.argv.index("--")
    tracer = None
    if "--trace" in sys.argv[2:sep]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    scaler = Scaler()
    scaler.segment(startup)
    mark = time.thread_time()

    def tick(signum, frame):
        nonlocal mark
        scaler.segment(time.thread_time() - mark)
        mark = time.thread_time()

    signal.signal(signal.SIGVTALRM, tick)
    signal.setitimer(signal.ITIMER_VIRTUAL, SEGMENT_S, SEGMENT_S)
    try:
        from sga.cli import main as sga_main
        return sga_main(sys.argv[sep + 1:])
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        scaler.segment(time.thread_time() - mark)
        sys.stdout.flush()
        summary = {"cpu_s": sum(scaler.raw), "scaled_s": sum(scaler.scaled)}
        if tracer is not None:
            summary["trace"] = {"raw": tracer.raw(), "uncovered": tracer.uncovered()}
            tracer.dump(out.with_suffix(".npz"))
        out.write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main())
