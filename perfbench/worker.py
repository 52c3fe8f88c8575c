"""One benchmark process: set a workload up, run one pass over its items
and print the outcome as a JSON line.

Every pass runs in a fresh interpreter that builds each quiver exactly
once (see README.md for the measured reason). ``run.py`` starts this with
``PYTHONPATH`` pointing at the library sources, and passes the moment it
spawned the process for the wall-clock set-up time of the run record.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from speed import STARTUP_REFERENCE_S, startup_reference
from workloads import WORK, WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="perf_counter() of the parent when it started this process")
    ap.add_argument("--quiver-seed", type=int)
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        if not wl.traced_in_children:
            tracer.install()
    seed = wl.default_seed if args.quiver_seed is None else args.quiver_seed
    wl.setup(seed)
    # CPU time of the main thread since the process started, interpreter
    # start-up included, scaled to the reference speed (speed.py)
    setup_cpu = time.thread_time()
    out = {"setup_wall_s": time.perf_counter() - args.spawned_at, "setup_cpu_s": setup_cpu,
           "setup_s": setup_cpu * STARTUP_REFERENCE_S / startup_reference()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    wl.prepare()
    order = list(range(len(wl.items())))
    random.Random(args.order_seed).shuffle(order)
    wall = time.perf_counter()
    raw, scaled, problems = wl.timed_pass(order, tracer)
    out["pass_wall_s"] = time.perf_counter() - wall
    out["pass_cpu_s"] = sum(raw)
    out["pass_s"] = sum(scaled)
    gate = wl.check()
    out["attempted"] = len(order)
    # a pass whose gate fails (digest, pinned counts) fails as a whole
    out["failed"] = len(order) if gate else len(problems)
    out["problems"] = (gate + problems)[:10]
    latencies = [0.0] * len(order)   # by item, not by the order they ran in
    for n, t in zip(order, scaled):
        latencies[n] = t * 1e3
    out["latencies_ms"] = latencies
    out["rss_kb"] = resource.getrusage(wl.rusage_who).ru_maxrss
    if wl.traced_in_children and tracer is not None:
        out["trace"] = wl.merged_trace()
    elif tracer is not None:
        out["trace"] = {"raw": tracer.raw(), "uncovered": tracer.uncovered()}
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "traces" / f"{wl.name}-seed{seed}-order{args.order_seed}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
