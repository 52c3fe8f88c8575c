"""Benchmark of the sga library: one command, four workloads.

    python3 perfbench/run.py --workload kiss-census --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the library from ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is the run record (versions, machine, load, tracing overhead), also
written under ``.perfbench/records/``.

``--seed`` fixes the order of the items and the interpreter's hash seed;
``--quiver-seed`` replaces the workload's own random quiver, and then
only the dual-route and theorem checks gate correctness (README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402

# A run makes round(--seconds / PASS_SECONDS) whole passes, at least one,
# so every run of a workload does the same work whatever the machine's
# speed. Each workload's pass takes 4 to 10 CPU seconds on a 2-vCPU VM, so
# a 15 s run makes 2 passes: every item is timed in two orders, and the 92
# runs of a full benchmark fit in about 40 minutes.
PASS_SECONDS = 7.5
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten items beyond it,
    and that percentile; fewer than 20 items have no such percentile above
    their median, and report the slowest."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def spawn(workload: str, env: dict, *flags: str) -> dict:
    """One worker process; its JSON line, or the reason it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, *flags]
    spawned_at = perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"crash": f"{workload} worker timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": f"{workload} worker exit {proc.returncode}: {proc.stderr[-1500:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def timed_run(args, env, order_seeds) -> tuple[dict, dict]:
    """End-to-end metrics over whole passes, tracing off."""
    base = quiver_flags(args)
    passes = [spawn(args.workload, env, *base, "--order-seed", str(s)) for s in order_seeds]
    good = [p for p in passes if "crash" not in p]
    setups = list(good)
    while len(setups) < SETUP_SAMPLES:
        probe = spawn(args.workload, env, *base, "--setup-only")
        if "crash" in probe:
            good = []
            passes.append(probe)
            break
        setups.append(probe)
    if not good:
        fail(passes)
    # every pass runs every item once, in its own order; an item's latency
    # is its mean over the passes, which evens out when a collector pause
    # or a burst of machine noise happens to land on it
    per_item = [statistics.fmean(ts) for ts in zip(*(p["latencies_ms"] for p in good))]
    tail_ms, tail_pct = tail(per_item)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "items_per_s": (sum(p["attempted"] for p in good) / sum(p["pass_s"] for p in good), "1/s"),
        "item_p50_ms": (statistics.median(per_item), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (max(p["rss_kb"] for p in good) / 1024, "MB"),
    }
    notes = {"passes": len(order_seeds), "items_per_pass": len(per_item),
             "order_seeds": order_seeds, "tail_percentile": tail_pct}
    for key in ("setup_s", "setup_cpu_s", "setup_wall_s"):
        notes[key] = [p[key] for p in setups]
    for key in ("pass_s", "pass_cpu_s", "pass_wall_s"):
        notes[key] = [p[key] for p in good]
    return outcome(args, passes, metrics), notes


def traced_run(args, env, order_seed) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, against one untraced pass in
    the same order for the tracing overhead."""
    base = quiver_flags(args) + ["--order-seed", str(order_seed)]
    plain = spawn(args.workload, env, *base)
    traced = spawn(args.workload, env, *base, "--trace")
    if "crash" in plain or "crash" in traced:
        fail([plain, traced])
    trace = traced["trace"]
    metrics = layer_metrics(trace["raw"])
    overhead = traced["pass_s"] / plain["pass_s"]
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    wl = WORKLOADS[args.workload]
    entry_calls = trace["raw"]["calls"].get(wl.entry)
    if trace["uncovered"]:
        traced["problems"].append(f"unwrapped bindings left: {trace['uncovered']}")
    if entry_calls != traced["attempted"]:
        traced["problems"].append(
            f"{wl.entry} traced {entry_calls} calls for {traced['attempted']} items")
    if len(traced["problems"]) > 0 and traced["failed"] == 0:
        traced["failed"] = traced["attempted"]
    notes = {"tracing_overhead": overhead, "spans": trace["raw"]["spans"],
             "order_seed": order_seed, "untraced_pass_s": plain["pass_s"],
             "traced_pass_s": traced["pass_s"]}
    return outcome(args, [plain, traced], metrics), notes


def quiver_flags(args) -> list[str]:
    return [] if args.quiver_seed is None else ["--quiver-seed", str(args.quiver_seed)]


def outcome(args, passes, metrics) -> dict:
    pinned = WORKLOADS[args.workload].pinned["items"]
    attempted = sum(p.get("attempted", pinned) for p in passes)
    failed = sum(p.get("failed", pinned) for p in passes)
    problems = [p["crash"] for p in passes if "crash" in p] + \
        [x for p in passes for x in p.get("problems", [])]
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "problems": problems[:10],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def fail(passes) -> None:
    for p in passes:
        if "crash" in p:
            print(p["crash"], file=sys.stderr)
    sys.exit(1)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quiver-seed", type=int,
                    help="random quiver seed in place of the workload's own")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sga" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quiver_seed": args.quiver_seed,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(), "tracing_overhead": None,
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        PYTHONHASHSEED=str(args.seed % 2**32))
    # one CPU for this process and every process it starts, so that the
    # speed references and the work they scale run on the same CPU
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record["cpu"] = cpu
    rng = random.Random(args.seed)
    if args.trace:
        result, notes = traced_run(args, env, rng.randrange(2**31))
    else:
        passes = max(1, round(args.seconds / PASS_SECONDS))
        result, notes = timed_run(args, env, [rng.randrange(2**31) for _ in range(passes)])
    record.update(notes, problems=result.pop("problems"))
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
