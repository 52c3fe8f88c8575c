"""Alternating before/after runs of the benchmark, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent 7f63084 --number 43 \\
        --pairs hom-sweep=12 --pairs kiss-census=6 --first-seed 4300 \\
        --claim hom-sweep:item_p50_ms --trace-seed 7

Run it from the repository root; it needs only the standard library and git.
The parent side is ``git archive PARENT``, the change side a copy of the
working tree (tracked and untracked files that git does not ignore), each
in its own directory under ``--workdir``; neither holds a ``__pycache__``,
and every run is started with ``PYTHONDONTWRITEBYTECODE=1`` and without
``PYTHONPATH``, so each side imports only its own ``src/``.

Pair k of a workload runs ``perfbench/run.py --seed first_seed + k`` on both
sides for BENCHMARK.json's ``run_seconds``, the parent first when k is even
and the change first when it is odd.
For each end-to-end metric the output records both sides' medians, the
parent's interquartile spread, the pairs the change wins (by the direction
BENCHMARK.json gives) and the raw runs; ``--trace-seed`` adds one traced run
per side and workload, and the per-layer counters that differ.

``--paired SHUFFLES`` adds a ``paired`` block (see :func:`paired`): both
sides timed item by item in this one process, on kiss-census, hom-sweep
and generic-e, with a self-check of the change against itself; with
``--paired`` alone, no perfbench run is made. The blocks a run does not
write are kept from an existing BENCH_<n>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# traced metrics that do not depend on the machine's speed
COUNTERS = (".calls", ".entries", ".hit_ratio", ".distinct_ratio", ".cells",
            "hq_vertices", "hq_arrows")
# the workloads that run in process; components-cli runs in child processes
PAIRED = ("kiss-census", "hom-sweep", "generic-e")
BOOTSTRAP = 1000


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def make_trees(parent: str, workdir: Path) -> dict[str, Path]:
    """The parent from ``git archive`` and the change from the working tree."""
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    archive = workdir / "parent.tar"
    archive.write_bytes(git("archive", parent))
    with tarfile.open(archive) as tar:
        tar.extractall(trees["parent"])
    archive.unlink()
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / os.fsdecode(name)
        if name and src.is_file() and "__pycache__" not in src.parts:
            dst = trees["change"] / os.fsdecode(name)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return trees


def run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"correct": False, "failed": None, "metrics": {},
                "problems": [f"exit {proc.returncode}: {proc.stderr[-500:]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def summary(parent: list[float], change: list[float], lower_better: bool) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
    return {"parent_median": round(pm, 5), "parent_iqr": round(q3 - q1, 5),
            "change_median": round(cm, 5), "rel_change_pct": round(100 * (cm - pm) / pm, 2),
            "change_better_pairs": f"{wins}/{len(parent)}",
            "parent_runs": [round(v, 5) for v in parent],
            "change_runs": [round(v, 5) for v in change]}


def load_sga(src: Path) -> dict:
    """Import the ``sga`` package of src and all its modules afresh, as one
    set of ``sys.modules`` entries; loading the same src twice gives two
    independent sets."""
    drop_sga()
    sys.path.insert(0, str(src))
    try:
        sga = importlib.import_module("sga")
        for info in pkgutil.iter_modules(sga.__path__):
            importlib.import_module(f"sga.{info.name}")
    finally:
        sys.path.remove(str(src))
    mods = {n: m for n, m in sys.modules.items() if n == "sga" or n.startswith("sga.")}
    drop_sga()
    return mods


def drop_sga() -> None:
    for name in [n for n in sys.modules if n == "sga" or n.startswith("sga.")]:
        del sys.modules[name]


def use(mods: dict) -> None:
    """Make ``import sga...`` resolve to this set of modules."""
    drop_sga()
    sys.modules.update(mods)


def quantile(xs: list[float], f: float) -> float:
    return xs[min(len(xs) - 1, int(f * len(xs)))]


def paired_shuffle(perfbench: Path, name: str, sides: dict, seed: int) -> dict:
    """One shuffled pass of a perfbench workload per side, item by item: the
    sides alternate which goes first on each item, and each item is timed
    with ``thread_time`` with its side's modules in ``sys.modules``.  The
    objects of both set-ups are collected and frozen out of the garbage
    collector before the first item, so a full collection during the pass
    does not walk them, and unfrozen after it."""
    if str(perfbench) not in sys.path:
        sys.path.insert(0, str(perfbench))
    workloads = importlib.import_module("workloads")
    runs, problems = {}, []
    for side, mods in sides.items():
        use(mods)
        wl = workloads.WORKLOADS[name]()
        wl.setup(wl.default_seed)
        wl.prepare()
        runs[side] = (wl, wl.items())
    order = list(range(len(runs["parent"][1])))
    random.Random(seed).shuffle(order)
    times = {side: [0.0] * len(order) for side in sides}
    first = list(sides)
    gc.collect()
    gc.freeze()
    try:
        for k, n in enumerate(order):
            for side in (first if k % 2 == 0 else first[::-1]):
                use(sides[side])
                wl, items = runs[side]
                error = sides[side]["sga.errors"].SgaError
                t0 = time.thread_time()
                try:
                    problem = wl.run(items[n])
                except error as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                times[side][n] = time.thread_time() - t0
                if problem:
                    problems.append(f"{side}: {problem}")
    finally:
        gc.unfreeze()
    for side in sides:
        use(sides[side])
        problems += [f"{side}: {p}" for p in runs[side][0].check()]
    drop_sga()
    pairs = list(zip(times["parent"], times["change"]))
    ratios = sorted(c / p for p, c in pairs if p > 0)
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    totals = []
    for _ in range(BOOTSTRAP):
        sample = rng.choices(pairs, k=len(pairs))
        totals.append(sum(c for _, c in sample) / sum(p for p, _ in sample))
    totals.sort()
    return {"seed": seed, "items": len(order),
            "median_ratio": round(statistics.median(ratios), 4),
            "ci95": [round(quantile(medians, 0.025), 4), round(quantile(medians, 0.975), 4)],
            "total_ratio": round(sum(times["change"]) / sum(times["parent"]), 4),
            "total_ci95": [round(quantile(totals, 0.025), 4), round(quantile(totals, 0.975), 4)],
            "parent_p50_ms": round(1000 * statistics.median(times["parent"]), 4),
            "change_p50_ms": round(1000 * statistics.median(times["change"]), 4),
            "problems": problems[:10]}


def paired(trees: dict[str, Path], shuffles: int, first_seed: int) -> dict:
    """Paired in-process timing, which cancels the drift of the machine's
    speed between runs that the alternating perfbench pairs suffer.

    The parent's and the change's ``src/`` are loaded as two sets of
    ``sga`` modules in this process, and each perfbench ``Workload`` runs
    once per side, its set-up and every item with that side's modules
    swapped into ``sys.modules``, so ``perfbench/workloads.py`` is used as
    it is. Items are shuffled (seeded, one pass per shuffle, fresh
    set-ups), the side that goes first alternates per item, and the ratio
    change / parent of each item's ``thread_time`` gives the median ratio
    with a bootstrap 95 % interval (resampled items), beside the total
    ratio, with its own interval from the same resampling, and each side's
    p50. The self-check times two fresh loads of the change against each
    other and should read 1.00 within its intervals.

    Limits: both sides share one allocator and one garbage collector (the
    set-ups are frozen out of its full collections, which otherwise fell
    on one side's items and moved the total by up to 27 % on generic-e);
    each keeps its own per-quiver stores, so alternating the first side
    spreads the effect of warm processor caches over both; times are raw
    CPU seconds, not scaled as perfbench scales them.
    """
    perfbench = trees["change"] / "perfbench"
    sides = {side: load_sga(tree / "src") for side, tree in trees.items()}
    self_sides = {side: load_sga(trees["change"] / "src") for side in trees}
    out: dict = {"how": "one process loads both src trees; per shuffle a fresh set-up "
                        "per side, collected and frozen out of the garbage collector, "
                        "items in a seeded order, the first side alternating per item, "
                        "each item timed with thread_time; ratio = change / parent per "
                        f"item, median and total ratio each with a {BOOTSTRAP}-resample "
                        "bootstrap 95 % interval; raw CPU times; self_check = two fresh "
                        "loads of the change against each other",
                 "workloads": {}, "self_check": {}}
    for name in PAIRED:
        out["workloads"][name] = [paired_shuffle(perfbench, name, sides, first_seed + k)
                                  for k in range(shuffles)]
        out["self_check"][name] = paired_shuffle(perfbench, name, self_sides, first_seed)
        for r in out["workloads"][name] + [out["self_check"][name]]:
            print("paired", name, json.dumps(r), flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--trace-seed", type=int, help="one traced run per side and workload")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims")
    ap.add_argument("--workdir", type=Path, help="where the two trees go (default: a temp dir)")
    ap.add_argument("--paired", type=int, metavar="SHUFFLES",
                    help="add the paired in-process timing, this many shuffles")
    args = ap.parse_args(argv)
    if not args.pairs and not args.paired:
        ap.error("give --pairs, --paired or both")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    pairs = {}
    for p in args.pairs:
        w, _, n = p.partition("=")
        if w not in {x["name"] for x in contract["workloads"]}:
            ap.error(f"--pairs {p}: {w!r} is not a workload of BENCHMARK.json")
        if not n.isdigit() or int(n) < 2:
            ap.error(f"--pairs {p}: N must be a whole number of at least 2 for the quartiles")
        pairs[w] = int(n)
    if args.claim:
        workload, _, name = args.claim.partition(":")
        if workload not in pairs or name not in metrics:
            ap.error(f"--claim {args.claim}: needs a workload of --pairs and an "
                     f"end-to-end metric ({', '.join(metrics)})")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = make_trees(args.parent, workdir)
    parent_sha = git("rev-parse", "--short", args.parent).decode().strip()

    workloads = {}
    for workload, n in pairs.items():
        runs = {"parent": [], "change": []}
        for k in range(n):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(trees[side], workload, args.first_seed + k,
                                      seconds, 0))
                print(workload, k, side, json.dumps(runs[side][-1]["metrics"]), flush=True)
        every = runs["parent"] + runs["change"]
        out = {"correct": all(r["correct"] for r in every),
               "failed": sum(r["failed"] or 0 for r in every),
               "problems": [x for r in every for x in r.get("problems", [])][:10]}
        for name, m in metrics.items():
            values = {s: [r["metrics"].get(name, {}).get("value") for r in rs]
                      for s, rs in runs.items()}
            if all(v is not None for vs in values.values() for v in vs):
                out[name] = summary(values["parent"], values["change"], m["better"] == "lower")
        workloads[workload] = out

    bounds = [f"{w} {name} {out[name]['rel_change_pct']:+.2f} %"
              for w, out in workloads.items() for name, m in metrics.items() if name in out
              and (1 if m["better"] == "lower" else -1) * out[name]["rel_change_pct"]
              > 100 * m["bound"]]
    claim = ""
    if args.claim:
        workload, name = args.claim.split(":")
        s = workloads[workload][name]
        gap = abs(s["change_median"] - s["parent_median"])
        wins, total = map(int, s["change_better_pairs"].split("/"))
        better = (s["rel_change_pct"] < 0) == (metrics[name]["better"] == "lower")
        met = better and wins >= 0.9 * total and gap > s["parent_iqr"]
        claim = (f"{workload} {name}: {s['parent_median']} -> {s['change_median']} "
                 f"({s['rel_change_pct']:+.2f} %), the change wins {s['change_better_pairs']} "
                 f"pairs, and the median gap {gap:.5f} "
                 f"{'exceeds' if gap > s['parent_iqr'] else 'does not exceed'} the parent's "
                 f"interquartile spread {s['parent_iqr']}: claim "
                 f"{'met' if met else 'NOT met'}. ")
    claim += ("Every end-to-end metric on every workload is within its BENCHMARK.json bound"
              if not bounds else "Beyond their BENCHMARK.json bound: " + "; ".join(bounds))
    claim += ("; every run is correct with 0 failed items." if all(
        o["correct"] and o["failed"] == 0 for o in workloads.values())
        else "; some runs are not correct, see problems.")

    result = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} "
                   "--trace 0",
        "parent": parent_sha,
        "change": "the src/ of the commit that adds this file",
        "order": "even pair index runs the parent first, odd the change first; each side "
                 f"from its own copy of the tree (parent from git archive {parent_sha}, "
                 "change from a copy of the working tree), without __pycache__",
        "seeds": "; ".join(f"{w}: {args.first_seed}-{args.first_seed + n - 1}"
                           for w, n in pairs.items()),
        "quartiles": "statistics.quantiles(method='inclusive')",
        "machine": f"{os.cpu_count()} vCPUs, Python {sys.version.split()[0]}; perfbench "
                   "times are CPU seconds scaled to its reference speed",
        "claim": claim,
        "workloads": workloads,
    }
    if args.trace_seed is not None:
        traced: dict = {"run": f"--seed {args.trace_seed} --trace 1 on each workload, "
                               "once per side"}
        differ = set()
        for workload in pairs:
            sides = {s: run(trees[s], workload, args.trace_seed, seconds, 1)["metrics"]
                     for s in ("parent", "change")}
            for name in sorted(set(sides["parent"]) | set(sides["change"])):
                if name.endswith(COUNTERS):
                    vals = {s: sides[s].get(name, {}).get("value") for s in sides}
                    traced.setdefault(name, {})[workload] = vals
                    if vals["parent"] != vals["change"]:
                        differ.add(name)
        traced["counters_that_differ"] = sorted(differ)
        result["traced"] = traced
    if not pairs:
        result, claim = {}, "paired timing only"
    if args.paired:
        result["paired"] = {"parent": parent_sha, "shuffles": args.paired,
                            **paired(trees, args.paired, args.first_seed)}
    path = ROOT / f"BENCH_{args.number}.json"
    kept = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps({**kept, **result}, indent=1) + "\n")
    print(f"wrote {path.name}: {claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
