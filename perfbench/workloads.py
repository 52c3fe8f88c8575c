"""The four benchmark workloads: how each builds its inputs, what one item
does, and the gate that decides whether a pass was correct.

Every workload calls the library through its modules (``invariants.
kiss_census`` rather than a name imported once), so that a traced run sees
the wrappers installed by ``tracer.py``.

Quiver seeds select the random quivers. At a workload's default seeds the
item counts are pinned and outputs are compared with the goldens captured
from the library as it stood when the benchmark was defined; at any other
seed only the dual-route checks (formula = oracle), the library's own
``TheoremViolation`` checks and exit codes gate correctness.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from speed import Scaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"
WORK = ROOT / ".perfbench"

EX1 = """\
vertex 1
vertex 2
vertex 3
arrow a 1:+ -> 2:+
arrow b 2:+ -> 3:-
arrow g 3:+ -> 1:+
special e 2
"""


def adm_words(q, max_len=8):
    from sga import admissible
    sets = admissible.enumerate_adm(q, max_len)
    return list(sets.strings) + list(sets.bands)


class Workload:
    """A workload sets itself up from a quiver seed, lists its items, runs
    one item (returning a problem or None) and checks a whole pass."""

    rusage_who = resource.RUSAGE_SELF   # whose peak RSS is the workload's
    traced_in_children = False

    def prepare(self):
        """Untimed work between set-up and the timed pass."""

    def timed_pass(self, order, tracer=None):
        """Run the items in this order; their raw and scaled CPU seconds
        (speed.py) and the problems found."""
        from sga.errors import SgaError
        items = self.items()
        scaler, problems = Scaler(), []
        for n in order:
            if tracer is not None:
                tracer.item = n
            t0 = time.thread_time()
            try:
                problem = self.run(items[n])
            except SgaError as exc:
                problem = f"{type(exc).__name__}: {exc}"
            scaler.add(time.thread_time() - t0)
            if problem:
                problems.append(problem)
        scaler.flush()
        if tracer is not None:
            tracer.item = -1
        return scaler.raw, scaler.scaled, problems


def census_line(x, y, c) -> str:
    return (f"{x}\t{y}\t{c.a_count}\t{c.p_set}\t{c.diag}\t{c.d_count}\t"
            f"{c.at_count}\t{c.dpt_count}\t{c.total}\n")


class KissCensus(Workload):
    """All ordered pairs of the admissible words of one quiver, one
    ``kiss_census`` each: pure combinatorics, no GF(p) work, no pair
    repeated."""

    name = "kiss-census"
    default_seed = 11
    pinned = {"items": 2601}
    entry = "invariants.kiss_census"

    def setup(self, seed):
        from sga import quiver
        from sga.randquiver import random_skewed_gentle_quiver
        self.seed = seed
        self.q = random_skewed_gentle_quiver(seed, forbid_pp=True)
        self.fr = quiver.auto_fringe(self.q)
        self.words = adm_words(self.q)
        self.lines = {}

    def items(self):
        n = len(self.words)
        return [(i, j) for i in range(n) for j in range(n)]

    def run(self, item):
        from sga import invariants
        i, j = item
        x, y = self.words[i], self.words[j]
        self.lines[item] = census_line(x, y, invariants.kiss_census(self.q, self.fr, x, y))
        return None

    def digest(self) -> str:
        """sha256 of every census, one line per ordered pair, in pair order."""
        return hashlib.sha256("".join(self.lines[k] for k in sorted(self.lines))
                              .encode()).hexdigest()

    def check(self):
        digest = self.digest()
        problems = pinned_counts(self, {"items": len(self.lines)})
        if self.seed == self.default_seed:
            golden = (GOLDENS / "kiss-census-11.sha256").read_text().split()[0]
            if digest != golden:
                problems.append(f"census digest {digest} != golden {golden}")
        return problems


class HomSweep(Workload):
    """The Hom-basis theorem on every pair of admissible words with every
    module of dimension <= 2 over GF(5): the hom-graph route against the
    intertwiner nullspace, dihedral modules included."""

    name = "hom-sweep"
    default_seed = 42
    pinned = {"items": 4489, "quadruples": 15376}
    entry = "homgraph.build_HQ"
    p = 5

    def setup(self, seed):
        from sga import repmod
        from sga.randquiver import random_skewed_gentle_quiver
        self.seed = seed
        self.q = random_skewed_gentle_quiver(seed)
        self.words = adm_words(self.q)
        self.mods = {x: repmod.indecomposables_Ax(x.wtype, 2, self.p) for x in self.words}
        self.reps = {(x, X.label): repmod.build_module(self.q, x, X)
                     for x in self.words for X in self.mods[x]}
        self.quadruples = 0

    def items(self):
        n = len(self.words)
        return [(i, j) for i in range(n) for j in range(n)]

    def run(self, item):
        from sga import homgraph, repmod
        x, y = self.words[item[0]], self.words[item[1]]
        g = homgraph.build_HQ(self.q, x, y)
        report = homgraph.classify_components(g)
        homgraph.real_long_bijection(g, report)
        bad = None
        for X in self.mods[x]:
            for Y in self.mods[y]:
                lhs = repmod.hom_dim_formula(self.q, x, X, y, Y, g=g, report=report)
                rhs = repmod.hom_dim_oracle(self.reps[(x, X.label)], self.reps[(y, Y.label)])
                self.quadruples += 1
                if lhs != rhs and bad is None:
                    bad = f"hom formula {lhs} != oracle {rhs} at {x} {X.label} {y} {Y.label}"
        return bad

    def check(self):
        return pinned_counts(self, {"items": len(self.words) ** 2,
                                    "quadruples": self.quadruples})


class GenericE(Workload):
    """Criterion 7b over GF(7): the combinatorial generic E-invariant of
    each pair of tagged words against the minimum of the exhaustive oracle
    over the tag families, with the oracle memo shared across items the way
    the acceptance sweep shares it."""

    name = "generic-e"
    default_seed = 42
    pinned = {"items": 1770, "oracle_calls": 2965}
    entry = "invariants.e_comb"
    p = 7

    def setup(self, seed):
        from sga import invariants, quiver
        from sga.randquiver import random_skewed_gentle_quiver
        self.seed = seed
        self.q = random_skewed_gentle_quiver(seed)
        self.fr = quiver.auto_fringe(self.q)
        words = adm_words(self.q)
        strings = [x for x in words if x.wtype not in ("uu", "b")]
        bands = [x for x in words if x.wtype == "b"]
        fill = [x for x in words if x.wtype == "uu"][:10]
        self.tagged = [(x, s) for x in strings + bands + fill
                       for s in invariants.tags_for(x)]
        self.families = {(x, s): invariants.c_set(x, s, self.p) for (x, s) in self.tagged}
        self.memo = {}

    def items(self):
        n = len(self.tagged)
        return [(i, j) for i in range(n) for j in range(i, n)]

    def run(self, item):
        from sga import invariants, repmod
        (x, s), (y, t) = self.tagged[item[0]], self.tagged[item[1]]
        ec = invariants.e_comb(self.q, self.fr, (x, s), (y, t))
        best = None
        for X in self.families[(x, s)]:
            for Y in self.families[(y, t)]:
                key = (x.letters, X.label, y.letters, Y.label)
                if key not in self.memo:
                    self.memo[key] = repmod.E_oracle(self.q, x, X, y, Y)
                best = self.memo[key] if best is None else min(best, self.memo[key])
        if ec != best:
            return f"e_comb {ec} != oracle minimum {best} at {x} {s} {y} {t}"
        return None

    def check(self):
        n = len(self.tagged)
        return pinned_counts(self, {"items": n * (n + 1) // 2,
                                    "oracle_calls": len(self.memo)})


class ComponentsCli(Workload):
    """Cold ``sga components --max-len 8`` invocations, one fresh
    interpreter each, over quiver files written with ``print_quiver``."""

    name = "components-cli"
    default_seed = None
    default_quivers = (("ex1", None), ("seed9", 9), ("seed11", 11), ("seed42", 42))
    pinned = {"items": 4}
    entry = "cli.main"
    argv = ("components", "{path}", "--max-len", "8")
    rusage_who = resource.RUSAGE_CHILDREN
    traced_in_children = True

    def setup(self, seed):
        import sga.cli  # noqa: F401  -- the cold import is this workload's set-up
        self.seed = seed

    def prepare(self, goldens=True):
        """Write the quiver files; runs after set-up is timed."""
        from sga.parsing import parse_quiver, print_quiver
        from sga.randquiver import random_skewed_gentle_quiver
        quivers = self.default_quivers if self.seed is None else \
            (("ex1", None), (f"seed{self.seed}", self.seed))
        outdir = WORK / "quivers"
        outdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for label, qseed in quivers:
            if qseed is None:
                q = parse_quiver(EX1)
            else:
                q = random_skewed_gentle_quiver(qseed, forbid_pp=(qseed == 11))
            path = outdir / f"{label}.quiver"
            path.write_text(print_quiver(q), encoding="utf-8")
            golden = None
            if goldens and (self.seed is None or qseed is None):
                golden = (GOLDENS / f"components-{label}.tsv").read_bytes()
            self.files.append((label, path, golden))

    def items(self):
        return list(range(len(self.files)))

    def console_command(self, path):
        """What the ``sga`` console script runs."""
        return [sys.executable, "-c", "import sys; from sga.cli import main; sys.exit(main())",
                *(a.format(path=path) for a in self.argv)]

    def timed_pass(self, order, tracer=None):
        """Each invocation times itself in its own interpreter (cli_child.py)."""
        outdir = WORK / "cli"
        outdir.mkdir(parents=True, exist_ok=True)
        raw, scaled, problems, self.traces = [], [], [], []
        for n in order:
            label, path, golden = self.files[n]
            out = outdir / f"{label}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out),
                   *(["--trace"] if tracer else []), "--",
                   *(a.format(path=path) for a in self.argv)]
            out.unlink(missing_ok=True)
            proc = subprocess.run(cmd, capture_output=True, check=False)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            elif golden is not None and proc.stdout != golden:
                problems.append(f"{label}: stdout differs from the golden")
            summary = json.loads(out.read_text()) if out.exists() else \
                {"cpu_s": 0.0, "scaled_s": 0.0}
            raw.append(summary["cpu_s"])
            scaled.append(summary["scaled_s"])
            if "trace" in summary:
                self.traces.append(summary["trace"])
        return raw, scaled, problems

    def check(self):
        return pinned_counts(self, {"items": len(self.files)})

    def merged_trace(self):
        from tracer import merge
        return {"raw": merge([t["raw"] for t in self.traces]),
                "uncovered": sorted({u for t in self.traces for u in t["uncovered"]})}


def pinned_counts(wl, counts) -> list[str]:
    if wl.seed != wl.default_seed:
        return []
    return [f"{k} = {counts[k]}, pinned at {v}" for k, v in wl.pinned.items()
            if counts[k] != v]


WORKLOADS = {w.name: w for w in (KissCensus, HomSweep, GenericE, ComponentsCli)}
