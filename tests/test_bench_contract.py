"""The library still offers everything the benchmark measures.

``perfbench/tracer.py`` skips a wrapped function or a ray cache that the
library no longer has and reports its metrics as absent, so a renamed
function or a ray reading without ``cache_info()`` would silently shrink
the metric set that ``BENCHMARK.json`` declares.  This installs the
tracer in a fresh interpreter and compares the metric names it can
produce with the declared ones."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

_PROBE = """
import json
import sga.admissible
from tracer import RAY_CACHES, Tracer, layer_metrics
t = Tracer()
t.install()
print(json.dumps({
    "metrics": sorted(layer_metrics(t.raw())),
    "uncovered": t.uncovered(),
    "ray_caches": [c for c in RAY_CACHES
                   if callable(getattr(getattr(sga.admissible, c), "cache_info", None))],
}))
"""


def test_tracer_covers_declared_metrics():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    probe = json.loads(out)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert len(declared) == 45
    assert set(probe["metrics"]) | {"trace.overhead_ratio"} == declared
    assert probe["uncovered"] == []
    assert probe["ray_caches"] == ["doublebar_ray", "hat_ray"]


_HOM_PROBE = """
import contextlib, io, json
from tracer import Tracer
t = Tracer()
t.install()
import sga.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = sga.cli.main(["hom", "tests/data/ex1.quiver", "--x", "1(1,-)- g b e b- 1(3,+)",
                       "--X", "Vo", "--y", "1(2,-)- a 1(1,-)", "--Y", "V+"])
raw = t.raw()
print(json.dumps({"rc": rc, "calls": raw["calls"], "uncovered": t.uncovered()}))
"""


def test_tracer_sees_oracle_calls_made_from_cli():
    """``sga.cli`` imports the oracle when a command runs, not at import;
    those call-time imports must still bind the tracer's wrappers."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    out = subprocess.run([sys.executable, "-c", _HOM_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    probe = json.loads(out)
    assert probe["rc"] == 0
    calls = probe["calls"]
    assert calls["cli.main"] == 1
    assert calls["repmod.build_module"] == 2
    assert calls["repmod.hom_dim_formula"] == 1
    assert calls["gf.rank"] >= 1    # hom_dim_oracle ranks its system
    assert probe["uncovered"] == []


def test_generic_e_counts_follow_from_c_set():
    """generic-e pins 1770 items and 2965 oracle calls, one per distinct
    (x, X, y, Y) over its pairs of tagged words; both follow from the tag
    families ``c_set`` returns, so a change there shows here first."""
    from sga.admissible import enumerate_adm
    from sga.invariants import c_set, tags_for
    from sga.randquiver import random_skewed_gentle_quiver
    q = random_skewed_gentle_quiver(42)
    sets = enumerate_adm(q, 8)
    words = list(sets.strings) + list(sets.bands)
    strings = [x for x in words if x.wtype not in ("uu", "b")]
    bands = [x for x in words if x.wtype == "b"]
    fill = [x for x in words if x.wtype == "uu"][:10]
    tagged = [(x, s) for x in strings + bands + fill for s in tags_for(x)]
    families = {(x, s): c_set(x, s, 7) for (x, s) in tagged}
    items = [(i, j) for i in range(len(tagged)) for j in range(i, len(tagged))]
    keys = set()
    for i, j in items:
        (x, s), (y, t) = tagged[i], tagged[j]
        keys.update((x.letters, X.label, y.letters, Y.label)
                    for X in families[(x, s)] for Y in families[(y, t)])
    assert len(items) == 1770
    assert len(keys) == 2965
