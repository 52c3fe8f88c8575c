"""Spans and counters around the public entry points of the sga modules.

Only a traced run installs this. Each wrapped call records a span (name,
start, end, parent span, item id) in flat in-memory arrays; the spans are
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct child spans.

Installing rebinds every ``sga.*`` module attribute that refers to a
wrapped function, so ``from .homgraph import build_HQ``-style bindings in
other modules are wrapped too, and ``uncovered()`` proves that no original
is left reachable. A function or cache that a later version of the library
no longer has is skipped, and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> functions wrapped; every one gets .calls and .self_s metrics
WRAPPED = {
    "words": ("ray_compare",),
    "admissible": ("enumerate_adm", "tau_adm"),
    "homgraph": ("build_H", "build_HQ", "classify_components"),
    "invariants": ("kiss_census", "e_comb", "enumerate_components"),
    "repmod": ("build_module", "hom_system", "hom_dim_formula", "E_oracle"),
    "gf": ("rank", "nullspace"),
    "quiver": ("auto_fringe",),
    "parsing": ("parse_quiver",),
    "cli": ("main",),
}


# distinct_ratio = distinct argument keys / calls, for the calls whose
# repetition would be wasted work
DISTINCT_KEYS = {
    "invariants.kiss_census": lambda q, fr, x, y: (q, fr.extended, x, y),
    "admissible.tau_adm": lambda q, x: (q, x),
    "repmod.build_module": lambda q, x, X: (q, x, X.label, X.p),
}

# counters summed over the values a call returns
SIZES = {
    "homgraph.build_HQ": (("homgraph.hq_vertices", lambda g: len(g.vertices)),
                          ("homgraph.hq_arrows", lambda g: len(g.arrows))),
    "repmod.hom_system": (("repmod.hom_system.cells", lambda r: r[0].size),),
}

RAY_CACHES = ("doublebar_ray", "hat_ray")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.keys: dict[str, set] = {}
        self.counters: dict[str, int] = {}
        self.originals: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod_name, fns in WRAPPED.items():
            mod = importlib.import_module(f"sga.{mod_name}")
            for fn_name in fns:
                fn = getattr(mod, fn_name, None)
                if callable(fn):
                    wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
                    self.originals[id(fn)] = fn
        for mod in self._sga_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is self.originals[id(value)]:
                    setattr(mod, attr, wrappers[id(value)])

    @staticmethod
    def _sga_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sga" or n.startswith("sga."))]

    def uncovered(self) -> list[str]:
        """``module.attr`` bindings that still refer to an unwrapped original."""
        return sorted(f"{mod.__name__}.{attr}" for mod in self._sga_modules()
                      for attr, value in vars(mod).items()
                      if self.originals.get(id(value)) is value)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        key_of = DISTINCT_KEYS.get(name)
        keys = self.keys.setdefault(name, set()) if key_of else None
        sizes = SIZES.get(name, ())
        for counter, _ in sizes:
            self.counters[counter] = 0
        counters = self.counters
        stack, parent, item_id = self.stack, self.parent, self.item_id
        start, end, name_id = self.start, self.end, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            item_id.append(self.item)
            end.append(0.0)
            if key_of is not None:
                keys.add(key_of(*args, **kwargs))
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            for counter, size in sizes:
                counters[counter] += size(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def raw(self) -> dict:
        """Mergeable totals: calls, self time, distinct keys, sizes, caches."""
        names = np.asarray(self.name_id, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parents = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)
        out = {
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "self_s": {nm: float(self_s[i]) for i, nm in enumerate(self.names)},
            "distinct": {nm: len(k) for nm, k in self.keys.items()},
            "counters": dict(self.counters),
            "spans": len(self.start),
        }
        adm = sys.modules["sga.admissible"]
        infos = [getattr(adm, c).cache_info() for c in RAY_CACHES
                 if hasattr(getattr(adm, c, None), "cache_info")]
        if len(infos) == len(RAY_CACHES):
            out["ray_cache"] = {"hits": sum(i.hits for i in infos),
                                "misses": sum(i.misses for i in infos),
                                "entries": sum(i.currsize for i in infos)}
        return out

    def dump(self, path) -> None:
        """Write every span; item -1 marks set-up work outside any item."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            item=np.asarray(self.item_id, dtype=np.int32),
            start=np.asarray(self.start), end=np.asarray(self.end))


def merge(raws: list[dict]) -> dict:
    """Sum the totals of several traced processes."""
    out: dict = {}
    for raw in raws:
        for section, value in raw.items():
            if isinstance(value, dict):
                acc = out.setdefault(section, {})
                for k, v in value.items():
                    acc[k] = acc.get(k, 0) + v
            else:
                out[section] = out.get(section, 0) + value
    return out


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with units; absent when the function
    or cache they read no longer exists."""
    m: dict[str, tuple[float, str]] = {}
    for name, calls in raw.get("calls", {}).items():
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (raw["self_s"][name], "s")
    for name, distinct in raw.get("distinct", {}).items():
        calls = raw["calls"][name]
        # never called: nothing was repeated
        m[f"{name}.distinct_ratio"] = (distinct / calls if calls else 1.0, "ratio")
    for name, value in raw.get("counters", {}).items():
        m[name] = (value, "count")
    rc = raw.get("ray_cache")
    if rc is not None:
        lookups = rc["hits"] + rc["misses"]
        m["admissible.ray_cache.hit_ratio"] = (rc["hits"] / lookups if lookups else 0.0, "ratio")
        m["admissible.ray_cache.entries"] = (rc["entries"], "count")
    return m
