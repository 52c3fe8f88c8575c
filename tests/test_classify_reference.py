"""The one-pass ``classify_components`` and the label-matched ``build_HQ``
against the earlier three-pass and all-pairs versions, kept here as the
reference, and the count of ray checks ``classify_components`` makes."""

import pytest

from sga import homgraph
from sga.errors import TheoremViolation
from sga.homgraph import (CIRC, CROSS, PLUS, ComponentReport, FullComponent,
                          HArrow, HomGraph, PlusComponent, build_H, build_HQ,
                          classify_components, ray_long, ray_real, red_blue)
from sga.kisses import kiss_sites
from sga.randquiver import random_skewed_gentle_quiver

from kit import adm_words


def reference_build_HQ(q, x, y):
    """Vertices from all pairs of vertices filtered by label, and colors from
    ``red_blue`` at every vertex with unequal heads."""
    hx, hy = build_H(q, x), build_H(q, y)
    vertices = tuple((j, i) for j in hy.vertices for i in hx.vertices
                     if hy.vlabel[j] == hx.vlabel[i])
    vset = set(vertices)
    arrows = []
    for ny in hy.edges:
        for nx in hx.edges:
            if ny.image != nx.image:
                continue
            s, t = (ny.src, nx.src), (ny.tgt, nx.tgt)
            if s in vset:
                arrows.append(HArrow(PLUS, s, t, ("edge", ny.idx), ("edge", nx.idx)))
            if q.by_name[ny.image].special:
                s2, t2 = (ny.tgt, nx.src), (ny.src, nx.tgt)
                if s2 in vset:
                    arrows.append(HArrow(CROSS, s2, t2,
                                         ("edge", ny.idx), ("edge", nx.idx)))
    for ly in hy.loops:
        for lx in hx.loops:
            if ly.image == lx.image:
                v = (ly.vertex, lx.vertex)
                if v in vset:
                    arrows.append(HArrow(PLUS, v, v, ("loop", ly.key), ("loop", lx.key)))
    for ny in hy.edges:
        for lx in hx.loops:
            if ny.image != lx.image:
                continue
            s, t = (ny.tgt, lx.vertex), (ny.src, lx.vertex)
            if s in vset:
                arrows.append(HArrow(CIRC, s, t, ("edge", ny.idx), ("loop", lx.key)))
    for ly in hy.loops:
        for nx in hx.edges:
            if ly.image != nx.image:
                continue
            s, t = (ly.vertex, nx.src), (ly.vertex, nx.tgt)
            if s in vset:
                arrows.append(HArrow(CIRC, s, t, ("loop", ly.key), ("edge", nx.idx)))
    red, blue = {}, {}
    for (j, i) in vertices:
        key = (hy.head_id(j), hx.head_id(i))
        if key[0] == key[1]:
            continue
        r, b = red_blue(hy, j, hx, i, key)
        if r:
            red[(j, i)] = r
        if b:
            blue[(j, i)] = b
    return HomGraph(hx, hy, vertices, tuple(arrows), red, blue)


def _components(vertices, arrows):
    """Connected components by a fresh union-find, in least-vertex order."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a in arrows:
        parent[find(a.src)] = find(a.tgt)
    comps = {}
    for v in sorted(vertices):
        comps.setdefault(find(v), ([], []))[0].append(v)
    for a in arrows:
        comps[find(a.src)][1].append(a)
    return [(tuple(cv), tuple(ca)) for cv, ca in comps.values()]


def _component_type(cv, ca):
    valency = dict.fromkeys(cv, 0)
    loops = 0
    for a in ca:
        valency[a.src] += 1
        if a.src == a.tgt:
            loops += 1
        else:
            valency[a.tgt] += 1
    if loops:
        ctype = "Dp" if loops == 1 else "Dpt"
    elif len(ca) > len(cv) - 1:
        ctype = "At"
    else:
        ctype = "A"
    return ctype, tuple(v for v in cv if valency[v] <= 1)


def reference_classify(g):
    """Three union-finds (plus, plus and circle, all arrows) and the flags
    from vertex sets, the four arrow colours read off the arrows."""
    comps_plus = _components(g.vertices, [a for a in g.arrows if a.family == PLUS])
    comps_po = _components(g.vertices, [a for a in g.arrows if a.family in (PLUS, CIRC)])
    comps_full = _components(g.vertices, g.arrows)
    po_of = {v: cv for cv, _ in comps_po for v in cv}
    full_of = {v: fi for fi, (cv, _) in enumerate(comps_full) for v in cv}
    orange = {a.tgt for a in g.arrows if a.family == CROSS}
    cyan = {a.src for a in g.arrows if a.family == CROSS}
    purple = {a.tgt for a in g.arrows if a.family == CIRC}
    teal = {a.src for a in g.arrows if a.family == CIRC}
    not_h, not_dual_h = g.red.keys() | orange, g.blue.keys() | cyan
    not_real, not_dual_real = not_h | purple, not_dual_h | teal

    hx, hy = g.hx, g.hy
    plus_out = []
    for cv, ca in comps_plus:
        ctype, ends = _component_type(cv, ca)
        is_real = not_real.isdisjoint(cv)
        is_dual_real = not_dual_real.isdisjoint(cv)
        interior = not any(j in hy.boundary or i in hx.boundary for j, i in ends)
        if ray_real(hx, hy, cv[0]) != is_real:
            raise TheoremViolation(f"real h-line characterization differs at {cv[0]}")
        po = po_of[cv[0]]
        plus_out.append(PlusComponent(cv, ca, ctype, ends, is_real, is_dual_real,
                                      not_h.isdisjoint(po), not_dual_h.isdisjoint(po),
                                      is_real and interior, is_dual_real and interior,
                                      full_of[cv[0]]))
    full_out = []
    for cv, ca in comps_full:
        ctype, ends = _component_type(cv, ca)
        is_long = g.red.keys().isdisjoint(cv)
        if ray_long(hx, hy, cv[0]) != is_long:
            raise TheoremViolation(f"long h-line characterization differs at {cv[0]}")
        full_out.append(FullComponent(cv, ca, ctype, ends, is_long))
    return ComponentReport(plus_out, full_out)


def _quiver(ex1, seed):
    return ex1 if seed is None else random_skewed_gentle_quiver(seed)


def test_one_pass_equals_reference(ex1):
    """Every field of the product quiver and the whole component report are
    those of the reference, on every ordered pair of words of ex1 and of
    seeds 7, 9 and 42 at max-len 6; the sample reaches every component type
    and every arrow family."""
    ctypes, families = set(), set()
    for seed in (None, 7, 9, 42):
        q = _quiver(ex1, seed)
        words = adm_words(q, 6)
        for x in words:
            for y in words:
                g, want = build_HQ(q, x, y), reference_build_HQ(q, x, y)
                for field in HomGraph._fields:
                    assert getattr(g, field) == getattr(want, field), \
                        (seed, field, str(x), str(y))
                rep = classify_components(g)
                assert rep == reference_classify(want), (seed, str(x), str(y))
                ctypes.update(c.ctype for c in rep.plus + rep.full)
                families.update(a.family for a in g.arrows)
    assert families == {PLUS, CROSS, CIRC}
    assert ctypes == {"A", "Dp", "At", "Dpt"}


@pytest.mark.parametrize("seed, max_len", [(None, 7), (42, 5)])
def test_one_ray_check_per_component(ex1, monkeypatch, seed, max_len):
    """``classify_components`` checks ``ray_real`` once at the least vertex
    of each plus component and ``ray_long`` once at that of each full
    component, in that order: no check is skipped or repeated."""
    q = _quiver(ex1, seed)
    words = adm_words(q, max_len)
    calls = []

    def counted(name, check):
        def wrapper(hx, hy, v):
            calls.append((name, v))
            return check(hx, hy, v)
        return wrapper

    monkeypatch.setattr(homgraph, "ray_real", counted("real", ray_real))
    monkeypatch.setattr(homgraph, "ray_long", counted("long", ray_long))
    checked = 0
    for x in words:
        for y in words:
            calls.clear()
            rep = classify_components(build_HQ(q, x, y))
            assert calls == [("real", c.vertices[0]) for c in rep.plus] + \
                [("long", c.vertices[0]) for c in rep.full], (str(x), str(y))
            checked += len(calls)
    assert checked > len(words) ** 2


@pytest.mark.parametrize("seed, max_len", [(None, 7), (42, 5)])
def test_kiss_sites_makes_the_ray_checks_of_classify_components(ex1, monkeypatch,
                                                                seed, max_len):
    """``kiss_sites(q, x, y)`` checks ``ray_real`` and ``ray_long`` exactly
    where ``classify_components`` does on (x, y) and, for x != y, on (y, x):
    the same checks at the same least vertices, none skipped or repeated."""
    q = _quiver(ex1, seed)
    words = adm_words(q, max_len)
    calls = []

    def counted(name, check):
        def wrapper(hx, hy, v):
            calls.append((name, hx.word, hy.word, v))
            return check(hx, hy, v)
        return wrapper

    monkeypatch.setattr(homgraph, "ray_real", counted("real", ray_real))
    monkeypatch.setattr(homgraph, "ray_long", counted("long", ray_long))
    checked = 0
    for k, x in enumerate(words):
        for y in words[k:]:
            calls.clear()
            classify_components(build_HQ(q, x, y))
            if x != y:
                classify_components(build_HQ(q, y, x))
            expected = sorted(calls, key=repr)
            calls.clear()
            kiss_sites(q, x, y)
            assert sorted(calls, key=repr) == expected, (str(x), str(y))
            checked += len(calls)
    assert checked > len(words) ** 2
