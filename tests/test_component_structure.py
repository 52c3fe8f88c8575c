"""The components of ``classify_components`` against a naive recount: both
families partition the product quiver, come in least-vertex order, nest in
each other, and carry the type, endpoints and h-line flags that a count of
their loops, cycle rank and valencies gives."""

from collections import Counter

import pytest

from sga.admissible import enumerate_adm, tau_adm
from sga.homgraph import CIRC, CROSS, PLUS, build_HQ, classify_components
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver


def _flood(vertices, arrows) -> dict:
    """The vertex set of the connected component of each vertex."""
    nbrs: dict = {v: set() for v in vertices}
    for a in arrows:
        nbrs[a.src].add(a.tgt)
        nbrs[a.tgt].add(a.src)
    comp_of: dict = {}
    for v in vertices:
        if v in comp_of:
            continue
        comp, todo = {v}, [v]
        while todo:
            new = nbrs[todo.pop()] - comp
            comp |= new
            todo.extend(new)
        comp = frozenset(comp)
        comp_of.update(dict.fromkeys(comp, comp))
    return comp_of


def _check_family(g, comps, arrows):
    """comps partition g's vertices as flooding along arrows does, in
    least-vertex order with vertices ascending, and partition arrows; the
    type and endpoints of each follow from its loops, cycle rank and
    valencies."""
    comp_of = _flood(g.vertices, arrows)
    assert {frozenset(c.vertices) for c in comps} == set(comp_of.values())
    assert sum(len(c.vertices) for c in comps) == len(g.vertices)
    firsts = [c.vertices[0] for c in comps]
    assert firsts == sorted(firsts)
    assert Counter(a for c in comps for a in c.arrows) == Counter(arrows)
    for c in comps:
        assert c.vertices == tuple(sorted(c.vertices))
        assert all(a.src in c.vertices and a.tgt in c.vertices for a in c.arrows)
        loops = sum(a.src == a.tgt for a in c.arrows)
        rank = len(c.arrows) - loops - (len(c.vertices) - 1)
        assert rank >= 0
        assert c.ctype == ("Dpt" if loops > 1 else "Dp" if loops else
                           "At" if rank else "A")
        assert c.endpoints == tuple(
            v for v in c.vertices
            if sum(v in (a.src, a.tgt) for a in c.arrows) <= 1)


def _check(g):
    rep = classify_components(g)
    plus = [a for a in g.arrows if a.family == PLUS]
    _check_family(g, rep.plus, plus)
    _check_family(g, rep.full, list(g.arrows))
    po_of = _flood(g.vertices, [a for a in g.arrows if a.family in (PLUS, CIRC)])
    orange, cyan, purple, teal = ({getattr(a, end) for a in g.arrows if a.family == f}
                                  for f in (CROSS, CIRC) for end in ("tgt", "src"))
    for c in rep.plus:
        vs = set(c.vertices)
        assert vs <= set(rep.full[c.full_component].vertices)
        po = po_of[c.vertices[0]]
        assert vs <= po
        assert c.hline == po.isdisjoint(g.red.keys() | orange)
        assert c.dual_hline == po.isdisjoint(g.blue.keys() | cyan)
        assert c.real == vs.isdisjoint(g.red.keys() | orange | purple)
        assert c.dual_real == vs.isdisjoint(g.blue.keys() | cyan | teal)
    for c in rep.full:
        assert c.long == set(c.vertices).isdisjoint(g.red)


@pytest.mark.parametrize("seed, max_len", [(None, 8), (9, 6)])
def test_components_match_naive_recount(ex1, seed, max_len):
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed)
    sets = enumerate_adm(q, max_len)
    words = list(sets.strings) + list(sets.bands)
    fr = auto_fringe(q)
    translates = [tau_adm(fr.extended, x) for x in words]
    for quiver, ws in ((q, words), (fr.extended, translates)):
        for x in ws:
            for y in ws:
                _check(build_HQ(quiver, x, y))
