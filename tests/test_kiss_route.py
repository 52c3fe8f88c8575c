"""The kiss route without the product quiver: ``kiss_sites``/``kiss_types``
against ``classify_components``, its ray checks, and the per-direction
store that ``kiss_census`` reads."""

import pytest

from sga import homgraph, invariants
from sga.admissible import enumerate_adm, hat_of
from sga.errors import TheoremViolation
from sga.homgraph import (build_HQ, classify_components, kiss_sites, kiss_types,
                          tau_f)
from sga.invariants import kiss_census
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver


def _words(q, max_len):
    sets = enumerate_adm(q, max_len)
    return list(sets.strings) + list(sets.bands)


def _translates(q, max_len):
    fr = auto_fringe(q)
    return fr.extended, [tau_f(fr, x) for x in _words(q, max_len)]


@pytest.mark.parametrize("seed, max_len, pairs", [
    (None, 8, 676), (9, 6, 1521), (11, 6, 961), (42, 6, 1444)])
def test_kiss_sites_equal_classify_components(ex1, seed, max_len, pairs):
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    qf, translates = _translates(q, max_len)
    assert len(translates) ** 2 == pairs
    for u in translates:
        for v in translates:
            rep = classify_components(build_HQ(qf, u, v))
            want = tuple((c.ctype, c.vertices[0]) for c in rep.plus if c.kiss)
            assert kiss_sites(qf, u, v) == want, (str(u), str(v))
            assert kiss_types(qf, u, v) == tuple(t for t, _ in want)


@pytest.mark.parametrize("on_hat, message", [
    (True, "real h-line characterization differs"),
    (False, "long h-line characterization differs")])
def test_ray_checks_are_live(ex1, monkeypatch, on_hat, message):
    """A ray comparison that contradicts the colours makes both routes
    raise: over the hat quiver it breaks ``ray_real``, over the fringed
    quiver ``ray_long``."""
    qf, translates = _translates(ex1, 6)
    u = v = translates[0]
    rep = classify_components(build_HQ(qf, u, v))
    assert any(c.real for c in rep.plus) and any(c.long for c in rep.full)
    hat, compare = hat_of(qf), homgraph.ray_compare

    def contradict(q, a, b):
        return (">", 0) if (q is hat) == on_hat else compare(q, a, b)

    monkeypatch.setattr(homgraph, "ray_compare", contradict)
    with pytest.raises(TheoremViolation, match=message):
        kiss_types(qf, u, v)
    with pytest.raises(TheoremViolation, match=message):
        classify_components(build_HQ(qf, u, v))


def test_census_classifies_each_translate_pair_once(ex1, monkeypatch):
    fr = auto_fringe(ex1)
    words = _words(ex1, 8)
    calls = []
    route = invariants.kiss_types

    def counted(q, u, v):
        calls.append((u, v))
        return route(q, u, v)

    monkeypatch.setattr(invariants, "kiss_types", counted)
    first = [kiss_census(ex1, fr, x, y) for x in words for y in words]
    assert len(calls) == len(set(calls)) == len(words) ** 2
    calls.clear()
    assert [kiss_census(ex1, fr, x, y) for x in words for y in words] == first
    assert calls == []
    # the per-direction store answers even when the census store is empty
    fr.extended.store("census").clear()
    assert [kiss_census(ex1, fr, x, y) for x in words for y in words] == first
    assert calls == []
