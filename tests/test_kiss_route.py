"""The kiss route without the product quiver: ``kiss_sites`` against
``classify_components`` in both directions, its ray checks, and the census
of both directions that ``kiss_census`` stores from one pass."""

import ast
import builtins
import inspect
import types

import pytest

from sga import homgraph, invariants
from sga.admissible import hat_of, tau_adm
from sga.checks import KISS, Budget, verify
from sga.errors import TheoremViolation, WordError
from sga.homgraph import build_H, build_HQ, classify_components, kiss_sites
from sga.invariants import kiss_census
from sga.quiver import PolarizedQuiver, auto_fringe
from sga.randquiver import random_skewed_gentle_quiver

from kit import adm_words


def _translates(q, max_len):
    fr = auto_fringe(q)
    return fr.extended, [tau_adm(fr.extended, x) for x in adm_words(q, max_len)]


@pytest.mark.parametrize("seed, max_len, pairs", [
    (None, 8, 676), (9, 6, 1521), (11, 6, 961), (42, 6, 1444)])
def test_kiss_sites_equal_classify_components(ex1, seed, max_len, pairs):
    """Both halves of ``kiss_sites`` equal the kisses ``classify_components``
    finds, on every ordered pair of fringed translates."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    assert verify(KISS, q, Budget(max_len)) ** 2 == pairs


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
        kiss_sites(qf, u, v)
    with pytest.raises(TheoremViolation, match=message):
        classify_components(build_HQ(qf, u, v))


@pytest.mark.parametrize("on_hat, message", [
    (True, "real h-line characterization differs"),
    (False, "long h-line characterization differs")])
def test_reverse_ray_checks_are_live(ex1, monkeypatch, on_hat, message):
    """For u != v, a ray comparison that contradicts the colours of the
    (v, u) product quiver alone makes the pair pass of (u, v) raise, as it
    makes ``classify_components`` of (v, u) raise, while that of (u, v)
    passes: the pass checks the second half too."""
    qf, translates = _translates(ex1, 6)
    hat, compare = hat_of(qf), homgraph.ray_compare

    def rays(u):
        h = build_H(qf, u)
        if on_hat:
            return {h.hat(i, rho, delta) for i in h.vertices
                    for rho in (-1, 1) for delta in (-1, 1)}
        return {r for i in h.vertices for r in h.doublebar(i)}

    # (v, u) compares a ray of u with one of v, (u, v) one of v with one of u
    only = {}

    def contradict(q, a, b):
        if (q is hat) == on_hat and a in only["u"] and b in only["v"]:
            return (">", 0)
        return compare(q, a, b)

    def contradicted(u, v):
        only["u"], only["v"] = rays(u) - rays(v), rays(v) - rays(u)
        try:
            classify_components(build_HQ(qf, v, u))
        except TheoremViolation:
            return True
        return False

    monkeypatch.setattr(homgraph, "ray_compare", contradict)
    u, v = next((u, v) for u in translates for v in translates
                if u != v and contradicted(u, v))
    classify_components(build_HQ(qf, u, v))
    with pytest.raises(TheoremViolation, match=message):
        classify_components(build_HQ(qf, v, u))
    with pytest.raises(TheoremViolation, match=message):
        kiss_sites(qf, u, v)


def test_census_classifies_each_translate_pair_once(ex1, monkeypatch):
    """A census miss makes one ``kiss_sites`` pass and one ``p_set`` call,
    and stores the census of (x, y) and of (y, x): each unordered translate
    pair is classified once, the reverse census asks for no punctured
    pairs, and a repeat classifies none."""
    fr = auto_fringe(ex1)
    words = adm_words(ex1, 8)
    calls, punctured = [], []
    route, pairs_of = invariants.kiss_sites, invariants.p_set

    def counted(q, u, v):
        calls.append(frozenset((u, v)))
        return route(q, u, v)

    def counted_p_set(q, x, y):
        punctured.append((x, y))
        return pairs_of(q, x, y)

    monkeypatch.setattr(invariants, "kiss_sites", counted)
    monkeypatch.setattr(invariants, "p_set", counted_p_set)
    first = [kiss_census(ex1, fr, x, y) for x in words for y in words]
    qf = fr.extended
    pairs = {frozenset((tau_adm(qf, x), tau_adm(qf, y))) for x in words for y in words}
    assert len(pairs) == len(words) * (len(words) + 1) // 2
    assert len(calls) == len(set(calls)) and set(calls) == pairs
    assert punctured == [(x, y) for i, x in enumerate(words) for y in words[i:]]
    assert len(qf.store("census")) == len(words) ** 2
    calls.clear()
    assert [kiss_census(ex1, fr, x, y) for x in words for y in words] == first
    assert calls == []


@pytest.mark.parametrize("seed, max_len", [(None, 8), (9, 6), (42, 6)])
def test_reverse_census_equals_direct_census(ex1, seed, max_len):
    """Asked in reverse order on a second fringing, every census that the
    first fringing derived as a reverse is computed directly, and the
    other way round: both stores hold the same censuses."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed)
    words = adm_words(q, max_len)
    fr, rf = auto_fringe(q), auto_fringe(q)
    for x in words:
        for y in words:
            kiss_census(q, fr, x, y)
    for x in reversed(words):
        for y in reversed(words):
            kiss_census(q, rf, x, y)
    assert rf.extended.store("census") == fr.extended.store("census")
    assert len(fr.extended.store("census")) == len(words) ** 2


def test_incomparable_heads_raise_on_every_call(ex1, monkeypatch):
    """The ``red_blue`` store keeps no failed comparison: both routes raise
    ``WordError`` again on a repeat."""
    q = PolarizedQuiver(ex1.vertices, ex1.arrows)
    qf, translates = _translates(q, 6)
    monkeypatch.setattr(homgraph, "compare_letters", lambda q, a, b: None)
    u, v = translates[0], translates[1]
    for _ in range(2):
        with pytest.raises(WordError, match="incomparable ray heads"):
            kiss_sites(qf, u, v)
        with pytest.raises(WordError, match="incomparable ray heads"):
            build_HQ(qf, u, v)
    assert qf.store("red_blue") == {}


def _helpers_called(tree: ast.Module, fn: str, helpers: set[str]) -> set[str]:
    """The names in ``helpers`` that the top-level function ``fn`` calls, by
    name (unless it binds the name itself) or as an attribute."""
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == fn)
    bound = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Store)}
    bound |= {n.name for n in ast.walk(node) if isinstance(n, ast.FunctionDef)}
    called = set()
    for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
        if isinstance(call.func, ast.Name) and call.func.id not in bound:
            called.add(call.func.id)
        elif isinstance(call.func, ast.Attribute):
            called.add(call.func.attr)
    return called & helpers


def _shared_helpers(source: str, module) -> set[str]:
    """The helpers that both ``classify_components`` and ``kiss_sites`` call,
    other than the ray checks, and the other route where one calls it:
    helpers are the module's functions and classes (and their methods) and
    what it imports, exceptions and builtins left out."""
    tree = ast.parse(source)
    helpers = {name for name, value in vars(module).items()
               if callable(value) and not name.startswith("__")
               and not (isinstance(value, type) and issubclass(value, BaseException))}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            helpers |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    helpers -= set(dir(builtins)) | {"ray_real", "ray_long"}
    by_hom_graph = _helpers_called(tree, "classify_components", helpers)
    by_pairs = _helpers_called(tree, "kiss_sites", helpers)
    return (by_hom_graph & by_pairs) | (by_hom_graph & {"kiss_sites"}) \
        | (by_pairs & {"classify_components", "build_HQ"})


def test_kiss_routes_share_no_helper():
    """The two kiss routes stay independent: apart from the ray checks,
    ``classify_components`` and ``kiss_sites`` call no common helper, so
    ``sga selftest``'s comparison of the two is not one route against
    itself. A helper that both call is caught."""
    source = inspect.getsource(homgraph)
    assert _shared_helpers(source, homgraph) == set()
    merged = source.replace("def kiss_sites(q: PolarizedQuiver, x: AdmWord, y: AdmWord)",
                            "def kiss_sites(q, x, y):\n    _union_find(x)\n\n\n"
                            "def _unused(q: PolarizedQuiver, x: AdmWord, y: AdmWord)")
    merged = merged.replace('    hx, hy, verts = g.hx, g.hy, g.vertices\n',
                            '    hx, hy, verts = g.hx, g.hy, g.vertices\n'
                            '    _union_find(verts)\n', 1)
    assert merged.count("_union_find(") == 2
    module = types.SimpleNamespace(**vars(homgraph), _union_find=lambda v: v)
    assert _shared_helpers(merged, module) == {"_union_find"}
    routed = source.replace("    hx, hy = build_H(q, x), build_H(q, y)\n    m = max(",
                            "    classify_components(build_HQ(q, x, y))\n"
                            "    hx, hy = build_H(q, x), build_H(q, y)\n    m = max(")
    assert routed != source
    assert _shared_helpers(routed, homgraph) == {"classify_components", "build_HQ"}
