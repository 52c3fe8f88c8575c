"""The kiss route without the product quiver: ``kiss_sites`` against
``classify_components`` in both directions, its ray checks, the census of
both directions that ``kiss_census`` stores from one pass, and the import
rule that keeps the two routes apart."""

import ast
import hashlib
import inspect
import os

import pytest

from sga import homgraph, invariants, kisses
from sga.admissible import tau_adm
from sga.checks import KISS, Budget, verify
from sga.errors import TheoremViolation, WordError
from sga.homgraph import build_H, build_HQ, classify_components
from sga.invariants import kiss_census
from sga.kisses import kiss_sites
from sga.parsing import parse_quiver
from sga.quiver import PolarizedQuiver, auto_fringe
from sga.randquiver import random_skewed_gentle_quiver

from kit import adm_words


def _translates(q, max_len):
    fr = auto_fringe(q)
    return fr.extended, [tau_adm(fr.extended, x) for x in adm_words(q, max_len)]


def _data_quiver(name):
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.quiver")
    with open(path, encoding="utf-8") as fh:
        return parse_quiver(fh.read())


@pytest.mark.parametrize("seed, max_len, pairs", [
    (None, 8, 676), (9, 6, 1521), (11, 6, 961), (42, 6, 1444)])
def test_kiss_sites_equal_classify_components(ex1, seed, max_len, pairs):
    """Both halves of ``kiss_sites`` equal the kisses ``classify_components``
    finds, on every ordered pair of fringed translates."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    assert verify(KISS, q, Budget(max_len)) ** 2 == pairs


@pytest.mark.parametrize("name", ["ex1", "l4", "l6"])
def test_kiss_sites_equal_classify_components_on_the_quiver(name):
    """The same on every ordered pair of the max-len 6 words of the quiver
    itself, not of a fringing: there an end of one winding meets inner
    vertices of the other, so both sides of the boundary test count."""
    q = _data_quiver(name)
    words = adm_words(q, 6)
    for x in words:
        for y in words:
            rep = classify_components(build_HQ(q, x, y))
            assert kiss_sites(q, x, y)[0] == \
                tuple((c.ctype, c.vertices[0]) for c in rep.plus if c.kiss), (str(x), str(y))


# sha256 of the repr of both halves of ``kiss_sites``, one line per pair
SITES_DIGEST = "4ac71444cb406827f4762eeeaccc857357348125b11830007b44e6ef2c78d4bd"


def test_kiss_sites_all_pairs_digest():
    """Byte-exact pin of both halves of ``kiss_sites`` on every unordered
    pair of fringed translates of ex1 at max-len 8, seed 9 at max-len 6 and
    the two loop quivers at max-len 4."""
    lines = []
    for q, max_len in ((_data_quiver("ex1"), 8), (random_skewed_gentle_quiver(9), 6),
                       (_data_quiver("l4"), 4), (_data_quiver("l6"), 4)):
        qf, translates = _translates(q, max_len)
        for k, x in enumerate(translates):
            lines += [repr(kiss_sites(qf, x, y)) for y in translates[k:]]
    assert (len(lines), sum(line != "((), ())" for line in lines)) == (1386, 1020)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SITES_DIGEST


def _rays_at(h, v, hat):
    """The rays whose labels ``Winding.ray_labels(v, hat)`` reads, in order."""
    return [h.hat(v, *c) for c in homgraph._HAT_CHECKS] if hat else h.doublebar(v)


def _forget_labels(qf, *words):
    """Empty the label caches of the words' windings, so that the ray checks
    read the labels through ``Winding.ray_labels`` again."""
    for w in words:
        h = build_H(qf, w)
        h.hat_labels.clear()
        h.bar_labels.clear()


def _keep(h, v, hat, labels):
    """Keep labels where ``Winding.ray_labels`` keeps them, and return them."""
    (h.hat_labels if hat else h.bar_labels)[v] = labels
    return labels


@pytest.mark.parametrize("on_hat, message", [
    (True, "real h-line characterization differs"),
    (False, "long h-line characterization differs")])
def test_ray_checks_are_live(ex1, monkeypatch, on_hat, message):
    """Ray labels that contradict the colours make both routes raise: the
    order of the hat rays reversed breaks ``ray_real``, that of the
    doublebar rays ``ray_long``."""
    qf, translates = _translates(ex1, 6)
    u = v = translates[0]
    rep = classify_components(build_HQ(qf, u, v))
    assert any(c.real for c in rep.plus) and any(c.long for c in rep.full)
    read = homgraph.Winding.ray_labels

    def contradict(self, w, hat):
        chains, labels = read(self, w, hat)
        if hat == on_hat:
            labels = tuple(-l for l in labels)
        return _keep(self, w, hat, (chains, labels))

    monkeypatch.setattr(homgraph.Winding, "ray_labels", contradict)
    _forget_labels(qf, u)
    with pytest.raises(TheoremViolation, match=message):
        kiss_sites(qf, u, v)
    with pytest.raises(TheoremViolation, match=message):
        classify_components(build_HQ(qf, u, v))


@pytest.mark.parametrize("on_hat, message", [
    (True, "real h-line characterization differs"),
    (False, "long h-line characterization differs")])
def test_reverse_ray_checks_are_live(ex1, monkeypatch, on_hat, message):
    """For u != v, ray labels that contradict the colours of the (v, u)
    product quiver alone make the pair pass of (u, v) raise, as they make
    ``classify_components`` of (v, u) raise, while that of (u, v) passes:
    the pass checks the second half too.  The labels of the rays of u that
    v lacks are raised above every label of their chains, so (v, u), which
    asks whether a ray of u lies at or below one of v, finds them above."""
    qf, translates = _translates(ex1, 6)
    read = homgraph.Winding.ray_labels

    def rays(u):
        h = build_H(qf, u)
        return {r for i in h.vertices for r in _rays_at(h, i, on_hat)}

    only = {}

    def contradict(self, w, hat):
        chains, labels = read(self, w, hat)
        if hat == on_hat and self.word == only["u"]:
            labels = tuple(l + (1 << 80) if r in only["rays"] else l
                           for r, l in zip(_rays_at(self, w, hat), labels))
        return _keep(self, w, hat, (chains, labels))

    def raises(x, y):
        _forget_labels(qf, x, y)
        try:
            classify_components(build_HQ(qf, x, y))
        except TheoremViolation:
            return True
        return False

    def contradicted(u, v):
        only["u"], only["rays"] = u, rays(u) - rays(v)
        return raises(v, u) and not raises(u, v)

    monkeypatch.setattr(homgraph.Winding, "ray_labels", contradict)
    u, v = next((u, v) for u in translates for v in translates
                if u != v and contradicted(u, v))
    classify_components(build_HQ(qf, u, v))
    with pytest.raises(TheoremViolation, match=message):
        classify_components(build_HQ(qf, v, u))
    _forget_labels(qf, u, v)
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


def _imports_and_reads(source: str) -> tuple[set[str], set[str]]:
    """The modules a source imports (a relative one by its name in the
    package) and the names it reads off ``homgraph``."""
    imports, reads = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imports.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imports.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "homgraph":
            reads.add(node.attr)
    return imports, reads


def test_kiss_routes_share_only_the_base():
    """``kisses`` reads of ``homgraph`` only what both kiss routes share,
    and ``homgraph`` imports nothing of it, so ``sga selftest`` compares two
    routes, not one; a call of the first route from the second is caught."""
    source = inspect.getsource(kisses)
    rule = ({"__future__", "homgraph", "admissible", "errors", "quiver"},
            {"build_H", "red_blue", "ray_real", "ray_long"})
    assert _imports_and_reads(source) == rule
    assert not _imports_and_reads(inspect.getsource(homgraph))[0] & {"kisses", "sga.kisses"}
    line = "    hx, hy = homgraph.build_H(q, x), homgraph.build_H(q, y)\n"
    routed = source.replace(line, "    homgraph.classify_components(g)\n" + line)
    assert _imports_and_reads(routed)[1] == rule[1] | {"classify_components"}
