"""The checked identities: each formula with its second route.

A ``Check`` is one identity: ``cases(q, budget)`` yields argument tuples,
``run(*case)`` returns None or the mismatch text, and ``summary(n)`` is the
``sga selftest`` line after n cases.  ``sga selftest`` runs ``checked_adm``
and then ``verify`` on each check of ``CHECKS``; the tests call ``verify``
with their own quivers and budgets.  Only ``HOM`` loads the GF(p) oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, NamedTuple

from .admissible import (AdmSets, AdmWord, a_image_of_completion, enumerate_adm,
                         enumerate_adm_direct, is_projective_adm, tau_adm,
                         tau_adm_via_successors)
from .errors import TheoremViolation, route_mismatch
from .homgraph import (HomGraph, PlusComponent, build_HQ, classify_components,
                       real_long_bijection)
from .invariants import is_tau_generic, simplified_check, tags_for
from .kisses import kiss_sites
from .quiver import Fringing, PolarizedQuiver, auto_fringe
from .words import (enumerate_strings, format_word, projective_strings, tau_string,
                    tau_string_inverse)


class Budget(NamedTuple):
    """Words whose completion has length at most ``max_len``, and modules
    of dimension at most ``size`` over GF(p)."""
    max_len: int
    p: int = 5
    size: int = 1


class Check(NamedTuple):
    name: str
    cases: Callable[[PolarizedQuiver, Budget], Iterable[tuple]]
    run: Callable[..., str | None]
    summary: Callable[[int], str]


def _fail(why: str | None) -> None:
    if why:
        raise TheoremViolation(why)


def verify(check: Check, q: PolarizedQuiver, budget: Budget) -> int:
    """The number of cases of ``check`` on q; the first case that fails
    raises ``TheoremViolation`` with its mismatch text."""
    n = 0
    for n, case in enumerate(check.cases(q, budget), 1):
        _fail(check.run(*case))
    return n


def checked_adm(q: PolarizedQuiver, max_len: int) -> AdmSets:
    """``enumerate_adm``, checked against ``enumerate_adm_direct``."""
    sets, direct = enumerate_adm(q, max_len), enumerate_adm_direct(q, max_len)
    if (set(sets.strings), set(sets.bands)) != (set(direct.strings), set(direct.bands)):
        raise TheoremViolation("DUAL-ROUTE MISMATCH: enumerate_adm and "
                               "enumerate_adm_direct differ")
    return sets


def _tau_routes(q: PolarizedQuiver, x: AdmWord) -> str | None:
    return route_mismatch("TAU ROUTE", {
        "tau_adm": tau_adm(q, x), "tau_adm_via_successors": tau_adm_via_successors(q, x)})


def checked_tau(q: PolarizedQuiver, x: AdmWord) -> AdmWord:
    """``tau_adm``, checked against ``tau_adm_via_successors``."""
    _fail(_tau_routes(q, x))
    return tau_adm(q, x)


def _words(q: PolarizedQuiver, budget: Budget) -> list[AdmWord]:
    sets = enumerate_adm(q, budget.max_len)
    return list(sets.strings) + list(sets.bands)


def _pairs(q: PolarizedQuiver, budget: Budget):
    words = _words(q, budget)
    return ((q, x, y) for x in words for y in words)


def _not_h_triple(g: HomGraph, comp: PlusComponent) -> str | None:
    """The property a real h-line fails at an endpoint (j, i): (q), every
    edge of H(x) into i is the x part of a component arrow into (j, i), or
    (s), every edge of H(y) out of j is the y part of one out of (j, i)."""
    for j, i in comp.endpoints:
        into = {a.xpart for a in comp.arrows if a.tgt == (j, i)}
        if any(e.tgt == i and ("edge", e.idx) not in into for e in g.hx.edges):
            return "real h-line fails property (q)"
    for j, i in comp.endpoints:
        out = {a.ypart for a in comp.arrows if a.src == (j, i)}
        if any(e.src == j and ("edge", e.idx) not in out for e in g.hy.edges):
            return "real h-line fails property (s)"
    return None


def _real_long(q: PolarizedQuiver, x: AdmWord, y: AdmWord) -> str | None:
    """The real/long bijection, and every real h-line an h-triple."""
    g = build_HQ(q, x, y)
    rep = classify_components(g)
    real_long_bijection(g, rep)   # raises its own violation
    for comp in rep.plus:
        if comp.real and (why := _not_h_triple(g, comp)):
            return why
    return None


def _translates(q: PolarizedQuiver, budget: Budget):
    """A fringed translate with those from it on: one case per translate,
    one ``kiss_sites`` pass per unordered pair, both halves checked."""
    qf = auto_fringe(q).extended
    translates = [tau_adm(qf, x) for x in _words(q, budget)]
    return ((qf, u, translates[k:]) for k, u in enumerate(translates))


def _kisses(qf: PolarizedQuiver, u: AdmWord, later: list[AdmWord]) -> str | None:
    for v in later:
        for (a, b), sites in zip(((u, v), (v, u)), kiss_sites(qf, u, v)):
            rep = classify_components(build_HQ(qf, a, b))
            if sites != tuple((c.ctype, c.vertices[0]) for c in rep.plus if c.kiss):
                return f"KISS DUAL-ROUTE MISMATCH {a} {b}"
    return None


def _quadruples(q: PolarizedQuiver, budget: Budget):
    """Every (x, X, y, Y), with the product quiver of (x, y) built and
    classified once, and its real/long bijection checked before the
    formula reads its real h-lines."""
    from .repmod import indecomposables_Ax
    words = _words(q, budget)
    mods = {x.wtype: indecomposables_Ax(x.wtype, budget.size, budget.p) for x in words}
    for x in words:
        graphs = []
        for y in words:
            g = build_HQ(q, x, y)
            rep = classify_components(g)
            real_long_bijection(g, rep)
            graphs.append((y, g, rep))
        for X in mods[x.wtype]:
            for y, g, rep in graphs:
                for Y in mods[y.wtype]:
                    yield q, x, X, y, Y, g, rep


def _hom(q, x, X, y, Y, g, rep) -> str | None:
    from .repmod import build_module, hom_dim_formula, hom_dim_oracle
    if hom_dim_formula(q, x, X, y, Y, g=g, report=rep) != \
            hom_dim_oracle(build_module(q, x, X), build_module(q, y, Y)):
        return f"HOM MISMATCH {x} {X.label} {y} {Y.label}"
    return None


def _tagged(q: PolarizedQuiver, budget: Budget):
    fr = auto_fringe(q)
    return ((q, fr, x, s) for x in _words(q, budget) for s in tags_for(x))


def _tau_generic(q, fr, x, s) -> str | None:
    if is_tau_generic(q, fr, x, s) != simplified_check(q, fr, x, s):
        return "TAU-GENERIC MISMATCH"
    return None


def _strings(q: PolarizedQuiver, budget: Budget):
    return ((q, x) for x in enumerate_adm(q, budget.max_len).strings)


def _a_image(q: PolarizedQuiver, x: AdmWord) -> str | None:
    return route_mismatch("A-IMAGE", {
        "word": x, "a_image_of_completion": a_image_of_completion(q, x)})


def _base_strings(q: PolarizedQuiver, budget: Budget):
    """The base strings off the projectives, where tau is defined."""
    proj = projective_strings(q)
    return ((q, w) for w in enumerate_strings(q, budget.max_len)[0] if w not in proj)


def _tau_inverse(q: PolarizedQuiver, w) -> str | None:
    v = tau_string_inverse(q, tau_string(q, w))
    return route_mismatch("TAU INVERSE", {
        "string": format_word(w), "tau_string_inverse of its translate": format_word(v)})


def _fringed_words(q: PolarizedQuiver, budget: Budget):
    """A word with those from it on: one case per word, one ``kiss_sites``
    pass per unordered pair, both halves checked."""
    fr = auto_fringe(q)
    words = _words(q, budget)
    return ((q, fr, x, words[k:]) for k, x in enumerate(words))


def _kiss_transport(q: PolarizedQuiver, fr: Fringing, x: AdmWord,
                    later: list[AdmWord]) -> str | None:
    """For each y of ``later``: the kisses between the translates of x and y
    in the fringed quiver, counted by type, are the real h-lines from x
    towards the translate of y in q, and none when y is projective; the
    second half of the same ``kiss_sites`` pass checks (y, x) likewise."""
    qf = fr.extended
    tx = tau_adm(qf, x)
    for y in later:
        pairs = ((x, y), (y, x)) if x != y else ((x, x),)   # (x, x) is its own transpose
        for (a, b), sites in zip(pairs, kiss_sites(qf, tx, tau_adm(qf, y))):
            kisses = Counter(t for t, _ in sites)
            if is_projective_adm(q, b):
                if kisses:
                    return f"kisses against a projective translate {a} {b}"
                continue
            rep = classify_components(build_HQ(q, a, tau_adm(q, b)))
            reals = Counter(c.ctype for c in rep.plus if c.real)
            if reals != kisses:
                return f"kiss transport mismatch: {kisses} vs h-triples {reals}"
    return None


def _non_projective(q: PolarizedQuiver, budget: Budget):
    return ((q, x) for x in enumerate_adm(q, budget.max_len).strings
            if not is_projective_adm(q, x))


REAL_LONG = Check("real-long", _pairs, _real_long,
                  lambda n: f"real/long bijection and h-triples ok on {n} pairs")
KISS = Check("kiss", _translates, _kisses,
             lambda n: f"kiss dual route ok on {n * n} translate pairs")
HOM = Check("hom", _quadruples, _hom, lambda n: f"hom theorem ok on {n} quadruples")
TAU_GENERIC = Check("tau-generic", _tagged, _tau_generic,
                    lambda n: "tau-generic simplification ok")
A_IMAGE = Check("a-image", _strings, _a_image,
                lambda n: f"A-image of completion ok on {n} strings")
TAU_INVERSE = Check("tau-inverse", _base_strings, _tau_inverse,
                    lambda n: f"tau inverse ok on {n} non-projective base strings")
TAU_ROUTES = Check("tau-routes", _non_projective, _tau_routes,
                   lambda n: f"tau routes ok on {n} non-projective strings")
KISS_TRANSPORT = Check("kiss-transport", _fringed_words, _kiss_transport,
                       lambda n: f"kiss transport ok on {n * n} pairs")
CHECKS = (REAL_LONG, KISS, HOM, TAU_GENERIC, A_IMAGE, TAU_INVERSE, TAU_ROUTES,
          KISS_TRANSPORT)
