"""Sweeps over a quiver carrying doubly punctured strings.

The acceptance quiver excludes these on purpose (their generic-parameter
curves collapse over GF(5)); here the dihedral machinery gets the same
treatment over GF(7), where two non-isomorphic curve members exist, plus a
pinned demonstration of the GF(5) collapse itself.
"""

import pytest

from sga import repmod
from sga.admissible import enumerate_adm
from sga.checks import TAU_GENERIC, Budget, verify
from sga.homgraph import build_HQ, classify_components, real_long_bijection
from sga.invariants import c_set, diag_b, e_comb, tags_for
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.homalg import hom_dim_oracle
from sga.repmod import (E_formula, E_oracle, build_module, hom_dim_formula,
                        indecomposables_Ax, tau_module)

# seed 9: both punctured ends of each (p,p) word at the same vertex
# seed 42: ends at different vertices, plus a band through two special loops
@pytest.fixture(scope="module", params=[9, 42])
def ppq(request):
    q = random_skewed_gentle_quiver(request.param)
    sets = enumerate_adm(q, 8)
    assert any(x.wtype == "pp" for x in sets.strings)
    return q


@pytest.fixture(scope="module")
def ppwords(ppq):
    sets = enumerate_adm(ppq, 8)
    interesting = [x for x in sets.strings if x.wtype != "uu"] + list(sets.bands)
    fill = [x for x in sets.strings if x.wtype == "uu"][:10]
    return interesting + fill


def test_hom_theorem_with_dihedral_modules(ppq, ppwords):
    p = 5
    mods = {x: indecomposables_Ax(x.wtype, 2, p) for x in ppwords}
    reps = {(x, X.label): build_module(ppq, x, X)
            for x in ppwords for X in mods[x]}
    checked = 0
    for x in ppwords:
        for y in ppwords:
            g = build_HQ(ppq, x, y)
            rep = classify_components(g)
            real_long_bijection(g, rep)
            for X in mods[x]:
                for Y in mods[y]:
                    lhs = hom_dim_formula(ppq, x, X, y, Y, g=g, report=rep)
                    rhs = hom_dim_oracle(reps[(x, X.label)], reps[(y, Y.label)])
                    assert lhs == rhs, (str(x), X.label, str(y), Y.label)
                    checked += 1
    assert checked > 1000


def test_E_formula_with_dihedral_modules(ppq, ppwords):
    p = 5
    fr = auto_fringe(ppq)
    mods = {x: indecomposables_Ax(x.wtype, 2, p) for x in ppwords}
    reps = {(x, X.label): build_module(ppq, x, X)
            for x in ppwords for X in mods[x]}
    taus = {}
    for x in ppwords:
        for X in mods[x]:
            t = tau_module(ppq, x, X)
            taus[(x, X.label)] = None if t is None else build_module(ppq, *t)
    for x in ppwords:
        for y in ppwords:
            for X in mods[x]:
                for Y in mods[y]:
                    rhs = E_formula(ppq, fr, x, X, y, Y)
                    lhs = 0
                    if taus[(y, Y.label)] is not None:
                        lhs += hom_dim_oracle(reps[(x, X.label)],
                                              taus[(y, Y.label)])
                    if taus[(x, X.label)] is not None:
                        lhs += hom_dim_oracle(reps[(y, Y.label)],
                                              taus[(x, X.label)])
                    assert lhs == rhs, (str(x), X.label, str(y), Y.label)


def test_generic_E_matches_over_GF7(ppq, ppwords):
    p = 7
    fr = auto_fringe(ppq)
    tagged = [(x, s) for x in ppwords for s in tags_for(x)]
    cache = {}
    for i, (x, s) in enumerate(tagged):
        for (y, t) in tagged[i:]:
            ec = e_comb(ppq, fr, (x, s), (y, t))
            best = None
            for X in c_set(x, s, p):
                for Y in c_set(y, t, p):
                    key = (x.letters, X.label, y.letters, Y.label)
                    if key not in cache:
                        cache[key] = E_oracle(ppq, x, X, y, Y)
                    best = cache[key] if best is None else min(best, cache[key])
            assert ec == best, (str(x), s, str(y), t, ec, best)


def test_pp_inverse_needs_iota_twist(ppq, ppwords):
    """M(x, X) is isomorphic to M(x^-1, X with S and T swapped)."""
    from sga.homalg import iso_witness
    from sga.repmod import iota_twist, module_W
    pps = [x for x in ppwords if x.wtype == "pp"]
    assert pps
    for x in pps:
        for X in (module_W(1, 1, 5), module_W(1, -1, 5), module_W(2, 1, 5)):
            M = build_module(ppq, x, X)
            N = build_module(ppq, x.inverse(), iota_twist(x, X))
            assert iso_witness(M, N) is not None, (str(x), X.label)


def test_gf5_star_star_collapse_is_exactly_plus_two(ppq, ppwords):
    """Over GF(5) the (*,*) curves hold a single isomorphism class, so the
    finite minimum exceeds the generic value by exactly the two twisted Hom
    dimensions on band-diagonal pairs; everywhere else the fields agree."""
    p = 5
    fr = auto_fringe(ppq)
    tagged = [(x, s) for x in ppwords for s in tags_for(x)]
    cache = {}
    for i, (x, s) in enumerate(tagged):
        for (y, t) in tagged[i:]:
            ec = e_comb(ppq, fr, (x, s), (y, t))
            best = None
            for X in c_set(x, s, p):
                for Y in c_set(y, t, p):
                    key = (x.letters, X.label, y.letters, Y.label)
                    if key not in cache:
                        cache[key] = E_oracle(ppq, x, X, y, Y)
                    best = cache[key] if best is None else min(best, cache[key])
            degenerate = (s == t == "**" and diag_b(x, y) != 0)
            if degenerate:
                assert best == ec + 2, (str(x), str(y))
            else:
                assert best == ec, (str(x), s, str(y), t)


def test_star_star_points_are_isomorphism_classes():
    """``Family.points`` keeps one of t and 1/t on a ``**`` curve: over GF(7)
    ``Vt(1,t)`` and ``Vt(1,1/t)`` give the same oracle E-invariant both ways
    against every member of every tag family on the seed-42 (p,p) words, and
    the same g-vector."""
    from sga.invariants import Family
    from sga.repmod import g_oracle, module_Vt
    p = 7
    q = random_skewed_gentle_quiver(42)
    pps = [x for x in enumerate_adm(q, 8).strings if x.wtype == "pp"]
    assert pps
    members = [Y for y in pps for s in tags_for(y) for Y in c_set(y, s, p)]
    checked = 0
    for x in pps:
        fam = Family(x, "**")
        assert fam.points(p) == [2, 3]
        for t in fam.points(p):
            X, Xi = module_Vt(1, t, p), module_Vt(1, pow(t, -1, p), p)
            assert g_oracle(q, x, X) == g_oracle(q, x, Xi)
            for y in pps:
                for s in tags_for(y):
                    for Y in c_set(y, s, p):
                        assert E_oracle(q, x, X, y, Y) == E_oracle(q, x, Xi, y, Y)
                        assert E_oracle(q, y, Y, x, X) == E_oracle(q, y, Y, x, Xi)
                        checked += 1
    assert checked == 2 * len(pps) * len(members)


def test_E_formula_pairs_a_word_with_its_inverse(ppq, monkeypatch):
    """diag = -1: each (p,p) word and band of max-len 8 against its inverse,
    on every pair of modules of dim <= 2 over GF(7); E_formula's twisted
    Hom terms run through ``iota_twist`` on both word types."""
    p = 7
    fr = auto_fringe(ppq)
    sets = enumerate_adm(ppq, 8)
    twisted = set()
    iota_twist = repmod.iota_twist
    monkeypatch.setattr(repmod, "iota_twist",
                        lambda x, X: twisted.add(x.wtype) or iota_twist(x, X))
    for x in [x for x in sets.strings if x.wtype == "pp"] + list(sets.bands):
        y = x.inverse()
        assert diag_b(x, y) == -1, str(x)
        for X in indecomposables_Ax(x.wtype, 2, p):
            for Y in indecomposables_Ax(y.wtype, 2, p):
                assert E_formula(ppq, fr, x, X, y, Y) == E_oracle(ppq, x, X, y, Y), \
                    (str(x), X.label, Y.label)
    assert twisted == {"pp", "b"}


def test_tau_generic_simplification_on_pp_words(ppq):
    """The simplified check agrees with ``is_tau_generic`` on every tagged
    word, (p,p) words among them; on seed 9 their punctured ends meet at one
    vertex, where only the tags ``--`` and ``++`` pass."""
    assert verify(TAU_GENERIC, ppq, Budget(8)) > 0
