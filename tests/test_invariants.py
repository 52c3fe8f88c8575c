import re

import pytest

from sga.admissible import AdmWord, classify, enumerate_adm
from sga import invariants
from sga.errors import SgaError, TheoremViolation
from sga.invariants import (TAG_ORDER, canonical_tagged, d2, d3, diag_b,
                            dim_vector_comb, e_comb, enumerate_components,
                            g_comb, kiss_census, p_set, tag_chi, tag_iota,
                            tags_for, wt)
from sga.parsing import parse_tag
from sga.quiver import PolarizedQuiver, as_fringing, auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import build_module, module_V, module_k
from sga.words import invl, ordl, tinvl, trivl

ORDER = [("1", "o"), ("2", "-"), ("2", "+"), ("3", "o")]
SIGN = {"+": 1, "-": -1}


@pytest.fixture(scope="module")
def frp(ex1, ex1_hand_fringing):
    return as_fringing(ex1, ex1_hand_fringing)


@pytest.fixture(scope="module")
def fra(ex1):
    return auto_fringe(ex1)


def test_tag_algebra():
    assert wt("**") == 2 and wt("*") == 1 and wt("+-") == 1
    assert tag_iota("+-") == "-+" and tag_iota("*") == "*"
    assert tag_chi("+-") == "-+" and tag_chi("**") == "**"
    assert tag_iota(tag_iota("+-")) == "+-"
    assert d2("*", "*") == 2 and d2("+", "-") == 0 and d2("+", "+") == 1
    assert d2("-", "*") == 1
    assert d3("++", "++") == 1 and d3("**", "**") == 0
    every = [s for wtype in ("uu", "up", "pu", "pp", "b")
             for s in tags_for(AdmWord((), wtype))]
    assert set(every) == set(TAG_ORDER)
    for s in every:
        assert parse_tag(s) == s
        assert tag_iota(tag_iota(s)) == s and tag_chi(tag_chi(s)) == s


def test_tags_for_types(ex1):
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    assert tags_for(x) == ("++",)
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    assert tags_for(y) == ("-+", "++")
    with pytest.raises(SgaError):
        g_comb(ex1, auto_fringe(ex1), y, "+-")


def test_g_comb_worked_triples_hand_fringing(ex1, frp):
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    g = g_comb(ex1, frp, x, "++")
    assert [g[k] for k in ORDER] == [-1, 1, 1, 0]
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    gp = g_comb(ex1, frp, y, "++")
    assert [gp[k] for k in ORDER] == [1, -1, 0, 0]
    gm = g_comb(ex1, frp, y, "-+")
    assert [gm[k] for k in ORDER] == [1, 0, -1, 0]


def test_g_comb_fringing_independent(ex1, frp, fra):
    sets = enumerate_adm(ex1, 9)
    for x in sets.strings:
        for s in tags_for(x):
            assert g_comb(ex1, frp, x, s) == g_comb(ex1, fra, x, s), (str(x), s)


def test_g_comb_matches_oracle(ex1, frp):
    from sga.repmod import g_oracle
    sets = enumerate_adm(ex1, 9)
    for x in sets.strings:
        for s in tags_for(x):
            X = module_k(5) if x.wtype == "uu" else \
                module_V(SIGN[s[1] if x.wtype == "up" else s[0]], 5)
            assert g_comb(ex1, frp, x, s) == g_oracle(ex1, x, X), (str(x), s)


def test_dim_vector_comb(ex1):
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    dv = dim_vector_comb(ex1, y, "++")
    assert [dv[k] for k in ORDER] == [1, 0, 1, 0]
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    assert [dim_vector_comb(ex1, x, "++")[k] for k in ORDER] == [1, 1, 1, 2]


def test_dim_vector_comb_checks_special_vertices(ex1, monkeypatch):
    """A vertex over a special vertex on neither a special loop nor a
    special edge raises ``TheoremViolation`` naming the word and the
    vertex; it is a raise, not an ``assert``, so it survives ``python -O``."""
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    h = invariants.build_H(ex1, x)
    plain = h._replace(edges=tuple(
        e for e in h.edges if not ex1.by_name[e.image].special))
    monkeypatch.setattr(invariants, "build_H", lambda q, w: plain)
    with pytest.raises(TheoremViolation, match=re.escape(f"{x}: vertex 3 over special")):
        dim_vector_comb(ex1, x, "++")


def test_dim_vector_matches_modules(ex1):
    sets = enumerate_adm(ex1, 9)
    for x in sets.strings:
        for s in tags_for(x):
            dv = dim_vector_comb(ex1, x, s)
            X = module_k(5) if x.wtype == "uu" else \
                module_V(SIGN[s[1] if x.wtype == "up" else s[0]], 5)
            M = build_module(ex1, x, X)
            got = {(v, r): d for (v, r), d in M.dim_vector().items()}
            assert dv == got, (str(x), s)


def test_kiss_census_invariants(ex1, frp):
    sets = enumerate_adm(ex1, 8)
    words = list(sets.strings)[:8]
    for x in words:
        for y in words:
            kiss_census(ex1, frp, x, y)  # raises on any failed invariant


def test_p_set_excludes_diagonal(ex1):
    y = classify(ex1, (tinvl("1", -1), invl("a"), trivl("2", -1)))
    assert p_set(ex1, y, y) == ()
    assert p_set(ex1, y, y.inverse()) == ()
    s2 = classify(ex1, (tinvl("2", 1), trivl("2", -1)))
    assert p_set(ex1, y, s2) == ((1, 1),)


def test_e_comb_symmetric(ex1, frp):
    sets = enumerate_adm(ex1, 8)
    words = list(sets.strings)[:8]
    for x in words:
        for y in words:
            for s in tags_for(x):
                for t in tags_for(y):
                    assert e_comb(ex1, frp, (x, s), (y, t)) == \
                        e_comb(ex1, frp, (y, t), (x, s))


def test_e_comb_equivalence_invariant(ex1, frp):
    sets = enumerate_adm(ex1, 8)
    words = list(sets.strings)[:6]
    for x in words:
        for y in words:
            for s in tags_for(x):
                for t in tags_for(y):
                    a = e_comb(ex1, frp, (x, s), (y, t))
                    b = e_comb(ex1, frp, (x.inverse(), tag_iota(s)), (y, t))
                    assert a == b, (str(x), str(y), s, t)


def test_enumerate_components_ex1(ex1, fra):
    labels, matrix, truncated = enumerate_components(ex1, fra, 8)
    assert labels and not truncated
    # (u,u) classes appear exactly with the tag ++
    for l in labels:
        if l.word.wtype == "uu":
            assert l.tag == "++"
        cx, cs = canonical_tagged(l.word, l.tag)
        assert (cx, cs) == (l.word, l.tag)
    n = len(labels)
    for i in range(n):
        assert matrix[i][i] == 0
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]


def test_diag_b_band(loop_quiver):
    x = classify(loop_quiver, (ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                               invl("a"), ordl("e")), band=True)
    assert diag_b(x, x) == 1
    assert diag_b(x, x.inverse()) == -1
    y = classify(loop_quiver, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"),
                               ordl("e"), invl("a"), trivl("1", -1)))
    assert diag_b(y, y) == 1 and diag_b(y, x) == 0


def _census_lines(q, n):
    fr = auto_fringe(q)
    words = enumerate_adm(q, 8).strings[:n]
    out = []
    for x in words:
        for y in words:
            c = kiss_census(q, fr, x, y)
            out.append(f"{x}\t{y}\t{c.a_count}\t{c.p_set}\t{c.diag}\t{c.d_count}\t"
                       f"{c.at_count}\t{c.dpt_count}\t{c.total}\n")
    return "".join(out)


def test_kiss_census_repeated_with_rebuilt_quiver():
    """The ray caches and the translate store are shared between
    content-equal quivers; a repeat on a rebuilt quiver answers the same."""
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    first = _census_lines(q, 16)
    rebuilt = PolarizedQuiver(q.vertices, q.arrows)
    assert rebuilt == q and rebuilt is not q
    assert _census_lines(rebuilt, 16) == first


# -- the module catalogue: Family, read by c_set and indecomposables_Ax ---------------

def _parent_c_set(x, s, p):
    """``c_set`` as it was before ``Family``, kept as the reference."""
    from sga import repmod
    invariants.check_tag(x, s)
    if x.wtype == "b":
        return [repmod.module_Vband(1, t, p) for t in range(1, p)]
    if s == "**":
        return [repmod.module_Vt(1, t, p) for t in range(2, p - 1)]
    s0, s1 = (1 if c == "+" else -1 for c in s)
    if x.wtype == "uu":
        return [repmod.module_k(p)]
    if x.wtype == "up":
        return [repmod.module_V(s1, p)]
    if x.wtype == "pu":
        return [repmod.module_V(s0, p)]
    return [repmod.module_W(1, s0 * s1, p, chi=s1 < 0)]


def _parent_indecomposables_Ax(word_type, max_dim, p):
    """``indecomposables_Ax`` as it was before ``Family``, kept as the reference."""
    from sga import gf, repmod
    gf.check_prime(p)
    if word_type == "uu":
        return [repmod.module_k(p)]
    if word_type in ("up", "pu"):
        return [repmod.module_V(1, p), repmod.module_V(-1, p)]
    if word_type == "b":
        return [repmod.module_Vband(m, t, p)
                for m in range(1, max_dim + 1) for t in range(1, p)]
    out = []
    for m in range(1, max_dim + 1):
        for sign in (1, -1):
            out.append(repmod.module_W(m, sign, p))
            out.append(repmod.module_W(m, sign, p, chi=True))
    for m in range(1, max_dim // 2 + 1):
        for s in range(2, p - 1):
            out.append(repmod.module_Vt(m, s, p))
    return out


def test_catalogue_matches_the_parent_on_every_type_and_tag():
    from sga.repmod import indecomposables_Ax
    for wtype in ("uu", "up", "pu", "pp", "b"):
        x = AdmWord((), wtype)
        for p in (3, 5, 7):
            for s in tags_for(x):
                assert invariants.c_set(x, s, p) == _parent_c_set(x, s, p), (wtype, s, p)
            for max_dim in (1, 2, 3):
                assert indecomposables_Ax(wtype, max_dim, p) == \
                    _parent_indecomposables_Ax(wtype, max_dim, p), (wtype, max_dim, p)


def test_catalogue_matches_the_parent_on_every_tagged_word(ex1):
    from sga.repmod import indecomposables_Ax
    quivers = [ex1] + [random_skewed_gentle_quiver(seed) for seed in (9, 11, 42)]
    checked = 0
    for q in quivers:
        sets = enumerate_adm(q, 6)
        for x in list(sets.strings) + list(sets.bands):
            for p in (3, 5, 7):
                for s in tags_for(x):
                    assert invariants.c_set(x, s, p) == _parent_c_set(x, s, p)
                    checked += 1
                assert indecomposables_Ax(x.wtype, 2, p) == \
                    _parent_indecomposables_Ax(x.wtype, 2, p)
    assert checked > 300


def test_family_params_and_points():
    for wtype in ("uu", "up", "pu", "pp", "b"):
        x = AdmWord((), wtype)
        for s in tags_for(x):
            fam = invariants.Family(x, s)
            assert fam.params == (1 if s in ("*", "**") else 0), s
            assert len(fam.values(7)) == len(invariants.c_set(x, s, 7))
            if fam.params == 0:
                assert fam.values(7) == fam.points(7) == [None]
    pp = invariants.Family(AdmWord((), "pp"), "**")
    # Vt(1,t) is isomorphic to Vt(1,1/t): over GF(5) the curve is one class (2 = 1/3)
    assert pp.points(5) == [2]
    assert pp.points(7) == [2, 3]
    assert pp.points(3) == []
    assert pp.values(7) == [2, 3, 4, 5]
    band = invariants.Family(AdmWord((), "b"), "*")
    assert band.points(5) == band.values(5) == [1, 2, 3, 4]
    assert pp.module(3, 7).label == "Vt(1,3)" and pp.module(3, 7, m=2).dim == 4
    assert band.module(2, 5, m=3).label == "V(3,2)"
    # the algebras of (u,u), (u,p) and (p,u) words are semisimple
    up = invariants.Family(AdmWord((), "up"), "+-")
    assert up.lengths(3) == range(1, 2) and up.module(None, 5).label == "V-"
    with pytest.raises(SgaError, match="quasi-length 2"):
        up.module(None, 5, m=2)


def test_c_set_refuses_a_field_that_is_not_prime():
    band = AdmWord((), "b")
    for p in (4, 9):
        with pytest.raises(SgaError, match="odd prime"):
            invariants.c_set(band, "*", p)
    assert invariants.c_set(AdmWord((), "pp"), "**", 3) == []
    with pytest.raises(SgaError, match="illegal"):
        invariants.c_set(AdmWord((), "uu"), "--", 5)
