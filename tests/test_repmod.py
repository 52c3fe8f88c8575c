import numpy as np
import pytest

from sga import gf
from sga.admissible import classify, enumerate_adm
from sga.errors import SgaError
from sga.homalg import hom_basis_oracle, hom_dim_oracle, iso_witness, simple
from sga.homgraph import build_HQ, classify_components
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import (E_oracle, _component_base_space, build_module, g_oracle,
                        hom_basis_structured, hom_dim_formula, indecomposables_Ax,
                        module_k, module_V, module_Vband, module_Vt, module_W,
                        s_tilde, tau_module)
from sga.words import invl, ordl, tinvl, trivl

from kit import (adm_words, dense, dihedral_direct_sum, dihedral_iso, hom_pp,
                 ind_module, sparse)


def eye(n):
    return tuple(((i, 1),) for i in range(n))


def test_gf_basics():
    p = 5
    a = sparse([[1, 2], [3, 4]], p)
    assert a == (((0, 1), (1, 2)), ((0, 3), (1, 4)))
    assert gf.rank(a, p) == 2
    assert gf.mul(a, gf.inv(a, p), p) == eye(2)
    ns = gf.nullspace(sparse([[1, 2, 3]], p), 3, p)
    assert len(ns) == 2
    for row in ns:
        assert (dense([row], 3) @ np.array([1, 2, 3]))[0] % p == 0
    with pytest.raises(SgaError):
        gf.inv(sparse([[1, 2], [2, 4]], p), p)
    with pytest.raises(SgaError):
        gf.check_prime(4)
    with pytest.raises(SgaError):
        gf.check_prime(2)


def test_T_inv_without_T_names_the_module():
    with pytest.raises(SgaError, match="module Vo has no T"):
        module_k(5).T_inv
    V = module_Vband(2, 3, 5)
    assert gf.mul(V.T, V.T_inv, 5) == eye(2)


def test_s_tilde_small():
    assert s_tilde(2, 1, 5) == sparse([[1, 0], [-2, -1]], 5)
    for p in (5, 7):
        for m in range(1, 7):
            for sign in (1, -1):
                st = s_tilde(m, sign, p)
                assert gf.mul(st, st, p) == eye(m)
                j = gf.jordan_block(m, sign, p)
                assert gf.mul(st, j, p) == gf.mul(gf.inv(j, p), st, p)


def test_Vt_refuses_the_parameters_0_and_plus_minus_1():
    for p in (5, 7):
        for s in (0, 1, p - 1, p, p + 1, -1):
            with pytest.raises(SgaError, match="parameter must avoid 0 and"):
                module_Vt(2, s, p)
        assert module_Vt(2, 2, p).dim == 4


def test_W_and_Vt_relations():
    for p in (5, 7):
        for m in (1, 2, 3):
            for sign in (1, -1):
                for chi in (False, True):
                    w = module_W(m, sign, p, chi=chi)
                    assert gf.mul(w.S, w.S, p) == eye(m)
                    assert gf.mul(w.T, w.T, p) == eye(m)
        for m in (1, 2):
            v = module_Vt(m, 2, p)
            assert gf.mul(v.S, v.S, p) == eye(2 * m)
            assert gf.mul(v.T, v.T, p) == eye(2 * m)
    w = module_W(1, 1, 5)
    assert w.S == (((0, 1),),) and w.T == (((0, 1),),)
    w = module_W(1, -1, 5)
    assert w.S == (((0, 4),),) and w.T == (((0, 1),),)
    v = module_Vt(1, 2, 5)
    assert v.T == sparse([[0, 1], [1, 0]], 5)


def test_restriction_induction_decomposition():
    # End(R tensor V(m,s)) has dimension 2m when it splits into the two
    # W-modules (s = +-1) and m when it stays indecomposable.
    for p in (5, 7):
        for m in (1, 2, 3, 4):
            for s in (1, p - 1):
                X = ind_module(m, s, p)
                assert hom_pp(X, X, p) == 2 * m
                sign = 1 if s == 1 else -1
                target = dihedral_direct_sum(module_W(m, sign, p),
                                             module_W(m, sign, p, chi=True), p)
                assert dihedral_iso(X, target, p), (p, m, s)
            for s in (2, 3):
                X = ind_module(m, s, p)
                assert hom_pp(X, X, p) == m
                v = module_Vt(m, s, p)
                assert X.S == v.S and X.T == v.T
    # the only isomorphism among the Vt family is s ~ s^-1
    p = 5
    assert dihedral_iso(module_Vt(1, 2, p), module_Vt(1, 3, p), p)  # 3 = 2^-1
    assert hom_pp(module_W(1, 1, p), module_W(1, 1, p, chi=True), p) == 0


def test_indecomposable_lists():
    mods = indecomposables_Ax("pp", 2, 5)
    labels = {m.label for m in mods}
    assert "W(1,+)" in labels and "Wchi(2,-)" in labels and "Vt(1,2)" in labels
    assert all(m.dim <= 2 for m in mods)
    bands = indecomposables_Ax("b", 2, 5)
    assert len(bands) == 8
    with pytest.raises(SgaError):
        indecomposables_Ax("b", 1, 4)


def test_build_module_examples(ex1):
    p = 5
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    M = build_module(ex1, y, module_V(1, p))
    dv = M.dim_vector()
    assert dv == {("1", "o"): 1, ("2", "-"): 0, ("2", "+"): 1, ("3", "o"): 0}
    s2 = simple(ex1, "2", "+", p)
    assert sum(s2.dims.values()) == 1
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    M2 = build_module(ex1, x, module_k(p))
    assert M2.dim_vector() == {("1", "o"): 1, ("2", "-"): 1, ("2", "+"): 1,
                               ("3", "o"): 2}
    assert gf.mul(M2.mats["e"], M2.mats["e"], p) == eye(2)


def test_band_module_dims(loop_quiver):
    p = 5
    x = classify(loop_quiver, (ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                               invl("a"), ordl("e")), band=True)
    X = module_Vband(1, 2, p)
    M = build_module(loop_quiver, x, X)
    assert M.dims["1"] == 6 * X.dim


def test_hom_simple_identities(ex1):
    p = 5
    for v, rho in [("1", "o"), ("2", "+"), ("2", "-"), ("3", "o")]:
        S = simple(ex1, v, rho, p)
        assert hom_dim_oracle(S, S) == 1
    a = simple(ex1, "2", "+", p)
    b = simple(ex1, "2", "-", p)
    assert hom_dim_oracle(a, b) == 0


def test_structured_basis_spans(ex1):
    p = 5
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    y = classify(ex1, (tinvl("1", -1), invl("a"), trivl("2", -1)))
    for (u, U) in [(x, module_k(p)), (y, module_V(1, p)), (y, module_V(-1, p))]:
        for (w, W) in [(x, module_k(p)), (y, module_V(1, p))]:
            basis = hom_basis_structured(ex1, u, U, w, W)  # verify=True inside
            assert isinstance(basis, list)


def test_string_hlines_count_without_a_walk(ex1):
    """A real h-line of ctype A is a tree: the walk of
    ``_component_base_space`` yields no constraint row, so it contributes
    the whole block space, as ``hom_dim_formula`` counts it without the
    walk.  The formula equals the walked sum on every pair of ex1 and of
    seeds 9 and 42 at max-len 6 with modules of dim <= 2; some other real
    ctype does constrain, so a shortcut taken for it too is caught."""
    p, strings, constrained = 5, 0, 0
    for q in (ex1, random_skewed_gentle_quiver(9), random_skewed_gentle_quiver(42)):
        words = adm_words(q, 6)
        mods = {x.wtype: indecomposables_Ax(x.wtype, 2, p) for x in words}
        for x in words:
            for y in words:
                g = build_HQ(q, x, y)
                rep = classify_components(g)
                real = [c for c in rep.plus if c.real]
                for X in mods[x.wtype]:
                    for Y in mods[y.wtype]:
                        walked = 0
                        for c in real:
                            cons, _ = _component_base_space(x, y, X, Y, c, p)
                            rank = gf.rank(cons, p) if cons else 0
                            if c.ctype == "A":
                                assert cons == [], (str(x), str(y))
                                strings += 1
                            constrained += rank > 0
                            walked += Y.dim * X.dim - rank
                        assert hom_dim_formula(q, x, X, y, Y, g=g, report=rep) == walked, \
                            (str(x), X.label, str(y), Y.label)
    assert strings and constrained


def test_endomorphism_contains_identity(ex1):
    p = 5
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    M = build_module(ex1, x, module_k(p))
    basis = hom_basis_oracle(M, M)
    assert hom_dim_oracle(M, M) >= 1
    w = iso_witness(M, M)
    assert w is not None


def test_iso_witness_inverse_word(ex1):
    p = 5
    sets = enumerate_adm(ex1, 8)
    count = 0
    for x in sets.strings:
        if x.wtype != "uu" or count > 4:
            continue
        M = build_module(ex1, x, module_k(p))
        N = build_module(ex1, x.inverse(), module_k(p))
        assert iso_witness(M, N) is not None
        count += 1
    a = simple(ex1, "2", "+", p)
    b = simple(ex1, "2", "-", p)
    assert iso_witness(a, b) is None


def test_tau_module_and_E(ex1):
    p = 5
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    t = tau_module(ex1, y, module_V(1, p))
    assert t is not None
    ty, Xc = t
    assert Xc.T == (((0, p - 1),),)  # chi flips the sign
    tM = build_module(ex1, *t)
    assert tM.dim_vector() == {("1", "o"): 0, ("2", "-"): 1, ("2", "+"): 0,
                               ("3", "o"): 0}
    # E of a module with its injective-translate partner
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    e = E_oracle(ex1, x, module_k(p), x, module_k(p))
    assert e >= 0


def test_g_oracle_worked_triples(ex1):
    p = 5
    order = [("1", "o"), ("2", "-"), ("2", "+"), ("3", "o")]
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    g = g_oracle(ex1, x, module_k(p))
    assert [g[k] for k in order] == [-1, 1, 1, 0]
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    gp = g_oracle(ex1, y, module_V(1, p))
    assert [gp[k] for k in order] == [1, -1, 0, 0]
    gm = g_oracle(ex1, y, module_V(-1, p))
    assert [gm[k] for k in order] == [1, 0, -1, 0]
