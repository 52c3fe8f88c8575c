"""What the two Hom routes keep with the objects they read.

A ``Rep`` carries the nonzeros of its arrow matrices for the intertwiner
system, and an ``AxModule`` the inverse of T for the h-line transfer; both
are built once per object. ``AxModule`` compares and hashes by content.
"""

import sys
from collections import Counter

import pytest

from sga import gf
from sga.homgraph import build_H, build_HQ, classify_components
from sga.homalg import _is_identity, hom_dim_oracle
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import (AxModule, build_module, hom_dim_formula,
                        indecomposables_Ax, module_k, module_matches,
                        module_Vband, module_W, unit_of)
from sga.words import ORD

from kit import adm_words

P = 5


def _modules(q):
    return [(x, X) for x in adm_words(q, 6) for X in indecomposables_Ax(x.wtype, 2, P)]


@pytest.mark.parametrize("make, other", [
    (lambda: module_Vband(2, 3, P), lambda: module_Vband(2, 4, P)),
    (lambda: module_W(2, 1, P), lambda: module_W(2, 1, P, chi=True)),
    (lambda: module_k(P), lambda: module_k(7)),
])
def test_axmodule_equality_and_hash_by_content(make, other):
    a, b, c = make(), make(), other()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and not a == c
    assert a != "V(2,3)"


def test_T_inv_inverts_T_once():
    band = module_Vband(2, 3, P)
    assert gf.mul(band.T, band.T_inv, P) == (((0, 1),), ((1, 1),))
    assert band.T_inv is band.T_inv
    assert band.key == ("V(2,3)", 2, P, band.T, None)


@pytest.mark.parametrize("seed", [None, 9, 42])
def test_unit_pairs_multiply_to_the_identity(ex1, seed):
    """``unit_of`` gives an action and its inverse on every H-degree of
    freedom, with None (the identity) off the loops and closing edges.
    Seed 9 has a band, seed 42 doubly punctured strings (S on a loop)."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed)
    seen = set()
    for x in adm_words(q, 6):
        h = build_H(q, x)
        parts = [("edge", e.idx) for e in h.edges] + [("loop", l.key) for l in h.loops]
        for X in indecomposables_Ax(x.wtype, 3, P):
            for part in parts:
                u, u_inv = unit_of(x, X, part)
                if part[0] == "loop":
                    assert u is u_inv and u in (X.S, X.T)
                    seen.add("S" if u is X.S else "T")
                elif x.wtype == "b" and part[1] == 0:
                    T_first = x.letters[0].kind == ORD
                    assert (u, u_inv) == ((X.T, X.T_inv) if T_first else (X.T_inv, X.T))
                    seen.add("closing")
                else:
                    assert (u, u_inv) == (None, None)
                    continue
                assert _is_identity(gf.mul(u, u_inv, P))
    assert seen >= {None: {"T"}, 9: {"T", "closing"}, 42: {"S", "T"}}[seed]


def test_module_matches_is_exact_for_pp():
    """The loops of a doubly punctured string act by S and T as involutions,
    so a dihedral module whose S or T squares to anything else is refused."""
    one, two = (((0, 1),),), (((0, 2),),)     # the 1 x 1 matrices 1 and 2
    assert module_matches("pp", module_W(2, 1, P))
    assert module_matches("pp", AxModule("W", 1, P, T=one, S=one))
    assert not module_matches("pp", AxModule("S2", 1, P, T=one, S=two))
    assert not module_matches("pp", AxModule("T2", 1, P, T=two, S=one))
    assert not module_matches("pp", module_Vband(1, 2, P))


def test_axmodule_key_sees_label_and_dtype():
    a = module_Vband(2, 3, P)
    assert a != AxModule("other", a.dim, P, T=a.T)
    assert a != AxModule(a.label, a.dim, P, T=gf.neg(a.T, P))
    assert a == AxModule(a.label, a.dim, P, T=tuple(tuple(list(row)) for row in a.T))


def test_build_module_keys_by_content(ex1):
    x, X = next((x, X) for x, X in _modules(ex1) if X.T is not None)
    M = build_module(ex1, x, X)
    twin = AxModule(X.label, X.dim, P, T=tuple(tuple(list(row)) for row in X.T), S=X.S)
    assert build_module(ex1, x, twin) is M
    assert build_module(ex1, x, AxModule(X.label, X.dim, P, T=gf.neg(X.T, P), S=X.S)) is not M


def test_arrow_tables_are_the_nonzeros_of_mats(ex1):
    modules = _modules(ex1)
    assert len(modules) == 30
    for x, X in modules:
        M = build_module(ex1, x, X)
        tables = M.arrow_tables
        assert set(tables) == set(M.mats)
        for a in ex1.arrows:
            m = M.mats[a.name]
            entries = {(i, k): v for i, row in enumerate(m) for k, v in row}
            cols, neg_rows = tables[a.name]
            assert len(m) == M.dims[a.target] and len(cols) == M.dims[a.source]
            assert [list(c) for c in cols] == \
                [[(k, v) for (k, j2), v in sorted(entries.items()) if j2 == j]
                 for j in range(M.dims[a.source])]
            assert [list(r) for r in neg_rows] == \
                [[(k, -v % P) for (i2, k), v in sorted(entries.items()) if i2 == i]
                 for i in range(M.dims[a.target])]
        assert build_module(ex1, x, X).arrow_tables is tables


def test_formula_route_builds_no_identity_and_inverts_once(ex1, monkeypatch):
    """Over the Hom sweeps of ex1 and seed 9 the h-line transfer multiplies
    by no identity matrix, and each module's T is inverted at most once.
    ex1 has no band at max-len 6; seed 9's band inverts T on its closing
    edge, so the sweep sees at least one inversion."""
    sweeps = []
    for q in (ex1, random_skewed_gentle_quiver(9)):
        modules = _modules(q)
        graphs = {(x, y): (g, classify_components(g))
                  for x, _ in modules for y, _ in modules
                  for g in [build_HQ(q, x, y)]}
        sweeps.append((q, modules, graphs))
    # matrices the route may meet: generators, their inverses and products;
    # an identity factor that is none of these was built by the route
    known = {id(m): m for _, modules, _ in sweeps for _, X in modules
             for m in (X.T, X.S) if m is not None}
    built_identities, inverted = Counter(), Counter()
    mul, inv = gf.mul, gf.inv

    def counted_mul(a, b, p):
        for m in (a, b):
            if id(m) not in known and all(r == ((i, 1),) for i, r in enumerate(m)):
                built_identities[sys._getframe(1).f_code.co_name] += 1
        out = mul(a, b, p)
        known[id(out)] = out
        return out

    def counted_inv(a, p):
        inverted[id(a)] += 1
        out = inv(a, p)
        known[id(out)] = out
        return out

    monkeypatch.setattr(gf, "mul", counted_mul)
    monkeypatch.setattr(gf, "inv", counted_inv)
    for q, modules, graphs in sweeps:
        for _ in range(2):
            for x, X in modules:
                for y, Y in modules:
                    g, report = graphs[(x, y)]
                    assert hom_dim_formula(q, x, X, y, Y, g=g, report=report) == \
                        hom_dim_oracle(build_module(q, x, X), build_module(q, y, Y))
    assert "_mul" not in built_identities
    band_Ts = {id(X.T) for _, modules, _ in sweeps for x, X in modules if x.wtype == "b"}
    assert inverted and max(inverted.values()) == 1
    assert set(inverted) <= band_Ts
