"""What the two Hom routes keep with the objects they read.

A ``Rep`` carries the nonzeros of its arrow matrices for the intertwiner
system, and an ``AxModule`` its inverse generators for the h-line transfer;
both are built once per object. ``AxModule`` compares and hashes by content.
"""

import sys
from collections import Counter

import pytest

from sga import gf
from sga.admissible import enumerate_adm
from sga.errors import SgaError
from sga.homgraph import build_HQ, classify_components
from sga.homalg import hom_dim_oracle
from sga.repmod import (AxModule, build_module, hom_dim_formula,
                        indecomposables_Ax, module_k, module_Vband, module_W)

P = 5


def _ex1_modules(q):
    sets = enumerate_adm(q, 6)
    words = list(sets.strings) + list(sets.bands)
    return [(x, X) for x in words for X in indecomposables_Ax(x.wtype, 2, P)]


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


def test_unit_is_none_and_a_missing_generator_raises():
    k, band = module_k(P), module_Vband(2, 3, P)
    assert k.act("1") is None and k.act_inv("1") is None
    with pytest.raises(SgaError):
        k.act("T")
    with pytest.raises(SgaError):
        k.act_inv("T")
    assert gf.mul(band.act("T"), band.act_inv("T"), P) == (((0, 1),), ((1, 1),))
    assert band.act("T-") is band.act_inv("T")


def test_axmodule_key_sees_label_and_dtype():
    a = module_Vband(2, 3, P)
    assert a != AxModule("other", a.dim, P, T=a.T)
    assert a != AxModule(a.label, a.dim, P, T=gf.neg(a.T, P))
    assert a == AxModule(a.label, a.dim, P, T=tuple(tuple(list(row)) for row in a.T))


def test_build_module_keys_by_content(ex1):
    x, X = next((x, X) for x, X in _ex1_modules(ex1) if X.T is not None)
    M = build_module(ex1, x, X)
    twin = AxModule(X.label, X.dim, P, T=tuple(tuple(list(row)) for row in X.T), S=X.S)
    assert build_module(ex1, x, twin) is M
    assert build_module(ex1, x, AxModule(X.label, X.dim, P, T=gf.neg(X.T, P), S=X.S)) is not M


def test_arrow_tables_are_the_nonzeros_of_mats(ex1):
    modules = _ex1_modules(ex1)
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
    """Over the ex1 Hom sweep the h-line transfer multiplies by no identity
    matrix, and each generator of each module is inverted at most once."""
    modules = _ex1_modules(ex1)
    graphs = {(x, y): (g, classify_components(g))
              for x, _ in modules for y, _ in modules
              for g in [build_HQ(ex1, x, y)]}
    # matrices the route may meet: generators, their inverses and products;
    # an identity factor that is none of these was built by the route
    known = {id(m): m for _, X in modules for m in (X.T, X.S) if m is not None}
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
    for _ in range(2):
        for x, X in modules:
            for y, Y in modules:
                g, report = graphs[(x, y)]
                assert hom_dim_formula(ex1, x, X, y, Y, g=g, report=report) == \
                    hom_dim_oracle(build_module(ex1, x, X), build_module(ex1, y, Y))
    assert "_mul" not in built_identities
    generators = sum((X.T is not None) + (X.S is not None) for _, X in modules)
    assert inverted and max(inverted.values()) == 1
    assert sum(inverted.values()) <= generators
