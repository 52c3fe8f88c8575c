"""The word-free oracle layer: ``sga.homalg`` reads no words, and its
directly written simples equal the modules the word route builds."""

import ast
from pathlib import Path

import pytest

import sga.homalg
from sga import gf
from sga.admissible import classify, enumerate_adm
from sga.errors import SgaError, TheoremViolation
from sga.homalg import (Rep, _verify_basis, direct_sum, hom_basis_oracle, hom_dim_oracle,
                        iso_witness, simple, verify_relations, zero)
from sga.quiver import tilde_vertices
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import build_module, indecomposables_Ax, module_k, module_V
from sga.words import invl, tinvl, trivl

SOURCE = Path(sga.homalg.__file__).read_text(encoding="utf-8")


def test_imports_no_word_module():
    inner = set()
    for node in ast.walk(ast.parse(SOURCE)):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "sga" and not (node.module or "").startswith("sga.")
            if node.level:
                inner.update([node.module] if node.module else
                             [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "sga" for a in node.names)
    assert inner == {"gf", "errors", "quiver"}
    assert "AdmWord" not in SOURCE and "AxModule" not in SOURCE


def _word_simple(q, v, rho, p):
    """S(v, rho) through a word: the trivial string at the slot, with the
    module of its type."""
    if rho == "o":
        return build_module(q, classify(q, (tinvl(v, -1), trivl(v, 1))), module_k(p))
    sign = 1 if rho == "+" else -1
    return build_module(q, classify(q, (tinvl(v, 1), trivl(v, -1))), module_V(sign, p))


@pytest.fixture(scope="module")
def quivers(request):
    ex1 = request.getfixturevalue("ex1")
    return [ex1] + [random_skewed_gentle_quiver(s) for s in (7, 9, 11, 42)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_simple_equals_word_built(quivers, p):
    for q in quivers:
        for v, rho in tilde_vertices(q):
            S, ref = simple(q, v, rho, p), _word_simple(q, v, rho, p)
            assert S == ref and S.key == ref.key, (v, rho, p)
            assert S.dim_vector() == ref.dim_vector() == \
                {k: int(k == (v, rho)) for k in tilde_vertices(q)}
            assert hom_dim_oracle(S, S) == 1


def test_zero(ex1):
    Z = zero(ex1, 5)
    assert sum(Z.dims.values()) == 0
    assert hom_dim_oracle(Z, simple(ex1, "2", "+", 5)) == 0


@pytest.mark.parametrize("seed", [None, 9])
def test_direct_sum_is_additive(ex1, seed):
    """M + N satisfies the relations, its dimensions add, and Hom is
    additive in either argument, on a fixed sample of the dim <= 2 modules
    of ex1 and seed 9 over GF(5): the sums give systems of up to four times
    the size."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed)
    sets = enumerate_adm(q, 6)
    reps = [build_module(q, x, X) for x in sets.strings + sets.bands
            for X in indecomposables_Ax(x.wtype, 2, 5)]
    reps = reps[::len(reps) // 10]
    assert len(reps) >= 10 and max(sum(M.dims.values()) for M in reps) >= 4
    for a, M in enumerate(reps):
        assert direct_sum(M, zero(q, 5)) == M == direct_sum(zero(q, 5), M)
        for N in reps[a:]:
            S = direct_sum(M, N)
            verify_relations(S)
            assert S.dims == {v: M.dims[v] + N.dims[v] for v in q.vertices}
            for L in reps:
                assert hom_dim_oracle(S, L) == hom_dim_oracle(M, L) + hom_dim_oracle(N, L)
                assert hom_dim_oracle(L, S) == hom_dim_oracle(L, M) + hom_dim_oracle(L, N)
    with pytest.raises(SgaError, match="direct sum"):
        direct_sum(simple(q, q.vertices[0], "o", 5), simple(q, q.vertices[0], "o", 7))


def test_iso_witness_of_a_direct_sum(ex1):
    """End(S + S) has a basis of matrix units, none invertible: the witness
    of S + S = S + S is a random combination of the basis.  S(2,+) + S(2,+)
    and S(2,+) + S(2,-) have equal dimensions and Hom of dim 2, yet no
    isomorphism."""
    plus, minus = simple(ex1, "2", "+", 5), simple(ex1, "2", "-", 5)
    M = direct_sum(plus, plus)
    f = iso_witness(M, M)
    assert f is not None and all(gf.is_invertible(f[v], 5) for v in ex1.vertices)
    for a in ex1.arrows:
        assert gf.mul(f[a.target], M.mats[a.name], 5) == gf.mul(M.mats[a.name], f[a.source], 5)
    N = direct_sum(plus, minus)
    assert hom_dim_oracle(M, N) == 2 and iso_witness(M, N) is None


def _is_isomorphism(f, M, N) -> bool:
    """f is an invertible intertwiner from M to N."""
    p, q = M.p, M.q
    return all(gf.is_invertible(f[v], p) for v in q.vertices) and \
        all(gf.mul(f[a.target], M.mats[a.name], p) == gf.mul(N.mats[a.name], f[a.source], p)
            for a in q.arrows)


def test_verify_basis_reads_each_block_at_its_own_columns(ex1):
    """A negative control of the structured-basis check: End(S(1) + 2 S(2,+))
    has a 1 x 1 block at vertex 1 and after it a 2 x 2 block at vertex 2,
    whose second row must land past the first; its oracle basis passes, and
    the same basis with an element repeated or dropped does not."""
    S = simple(ex1, "2", "+", 5)
    M = direct_sum(simple(ex1, "1", "o", 5), direct_sum(S, S))
    basis = hom_basis_oracle(M, M)
    assert M.dims == {"1": 1, "2": 2, "3": 0} and len(basis) == 5
    _verify_basis(M, M, basis)
    with pytest.raises(TheoremViolation, match="not linearly independent"):
        _verify_basis(M, M, basis + basis[:1])
    with pytest.raises(TheoremViolation, match="does not span"):
        _verify_basis(M, M, basis[1:])


def test_iso_witness_through_overlapping_basis_vectors(ex1):
    """V + V, for the string module V of 1(1,-)- a- e- 1(2,+), against its
    image N under a base change g with 2s above the diagonal: no element of
    the Hom basis is invertible, and the basis matrices share entries, with
    weights other than 1, so a random combination must add each coefficient
    times its weight into the entries they share.  The witness is an
    isomorphism."""
    p = 5
    x = classify(ex1, (tinvl("1", -1), invl("a"), invl("e"), trivl("2", 1)))
    V = build_module(ex1, x, module_k(p))
    M = direct_sum(V, V)
    g = {v: gf.matrix([{c: 1 if c == r else 2 for c in range(r, n)} for r in range(n)], p)
         for v, n in M.dims.items()}
    N = Rep(ex1, p, dict(M.dims), {a.name: gf.mul(gf.mul(g[a.target], M.mats[a.name], p),
                                                  gf.inv(g[a.source], p), p)
                                   for a in ex1.arrows})
    verify_relations(N)
    assert _is_isomorphism(g, M, N)
    basis = hom_basis_oracle(M, N)
    entries = [{(v, i, k): w for v in ex1.vertices for i, row in enumerate(f[v])
                for k, w in row} for f in basis]
    assert len(basis) == 4
    assert not any(all(gf.is_invertible(f[v], p) for v in ex1.vertices) for f in basis)
    assert any(e.keys() & d.keys() for k, e in enumerate(entries) for d in entries[k + 1:])
    assert {w for e in entries for w in e.values()} > {1}
    f = iso_witness(M, N)
    assert f is not None and _is_isomorphism(f, M, N)
