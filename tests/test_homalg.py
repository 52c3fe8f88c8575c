"""The word-free oracle layer: ``sga.homalg`` reads no words, and its
directly written simples equal the modules the word route builds."""

import ast
from pathlib import Path

import pytest

import sga.homalg
from sga import gf
from sga.admissible import classify, enumerate_adm
from sga.errors import SgaError
from sga.homalg import (direct_sum, hom_dim_oracle, iso_witness, simple,
                        verify_relations, zero)
from sga.quiver import tilde_vertices
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import build_module, indecomposables_Ax, module_k, module_V
from sga.words import tinvl, trivl

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
