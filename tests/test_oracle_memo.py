"""The per-quiver stores of the oracle and census paths: shared values are
read-only, keys are faithful, and a warm quiver answers exactly what a
freshly parsed copy answers."""

import copy
import pickle

import pytest

from sga import gf
from sga.admissible import enumerate_adm
from sga.invariants import c_set, kiss_census, tags_for
from sga.parsing import parse_quiver, print_quiver
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.homalg import Rep, hom_dim_oracle, hom_rows, reversal
from sga.repmod import (AxModule, E_oracle, build_module, g_oracle,
                        indecomposables_Ax, module_V, module_Vband, module_W,
                        tau_module)

P = 7


def _first_module_word(q):
    sets = enumerate_adm(q, 6)
    return next(x for x in sets.strings if x.wtype == "up")


def test_memoised_module_is_shared_and_read_only(ex1):
    x = _first_module_word(ex1)
    M = build_module(ex1, x, module_V(1, P))
    assert build_module(ex1, x, module_V(1, P)) is M
    name = next(n for n, m in M.mats.items() if any(m))
    with pytest.raises(TypeError):
        M.mats[name][0] = ((0, 1),)
    with pytest.raises(TypeError):
        M.mats[name][0][0] = (0, 1)
    with pytest.raises(AttributeError):
        M.mats = {}


def test_module_key_sees_the_matrices(ex1):
    """A reused label with a different action is a different module."""
    x = _first_module_word(ex1)
    M = build_module(ex1, x, module_V(1, P))
    impostor = AxModule("V+", 1, P, T=gf.matrix([{0: -1}], P))
    N = build_module(ex1, x, impostor)
    assert N is not M
    assert N.dim_vector() == build_module(ex1, x, module_V(-1, P)).dim_vector()
    assert N.dim_vector() != M.dim_vector()


def test_tau_module_keeps_translate_and_twist(ex1):
    x = _first_module_word(ex1)
    plus, minus = tau_module(ex1, x, module_V(1, P)), tau_module(ex1, x, module_V(-1, P))
    assert plus[0] is minus[0]
    assert plus[1].T == (((0, P - 1),),) and minus[1].T == (((0, 1),),)
    assert tau_module(ex1, x, module_V(1, P)) is plus


def _seed42_sample(q):
    """Modules of dim <= 2 over GF(5) on the first doubly punctured word of
    the seed-42 quiver, the first band and the first `up` string, and on
    the inverse of each."""
    sets = enumerate_adm(q, 8)
    x = next(x for x in sets.strings if x.wtype == "pp")
    up = next(x for x in sets.strings if x.wtype == "up")
    return [(v, X) for w in (x, sets.bands[0], up) for v in (w, w.inverse())
            for X in indecomposables_Ax(v.wtype, 2, 5)]


def _direct_hom_dim(M, N):
    rows, span = hom_rows(M, N)
    return sum(size for _, size in span.values()) - gf.rank(rows, M.p)


def test_hom_dim_memo_equals_direct_rank(monkeypatch):
    text = print_quiver(random_skewed_gentle_quiver(42))
    warm, cold = parse_quiver(text), parse_quiver(text)
    reps = [build_module(warm, x, X) for x, X in _seed42_sample(warm)]
    direct = [[_direct_hom_dim(M, N) for N in reps] for M in reps]
    assert [[hom_dim_oracle(M, N) for N in reps] for M in reps] == direct
    ranks = []
    monkeypatch.setattr(gf, "rank", lambda rows, p: ranks.append(p) or 0)
    # a warm quiver answers every pair from its memo, without a rank
    assert [[hom_dim_oracle(M, N) for N in reps] for M in reps] == direct
    assert ranks == []
    monkeypatch.undo()
    cold_reps = [build_module(cold, x, X) for x, X in _seed42_sample(cold)]
    assert [[hom_dim_oracle(M, N) for N in cold_reps] for M in cold_reps] == direct


def _reversing(n):
    """The n x n permutation matrix of the basis reversal."""
    return tuple(((n - 1 - i, 1),) for i in range(n))


@pytest.mark.parametrize("seed", [None, 9, 11, 42])
def test_class_is_the_module_or_its_reversal(ex1, seed):
    """On every module of dim <= 2, the class is M itself or its reversal,
    the one with the smaller arrow matrices; the basis reversal f is an
    intertwiner, f_t M(a) = R(a) f_s; reversing twice gives M back; and M
    and its reversal share one class object."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    sets = enumerate_adm(q, 6)
    reps = {build_module(q, w, X) for w in list(sets.strings) + list(sets.bands)
            for X in indecomposables_Ax(w.wtype, 2, 5)}
    seen = set()
    for M in reps:
        R = reversal(M)
        f = {v: _reversing(n) for v, n in M.dims.items()}
        for a in q.arrows:
            assert gf.mul(f[a.target], M.mats[a.name], 5) == \
                gf.mul(R.mats[a.name], f[a.source], 5)
        assert reversal(R) == M and R.dims == M.dims
        C = M.rep_class
        assert R.rep_class is C
        assert C in (M, R)
        mats = [[N.mats[a.name] for a in q.arrows] for N in (M, R)]
        assert [C.mats[a.name] for a in q.arrows] == min(mats)
        seen.add(C == M)
    assert seen == {True, False}


def test_one_rank_per_class_pair(monkeypatch):
    """On a cold quiver, the oracle ranks one system per pair of classes,
    fewer than the pairs of modules, and every answer equals the direct
    rank."""
    q = random_skewed_gentle_quiver(42)
    reps = [build_module(q, x, X) for x, X in _seed42_sample(q)]
    direct = [[_direct_hom_dim(M, N) for N in reps] for M in reps]
    rank, ranks = gf.rank, []
    monkeypatch.setattr(gf, "rank", lambda rows, p: ranks.append(p) or rank(rows, p))
    assert [[hom_dim_oracle(M, N) for N in reps] for M in reps] == direct
    classes = {(M.rep_class, N.rep_class) for M in reps for N in reps}
    assert len(ranks) == len(classes) < len(set(reps)) ** 2


def test_classes_and_answers_stay_with_their_quiver():
    """Two quivers parsed from one text, and a deep copy of one, each keep
    their own classes and Hom answers: a class is a module over its own
    quiver, equal but never identical to its twin's, and every answer
    equals the direct rank whichever store was filled first and in which
    order the classes were met."""
    text = print_quiver(random_skewed_gentle_quiver(42))
    q1, q2 = parse_quiver(text), parse_quiver(text)
    reps1 = [build_module(q1, x, X) for x, X in _seed42_sample(q1)]
    for M in reps1:
        for N in reps1:
            hom_dim_oracle(M, N)
    q3 = copy.deepcopy(q1)
    assert q3.store("rep_class") == {} and q3.store("hom_dim_oracle") == {}
    reps2 = [build_module(q2, x, X) for x, X in _seed42_sample(q2)][::-1]
    reps3 = [build_module(q3, x, X) for x, X in _seed42_sample(q3)][1::2]
    for A in (reps2, reps3):
        for B in (reps1, reps2, reps3):
            for M in A:
                for N in B:
                    assert hom_dim_oracle(M, N) == _direct_hom_dim(M, N)
    for q in (q1, q2, q3):
        assert all(c.q is q for c in q.store("rep_class").values())
    for M1 in reps1:
        M2 = reps2[reps2.index(M1)]
        assert M1.rep_class == M2.rep_class and M1.rep_class is not M2.rep_class


def test_equal_content_shares_one_rep():
    """A word and its reverse build equal modules; both keys return one Rep."""
    q = random_skewed_gentle_quiver(42)
    x = next(x for x in enumerate_adm(q, 8).strings if x.wtype == "pp")
    assert x.inverse() != x
    M = build_module(q, x, module_W(1, 1, 5))
    assert build_module(q, x.inverse(), module_W(1, 1, 5)) is M
    N = build_module(q, x, module_W(1, -1, 5))
    assert build_module(q, x.inverse(), module_W(1, -1, 5, chi=True)) is N
    assert M != N and len({M, N, copy.deepcopy(M)}) == 2


def test_modified_deep_copy_misses_the_memo():
    """A deep copy whose special loops are negated before use is another
    module: it neither reuses the arrow tables nor the memoised Hom
    dimension of the original."""
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    M = build_module(q, enumerate_adm(q, 8).bands[0], module_Vband(1, 2, 5))
    assert hom_dim_oracle(M, M) == 1
    assert copy.deepcopy(M) == M
    C = copy.deepcopy(M)
    for a in q.special_arrows:
        C.mats[a.name] = gf.neg(C.mats[a.name], 5)
    fresh = Rep(q, 5, dict(M.dims), dict(C.mats))
    assert C != M and C == fresh
    assert hom_dim_oracle(M, C) == _direct_hom_dim(M, fresh) == 0
    assert set(vars(pickle.loads(pickle.dumps(M)))) == {"q", "p", "dims", "mats"}


def test_kiss_census_frozen_and_shared():
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    fr = auto_fringe(q)
    x, y = enumerate_adm(q, 8).strings[:2]
    c = kiss_census(q, fr, x, y)
    assert kiss_census(q, fr, x, y) is c
    with pytest.raises(AttributeError):
        c.total = 0


def _sample(q):
    """Tagged-word modules: two words of each type, every tag, the first
    and last member of each tag family."""
    sets = enumerate_adm(q, 8)
    words = list(sets.strings) + list(sets.bands)
    out = []
    for wtype in ("uu", "up", "pu", "pp", "b"):
        for x in [x for x in words if x.wtype == wtype][:2]:
            for s in tags_for(x):
                fam = c_set(x, s, P)
                out.extend((x, X) for X in {id(X): X for X in (fam[0], fam[-1])}.values())
    return out


@pytest.mark.parametrize("seed", [None, 9])
def test_oracles_warm_equal_cold(ex1, seed):
    q0 = ex1 if seed is None else random_skewed_gentle_quiver(seed)
    text = print_quiver(q0)
    warm = parse_quiver(text)
    sample = _sample(warm)
    pairs = [(a, b) for i, a in enumerate(sample) for b in sample[i::3]]
    warm_e = [E_oracle(warm, x, X, y, Y) for (x, X), (y, Y) in pairs]
    # second pass on the warm quiver answers from its stores
    assert [E_oracle(warm, x, X, y, Y) for (x, X), (y, Y) in pairs] == warm_e
    cold_e = [E_oracle(parse_quiver(text), x, X, y, Y) for (x, X), (y, Y) in pairs]
    assert warm_e == cold_e
    for x, X in sample:
        assert g_oracle(warm, x, X) == g_oracle(parse_quiver(text), x, X)


def test_kiss_census_warm_equal_cold():
    text = print_quiver(random_skewed_gentle_quiver(11, forbid_pp=True))
    warm = parse_quiver(text)
    fr = auto_fringe(warm)
    words = enumerate_adm(warm, 8).strings[:16]
    for x in words:
        for y in words:
            cold = parse_quiver(text)
            assert kiss_census(warm, fr, x, y) == kiss_census(cold, auto_fringe(cold), x, y)
