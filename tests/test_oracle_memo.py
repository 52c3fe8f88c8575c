"""The per-quiver stores of the oracle and census paths: shared values are
read-only, keys are faithful, and a warm quiver answers exactly what a
freshly parsed copy answers."""

import dataclasses

import pytest

from sga import gf
from sga.admissible import enumerate_adm
from sga.invariants import c_set, kiss_census, tags_for
from sga.parsing import parse_quiver, print_quiver
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import (AxModule, E_oracle, build_module, g_oracle, module_V,
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
    with pytest.raises(dataclasses.FrozenInstanceError):
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


def test_tau_module_twists_per_call(ex1):
    x = _first_module_word(ex1)
    plus, minus = tau_module(ex1, x, module_V(1, P)), tau_module(ex1, x, module_V(-1, P))
    assert plus[0] is minus[0]
    assert plus[1].T == (((0, P - 1),),) and minus[1].T == (((0, 1),),)


def test_kiss_census_frozen_and_shared():
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    fr = auto_fringe(q)
    x, y = enumerate_adm(q, 8).strings[:2]
    c = kiss_census(q, fr, x, y)
    assert kiss_census(q, fr, x, y) is c
    with pytest.raises(dataclasses.FrozenInstanceError):
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
