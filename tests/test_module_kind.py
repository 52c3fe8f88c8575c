"""One record protocol and one module-kind check.

``quiver.Frozen`` gives the four hand-written records their equality,
hash, pickling and ``repr``; none of them writes its own. A module lives
over the algebras of the word types kept in ``AxModule.word_types``, and
every library route that reads a module refuses one of the wrong kind with
``check_module``'s message.
"""

import re

import pytest

from sga import gf
from sga.admissible import AdmWord, classify
from sga.errors import SgaError
from sga.homalg import Rep
from sga.invariants import c_set
from sga.parsing import parse_module, parse_word
from sga.quiver import auto_fringe
from sga.repmod import (AxModule, E_formula, E_oracle, build_module, g_oracle,
                        hom_basis_structured, hom_dim_formula, module_W)
from sga.words import Ray

P = 5
UU = "1(1,-)- g 1(3,-)"
UP = "1(2,+)- 1(2,-)"


@pytest.mark.parametrize("cls", [AdmWord, Ray, AxModule, Rep], ids=lambda c: c.__name__)
def test_records_take_their_protocol_from_frozen(cls):
    own = {"__eq__", "__hash__", "__reduce__", "__getstate__", "__repr__"} & set(vars(cls))
    assert not own


def _word(q, text):
    letters, band = parse_word(q, text)
    return classify(q, letters, band=band)


ROUTES = {
    "build_module": lambda q, fr, x, X: build_module(q, x, X),
    "hom_dim_formula": lambda q, fr, x, X: hom_dim_formula(q, x, X, x, X),
    "hom_basis_structured": lambda q, fr, x, X: hom_basis_structured(q, x, X, x, X),
    "E_formula": lambda q, fr, x, X: E_formula(q, fr, x, X, x, X),
    "E_oracle": lambda q, fr, x, X: E_oracle(q, x, X, x, X),
    "g_oracle": lambda q, fr, x, X: g_oracle(q, x, X),
}


@pytest.mark.parametrize("word, module", [(UU, "W(2,+)"), (UP, "V(1,2)"), (UP, "Vo")])
@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_refuses_a_module_of_the_wrong_kind(ex1, word, module, route):
    x, X = _word(ex1, word), parse_module(module, P)
    with pytest.raises(SgaError, match=re.escape(f"module {module} does not live over")):
        ROUTES[route](ex1, auto_fringe(ex1), x, X)


def test_the_formulas_refuse_what_they_used_to_answer(ex1):
    """Without the check, these two calls returned 2 and 0."""
    fr = auto_fringe(ex1)
    x, y = _word(ex1, UU), _word(ex1, UP)
    with pytest.raises(SgaError):
        hom_dim_formula(ex1, x, parse_module("W(2,+)", P), x, parse_module("Vo", P))
    with pytest.raises(SgaError):
        E_formula(ex1, fr, y, parse_module("V(1,2)", P), y, parse_module("V+", P))


def test_word_types_follow_the_matrices():
    assert parse_module("Vo", P).word_types == {"uu"}
    assert parse_module("V(1,1)", P).word_types == {"up", "pu", "b"}
    assert parse_module("V(1,2)", P).word_types == {"b"}
    assert parse_module("W(1,-)", P).word_types == {"pp"}


@pytest.mark.parametrize("s0", [1, -1])
@pytest.mark.parametrize("s1", [1, -1])
def test_pp_sign_tag_module_is_a_dihedral_w(s0, s1):
    """The module of a sign tag on a (p,p) word is the parser's W(1,±) or
    Wchi(1,±), with S acting by s0 and T by s1."""
    x = AdmWord((), "pp")
    s = ("+" if s0 > 0 else "-") + ("+" if s1 > 0 else "-")
    [X] = c_set(x, s, P)
    assert X == module_W(1, s0 * s1, P, chi=s1 < 0) == parse_module(X.label, P)
    assert (X.S, X.T) == (gf.matrix([{0: s0}], P), gf.matrix([{0: s1}], P))
