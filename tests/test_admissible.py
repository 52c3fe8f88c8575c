import copy
import os
import pickle
import subprocess
import sys

import pytest

from sga.admissible import (AdmWord, a_image_of_completion, a_of_w, bar_length,
                            classify, completion, doublebar_ray, enumerate_adm,
                            hat_of, hat_ray, is_admissible, is_projective_adm,
                            tau_adm)
from sga.checks import A_IMAGE, TAU_ROUTES, Budget, checked_adm, verify
from sga.errors import IsProjective, WordError
from sga.quiver import validate
from sga.randquiver import random_skewed_gentle_quiver
from sga.words import (enumerate_strings, format_word, invl, letters_at, ordl,
                       ray_compare, rotations, spel, tau_string, tinvl, trivl, winv)


def test_hat_letter_order(ex1):
    h = hat_of(ex1)
    assert letters_at(h, ("2", -1)) == [ordl("e"), trivl("2", -1), invl("e")]
    rep = validate(h)
    assert rep.is_gentle


def test_a_of_w_asymmetric(ex1):
    # 1(1,-)- g b e* b- 1(3,+)  ->  orientation e (direct)
    w = (tinvl("1", -1), ordl("g"), ordl("b"), spel("e"), invl("b"), trivl("3", 1))
    x = a_of_w(ex1, w)
    assert x.wtype == "uu"
    assert x.letters == (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"),
                         invl("b"), trivl("3", 1))
    assert completion(ex1, x) == w
    assert is_admissible(ex1, x.letters)[0]


def test_a_of_w_symmetric(ex1):
    # the injective string at the special vertex folds to a punctured end
    w = (tinvl("1", -1), invl("a"), spel("e"), ordl("a"), trivl("1", -1))
    x = a_of_w(ex1, w)
    assert x.wtype == "up"
    assert x.letters == (tinvl("1", -1), invl("a"), trivl("2", -1))
    y = x.inverse()
    assert y.letters == (tinvl("2", -1), ordl("a"), trivl("1", -1))
    assert y.wtype == "pu"
    assert completion(ex1, x) == w
    assert completion(ex1, y) == winv(w) == w


def test_symmetric_band_standard_form(loop_quiver):
    # a e* a- e* is symmetric: its inverse is a rotation
    w = (ordl("a"), spel("e"), invl("a"), spel("e"))
    from sga.words import is_primitive_band, is_symmetric_band, standard_form_rotations
    assert is_primitive_band(loop_quiver, w)
    assert is_symmetric_band(w)
    std = standard_form_rotations(w)
    assert std and all(r[0].kind == "spe" for r in std)
    x = a_of_w(loop_quiver, std[0])
    assert x.wtype == "pp"
    with pytest.raises(WordError):
        a_of_w(loop_quiver, w)  # not in standard form


def test_a_of_w_asymmetric_band(loop_quiver):
    w = (ordl("a"), spel("e"), ordl("a"), spel("e"), invl("a"), spel("e"))
    from sga.words import is_primitive_band, is_symmetric_band
    assert is_primitive_band(loop_quiver, w)
    assert not is_symmetric_band(w)
    x = a_of_w(loop_quiver, w)
    assert x.wtype == "b"
    ok, why = is_admissible(loop_quiver, x.letters, band=True)
    assert ok, why
    # closure under rotation
    for r in rotations(x.letters):
        assert is_admissible(loop_quiver, r, band=True)[0]


def test_loopq_admissible_words(loop_quiver):
    q = loop_quiver
    x = (tinvl("1", 1), ordl("e"), ordl("a"), ordl("e"), invl("a"), trivl("1", -1))
    ok, why = is_admissible(q, x)
    assert ok, why
    assert classify(q, x).wtype == "up"
    y = (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"), invl("a"),
         trivl("1", -1))
    ok, why = is_admissible(q, y)
    assert ok, why
    assert classify(q, y).wtype == "pp"
    # flipping one oriented letter kills admissibility
    for k in (1, 3):
        bad = x[:k] + (invl("e"),) + x[k + 1:]
        assert not is_admissible(q, bad)[0]


def test_completion_loopq_pp(loop_quiver):
    q = loop_quiver
    y = classify(q, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                     invl("a"), trivl("1", -1)))
    bar = completion(q, y)
    assert bar == (spel("e"), ordl("a"), spel("e"), ordl("a"), spel("e"), invl("a"),
                   spel("e"), ordl("a"), spel("e"), invl("a"), spel("e"), invl("a"))
    from sga.words import is_primitive_band
    assert is_primitive_band(q, bar)


def test_adm_inverse_closed(ex1):
    sets = enumerate_adm(ex1, 10)
    ws = set(sets.strings)
    for x in sets.strings:
        assert x.inverse() in ws
        ok, why = is_admissible(ex1, x.letters)
        assert ok, (str(x), why)


def test_dual_route_equality_ex1(ex1):
    assert checked_adm(ex1, 8).bands == ()


def test_enumerate_adm_is_memoised_per_quiver(monkeypatch):
    """A repeat returns the stored sets, one entry per max_len, equal to
    those a fresh copy of the quiver enumerates; a quiver from
    ``random_skewed_gentle_quiver`` arrives with its max-len 8 sets."""
    from sga import admissible
    from sga.parsing import parse_quiver, print_quiver
    from sga.randquiver import random_skewed_gentle_quiver
    q = random_skewed_gentle_quiver(11)
    assert set(q.store("enumerate_adm")) == {(8,)}
    scans = []
    strings_of = admissible.enumerate_strings
    monkeypatch.setattr(admissible, "enumerate_strings",
                        lambda q, n: scans.append(n) or strings_of(q, n))
    first = enumerate_adm(q, 8)
    assert enumerate_adm(q, 8) is first and scans == []
    assert enumerate_adm(q, 6) is enumerate_adm(q, 6) and scans == [6]
    assert set(q.store("enumerate_adm")) == {(8,), (6,)}
    fresh = parse_quiver(print_quiver(q))
    assert enumerate_adm(fresh, 8) == first and scans == [6, 8]


def test_prp_adm_roundtrip_ex1(ex1):
    ws, truncated = enumerate_strings(ex1, 10)
    assert not truncated
    for w in ws:
        x = a_of_w(ex1, w)
        ok, why = is_admissible(ex1, x.letters)
        assert ok, (w, why)
        assert completion(ex1, x) == w
    assert verify(A_IMAGE, ex1, Budget(10)) == len(enumerate_adm(ex1, 10).strings)


def test_tau_adm_matches_successor_route(ex1):
    strings = enumerate_adm(ex1, 12).strings
    proj = [x for x in strings if is_projective_adm(ex1, x)]
    assert verify(TAU_ROUTES, ex1, Budget(12)) == len(strings) - len(proj)
    for x in strings:
        if x in proj:
            with pytest.raises(IsProjective):
                tau_adm(ex1, x)
        else:
            assert tau_adm(ex1, x).wtype == x.wtype


def test_tau_commutes_with_a(ex1):
    ws, _ = enumerate_strings(ex1, 12)
    from sga.words import projective_strings
    pset = projective_strings(ex1)
    for w in ws:
        if w in pset:
            continue
        x = a_of_w(ex1, w)
        assert tau_adm(ex1, x).letters == a_of_w(ex1, tau_string(ex1, w)).letters


def test_tau_on_hand_fringing(ex1_hand_fringing):
    qf = ex1_hand_fringing
    x = classify(qf, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                      trivl("3", 1)))
    t = tau_adm(qf, x)
    assert t.letters == (tinvl("6", -1), ordl("p16"), ordl("g"), ordl("b"),
                         ordl("e"), invl("b"), invl("g"), ordl("p51"),
                         trivl("5", -1))
    y = classify(qf, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    ty = tau_adm(qf, y)
    assert ty.letters == (tinvl("2", -1), ordl("a"), invl("p16"), trivl("6", -1))
    assert ty.wtype == "pu"


def test_reading_rays(loop_quiver):
    q = loop_quiver
    y = classify(q, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                     invl("a"), trivl("1", -1)))
    # doubly punctured: periodic readings, hat-plus below hat-minus
    for i in range(1, len(y.letters) - 1):
        for rho in (-1, 1):
            lo = hat_ray(q, y, i, rho, +1)
            hi = hat_ray(q, y, i, rho, -1)
            rel, _ = ray_compare(hat_of(q), lo, hi)
            assert rel in ("<", "="), (i, rho, rel)


def test_reading_punctured_start_rays(ex1):
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    r_fwd = doublebar_ray(ex1, y, 1, -1)
    r_bwd = doublebar_ray(ex1, y, 1, 1)
    assert r_fwd.pre[0].kind in ("ord", "inv", "spe")
    # both rays end with a trivial letter (right inextensible)
    assert r_fwd.pre[-1].kind == "triv"
    assert r_bwd.pre[-1].kind == "triv"


def test_bar_length(ex1):
    sets = enumerate_adm(ex1, 9)
    for x in sets.strings:
        assert bar_length(x) <= 9
        assert bar_length(x) == len(completion(ex1, x))


def test_bar_length_on_every_word_type():
    """Seed 42 has words of all five types; ex1 has no (p,p) word or band."""
    q = random_skewed_gentle_quiver(42)
    sets = enumerate_adm(q, 8)
    words = sets.strings + sets.bands
    assert {x.wtype for x in words} == {"uu", "up", "pu", "pp", "b"}
    for x in words:
        assert bar_length(x) == len(completion(q, x)), str(x)


def test_a_image_of_completion_on_pp_words():
    """A (p,p) word is the A-image of one standard-form rotation of its
    completion."""
    for seed in (9, 42):
        q = random_skewed_gentle_quiver(seed)
        pp = [x for x in enumerate_adm(q, 8).strings if x.wtype == "pp"]
        assert pp
        for x in pp:
            assert a_image_of_completion(q, x) == x


def test_adm_word_hash_kept_fields_unchanged(ex1):
    assert list(AdmWord.__annotations__) == ["letters", "wtype"]
    for x in enumerate_adm(ex1, 8).strings:
        y = AdmWord(x.letters, x.wtype)
        assert y == x and y is not x and hash(y) == hash(x)
        assert repr(y) == f"AdmWord(letters={x.letters!r}, wtype={x.wtype!r})"



@pytest.mark.parametrize("seed", [None, 42])
def test_adm_word_text_is_the_formatted_word(ex1, seed):
    """``str`` of a word is ``format_word`` of its letters, on repeat and on
    a deep copy or a pickle round trip, made before or after the first
    ``str``; the kept text is no field, so neither equality nor ``repr``
    sees it."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed)
    sets = enumerate_adm(q, 8)
    words = list(sets.strings) + list(sets.bands)
    assert words
    for x in words:
        text = format_word(x.letters)
        early = [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
        assert str(x) == text and str(x) == text
        for y in early + [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]:
            assert y == x and y is not x and str(y) == text and str(y) == text
            assert repr(y) == repr(x) == f"AdmWord(letters={x.letters!r}, wtype={x.wtype!r})"

_PICKLE_WORDS = """
import pickle, sys
from sga.admissible import enumerate_adm
from sga.parsing import parse_quiver
q = parse_quiver(open(sys.argv[1]).read())
words = enumerate_adm(q, 8).strings
if sys.argv[2] == "dump":
    sys.stdout.buffer.write(pickle.dumps((q, words)))
else:
    index = {x: k for k, x in enumerate(words)}
    q2, loaded = pickle.loads(sys.stdin.buffer.read())
    assert q2 == q and hash(q2) == hash(q)
    print(sum(index.get(x) == k for k, x in enumerate(loaded)), len(words))
"""


def test_adm_word_pickle_across_hash_seeds():
    """A word (and a quiver) pickled under one hash seed is found in a dict
    built under another: the kept hash does not travel through pickle."""
    quiver = os.path.join(os.path.dirname(__file__), "data", "ex1.quiver")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", _PICKLE_WORDS, quiver, mode],
                              input=data, env=env, capture_output=True,
                              check=True).stdout

    found, total = run(2, "load", run(1, "dump")).split()
    assert int(total) > 0 and found == total
