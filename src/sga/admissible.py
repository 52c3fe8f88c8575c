"""Admissible words over the all-ordinary companion quiver.

The orientation of letters over special loops is fixed by lexicographic
comparisons; admissible words are exactly the images (and inverses of
images) of strings and standard-form bands under that construction.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .errors import AtMaximum, IsProjective, WordError
from .quiver import Frozen, PolarizedQuiver, hat_quiver, per_quiver
from .words import (INV, ORD, SPE, TINV, TRIV, Letter, Ray, Word, band_canonical,
                    enumerate_bands, enumerate_strings, format_word, invl,
                    inverse_letter, is_band, is_primitive_band, is_string,
                    is_symmetric_band, left_successor, letter_target, lex_compare,
                    ordl, projective_strings, rotations, spel, standard_band_words,
                    standard_form_rotations, successor, tau_string, tinvl, trivl,
                    winv)

TYPES = ("uu", "up", "pu", "pp", "b")

hat_of = per_quiver(hat_quiver)


def is_punctured(q: PolarizedQuiver, l: Letter) -> bool:
    return (l.kind in (TRIV, TINV) and l.sign == -1
            and q.is_special_vertex(l.vertex))


def f_letter(q: PolarizedQuiver, l: Letter) -> Letter:
    """The canonical morphism on letters, from hat-quiver words to base words."""
    if l.kind in (ORD, INV) and q.by_name[l.name].special:
        return spel(l.name)
    if is_punctured(q, l):
        return spel(q.special_loop_at(l.vertex).name)
    return l


def f_word(q: PolarizedQuiver, w: Word) -> Word:
    return tuple(f_letter(q, l) for l in w)


class AdmWord(Frozen):
    """An admissible word with its type; immutable, equal and hashed by
    (letters, wtype).  Its text (``format_word`` of the letters) is kept in
    ``_text`` on the first ``str``."""
    __slots__ = ("letters", "wtype", "_hash", "_text")
    letters: Word
    wtype: str  # 'uu' | 'up' | 'pu' | 'pp' | 'b'

    def __init__(self, letters: Word, wtype: str) -> None:
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "wtype", wtype)
        object.__setattr__(self, "_hash", hash((letters, wtype)))
        object.__setattr__(self, "_text", None)

    @property
    def key(self) -> tuple[Word, str]:
        return self.letters, self.wtype

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = format_word(self.letters)
            object.__setattr__(self, "_text", text)
        return text

    def inverse(self) -> "AdmWord":
        t = {"uu": "uu", "up": "pu", "pu": "up", "pp": "pp", "b": "b"}[self.wtype]
        return AdmWord(winv(self.letters), t)


def classify(q: PolarizedQuiver, x: Word, band: bool = False) -> AdmWord:
    """Wrap a hat-quiver string or band with its type tag."""
    h = hat_of(q)
    if band:
        if not is_band(h, x):
            raise WordError("not a band over the hat quiver")
        return AdmWord(x, "b")
    if not is_string(h, x):
        raise WordError("not a string over the hat quiver")
    a = "p" if is_punctured(q, x[0]) else "u"
    b = "p" if is_punctured(q, x[-1]) else "u"
    return AdmWord(x, a + b)


# -- the orientation construction -------------------------------------------

def _string_cmp(q: PolarizedQuiver, w: Word, k: int) -> bool:
    """True when (w_[k-1])^-1 > w^[k+1] in the base order."""
    rel, _ = lex_compare(q, winv(w[:k]), w[k + 1:])
    if rel not in ("<", ">"):
        raise WordError(f"string comparison degenerate at position {k}")
    return rel == ">"


def _band_cmp(q: PolarizedQuiver, w: Word, k: int) -> bool:
    """True when the inverted cyclic word beats the cyclic word at position k."""
    cyc = w[k + 1:] + w[:k]
    rel, _ = lex_compare(q, winv(cyc), cyc)
    if rel not in ("<", ">"):
        raise WordError(f"band comparison degenerate at position {k}")
    return rel == ">"


def _oriented(q: PolarizedQuiver, w: Word, ks, bigger) -> Word:
    """The letters w[k], k in ks, with each special one made ordinary where
    ``bigger(q, w, k)`` holds and inverse elsewhere."""
    return tuple([w[k] if w[k].kind != SPE else
                  (ordl if bigger(q, w, k) else invl)(w[k].name) for k in ks])


def a_of_w(q: PolarizedQuiver, w: Word) -> AdmWord:
    """Orient the special letters of a string or standard-form band.

    Symmetric strings fold to a punctured right end, symmetric bands in
    standard form fold to doubly punctured strings; other letters are kept.
    """
    if is_string(q, w):
        if w != winv(w):
            return classify(q, _oriented(q, w, range(len(w)), _string_cmp))
        m = (len(w) - 1) // 2
        b = q.by_name[w[m].name].source
        return classify(q, (*_oriented(q, w, range(m), _string_cmp), trivl(b, -1)))
    if is_primitive_band(q, w):
        if not is_symmetric_band(w):
            return classify(q, _oriented(q, w, range(len(w)), _band_cmp), band=True)
        if w not in standard_form_rotations(w):
            raise WordError("symmetric band must be in standard form")
        n = len(w) // 2
        a, b = q.by_name[w[0].name].source, q.by_name[w[n].name].source
        return classify(q, (tinvl(a, -1), *_oriented(q, w, range(1, n), _band_cmp),
                            trivl(b, -1)))
    raise WordError("expected a string or a primitive band")


# -- admissibility predicate --------------------------------------------------

def is_admissible(q: PolarizedQuiver, x: Word, band: bool = False) -> tuple[bool, str]:
    """Direct orientation-consistency test, with a reason string on failure."""
    h = hat_of(q)
    if band:
        if not is_primitive_band(h, x):
            return False, "not a primitive band over the hat quiver"
        for k, l in enumerate(x):
            if l.kind not in (ORD, INV) or not q.by_name[l.name].special:
                continue
            cyc = x[k + 1:] + x[:k]
            rel, _ = lex_compare(h, winv(cyc), cyc)
            if rel not in ("<", ">"):
                return False, f"cyclic comparison degenerate at {k}"
            if (rel == ">") != (l.kind == ORD):
                return False, f"letter {k} oriented against the cyclic order"
        fx = f_word(q, x)
        if not is_primitive_band(q, fx):
            return False, "image band not primitive"
        if is_symmetric_band(fx):
            return False, "image band symmetric"
        return True, ""
    if not is_string(h, x):
        return False, "not a string over the hat quiver"
    for k in range(1, len(x) - 1):
        l = x[k]
        if l.kind not in (ORD, INV) or not q.by_name[l.name].special:
            continue
        rel, _ = lex_compare(h, winv(x[:k]), x[k + 1:])
        if rel == "=":
            return False, f"string folds at position {k}"
        if rel == "incomparable":
            return False, f"comparison degenerate at position {k}"
        if (rel == ">") != (l.kind == ORD):
            return False, f"letter {k} oriented against the order"
    aw = classify(q, x)
    if aw.wtype == "pp":
        bar = completion(q, aw)
        if not is_primitive_band(q, bar):
            return False, "completion of (p,p) string not a primitive band"
    return True, ""


# -- completion ---------------------------------------------------------------

def _unfold(x: AdmWord, inner, end) -> tuple[Word, int, bool]:
    """(letters, offset, periodic): the reading of x unfolded across its
    punctured ends, with ``inner`` applied to the letters kept and ``end``
    to the punctured end letters.  Index i of the reading is at
    letters[(offset + i) % len] when periodic, letters[offset + i] otherwise.
    """
    w, t = x.letters, x.wtype
    if t == "uu" or t == "b":
        return tuple(map(inner, w)), 0, t == "b"
    if t == "up":
        body = tuple(map(inner, w[:-1]))
        return body + (end(w[-1]),) + winv(body), 0, False
    if t == "pu":
        body = tuple(map(inner, w[1:]))
        return winv(body) + (end(w[0]),) + body, len(w) - 1, False
    body = tuple(map(inner, w[1:-1]))
    return (end(w[0]),) + body + (end(w[-1]),) + winv(body), 0, True


def completion(q: PolarizedQuiver, x: AdmWord) -> Word:
    """The base-quiver string or band recovered from an admissible word."""
    f = partial(f_letter, q)
    return _unfold(x, f, f)[0]


def a_image_of_completion(q: PolarizedQuiver, x: AdmWord) -> AdmWord:
    """Reconstruct x from its own completion; inverse route for type (p,u).

    Every admissible word except type (p,u) is a direct image of the
    orientation construction applied to its completion (inversion commutes
    with the construction); (p,u) words are inverses of (u,p) images.
    """
    bar = completion(q, x)
    if x.wtype == "pu":
        return a_of_w(q, bar).inverse()
    if x.wtype == "pp":
        for r in standard_form_rotations(bar):
            a = a_of_w(q, r)
            if a.letters == x.letters:
                return a
        raise WordError("(p,p) word is not an A-image of its completion")
    return a_of_w(q, bar)


def is_projective_adm(q: PolarizedQuiver, x: AdmWord) -> bool:
    if x.wtype == "b":
        return False
    return completion(q, x) in projective_strings(q)


@per_quiver
def tau_adm(q: PolarizedQuiver, x: AdmWord) -> AdmWord:
    """AR translate on admissible words via the completion, memoised per
    word in q's store ``tau_adm`` (in the base quiver and in a fringing
    alike), so a repeat returns the identical object and the ray stores
    hit by identity.

    Fixed on bands and doubly punctured strings; otherwise transported
    through the base-quiver translate, matching the source sign.
    """
    if x.wtype in ("pp", "b"):
        return x
    if is_projective_adm(q, x):
        raise IsProjective(f"{x} is projective")
    w = completion(q, x)
    tw = tau_string(q, w)
    a = a_of_w(q, tw)
    return a.inverse() if x.wtype == "pu" else a


def tau_adm_via_successors(q: PolarizedQuiver, x: AdmWord) -> AdmWord:
    """Independent route: hat-quiver successors, per the type case split."""
    h = hat_of(q)
    if x.wtype in ("pp", "b"):
        return x
    if is_projective_adm(q, x):
        raise IsProjective(f"{x} is projective")
    if x.wtype == "pu":
        return AdmWord(successor(h, x.letters)[0], "pu")
    if x.wtype == "up":
        return AdmWord(left_successor(h, x.letters), "up")
    try:
        return AdmWord(left_successor(h, successor(h, x.letters)[0]), "uu")
    except AtMaximum:
        return AdmWord(successor(h, left_successor(h, x.letters))[0], "uu")


# -- readings -----------------------------------------------------------------

PUNCT = "punct"  # placeholder for a delta-oriented special letter in readings


def _subst(l: Letter, delta: int) -> Letter:
    if l.kind == PUNCT:
        return ordl(l.name) if delta > 0 else invl(l.name)
    return l


def _inv_keep_mark(l: Letter) -> Letter:
    return l if l.kind == PUNCT else inverse_letter(l)


class Reading(NamedTuple):
    """A word unfolded once for its rays (see :func:`_unfold`), over the
    quiver the rays are read over; per delta, the letters forwards and
    inverted backwards, each punctured mark oriented by delta (one pair
    for all deltas when there is no mark)."""
    over: PolarizedQuiver
    letters: Word
    offset: int
    periodic: bool
    sides: dict[int, tuple[Word, Word]]

    def rays(self, vertices) -> list[Ray]:
        """Per vertex, and per delta of the reading (ascending), the rays
        towards rho = -1 and +1, in one pass: four per vertex for the hat
        reading, in the order of ``homgraph``'s ray checks, two for the
        doublebar one.  Each is the one ray of its content ``(pre, per)``
        in the store ``rays`` of the quiver it is read over, keyed by that
        content and made only when the content is new, so that equal
        readings at different positions are the same object."""
        letters, n, periodic, over = self.letters, len(self.letters), self.periodic, self.over
        store = over.store("rays")
        out = []
        for i in vertices:
            s = self.offset + i
            here = letters[s % n] if periodic else letters[s]
            up = (-1 if here.kind == PUNCT else letter_target(over, here)[1]) == 1
            k, m, last = s % n, -s % n, None
            for side in self.sides.values():
                if side is last:    # the same letters as the delta before
                    out += out[-2:]
                    continue
                fwd, back = last = side
                if periodic:
                    f, b = ((), fwd[k:] + fwd[:k]), ((), back[m:] + back[:m])
                else:
                    f, b = (fwd[s:], ()), (back[n - s:], ())
                for content in ((b, f) if up else (f, b)):
                    ray = store.get(content)
                    if ray is None:
                        ray = store[content] = Ray(*content)
                    out.append(ray)
        return out

    def ray(self, i: int, rho: int, delta: int = 0) -> Ray:
        """The ray read at i towards rho, one of :meth:`rays`."""
        return self.rays((i,))[2 * list(self.sides).index(delta) + (rho > 0)]


@per_quiver
def reading(q: PolarizedQuiver, x: AdmWord, hat: bool) -> Reading:
    """The hat reading of x (punctured ends marked, deltas -1 and +1) or its
    doublebar reading (the completion, delta 0), memoised in q's store
    ``reading``; each is made when a ray of it is first read."""
    if hat:
        over, (letters, offset, periodic) = hat_of(q), _unfold(
            x, lambda l: l, lambda l: Letter(PUNCT, q.special_loop_at(l.vertex).name))
    else:
        f = partial(f_letter, q)
        over, (letters, offset, periodic) = q, _unfold(x, f, f)
    back = tuple(map(_inv_keep_mark, reversed(letters)))
    deltas = (-1, 1) if hat else (0,)
    if any(l.kind == PUNCT for l in letters):
        sides = {d: (tuple(_subst(l, d) for l in letters), tuple(_subst(l, d) for l in back))
                 for d in deltas}
    else:   # nothing to orient: every delta reads the same two sides
        sides = dict.fromkeys(deltas, (letters, back))
    return Reading(over, letters, offset, periodic, sides)


@per_quiver
def doublebar_ray(q: PolarizedQuiver, x: AdmWord, i: int, rho: int) -> Ray:
    """The ray at i towards rho of the completion, read over q."""
    return reading(q, x, False).ray(i, rho)


@per_quiver
def hat_ray(q: PolarizedQuiver, x: AdmWord, i: int, rho: int, delta: int) -> Ray:
    """The ray read over the hat quiver; punctured positions hold a
    placeholder whose orientation is chosen per ray (so that the plus
    reading is always below the minus reading)."""
    return reading(q, x, True).ray(i, rho, delta)


# -- enumeration ---------------------------------------------------------------

class AdmSets(NamedTuple):
    strings: tuple[AdmWord, ...]        # all admissible strings, inverses included
    bands: tuple[AdmWord, ...]          # rotation-canonical admissible bands
    truncated: bool


def bar_length(x: AdmWord) -> int:
    l = len(x.letters) - 1
    return {"uu": l + 1, "up": 2 * l + 1, "pu": 2 * l + 1,
            "pp": 2 * l, "b": l + 1}[x.wtype]


@per_quiver
def enumerate_adm(q: PolarizedQuiver, max_len: int) -> AdmSets:
    """Admissible words whose completion has length <= max_len, built from
    base strings and standard-form bands; memoised in q's store
    ``enumerate_adm``."""
    strings: set[AdmWord] = set()
    ws, truncated = enumerate_strings(q, max_len)
    for w in ws:
        a = a_of_w(q, w)
        strings.add(a)
        strings.add(a.inverse())
    bands: set[AdmWord] = set()
    for w in standard_band_words(q, max_len):
        a = a_of_w(q, w)
        if a.wtype == "pp":
            strings.add(a)
            strings.add(a.inverse())
        else:
            bands.add(AdmWord(band_canonical(a.letters), "b"))
            bands.add(AdmWord(band_canonical(winv(a.letters)), "b"))
    return AdmSets(tuple(sorted(strings, key=lambda a: (a.letters, a.wtype))),
                   tuple(sorted(bands, key=lambda a: a.letters)), truncated)


def enumerate_adm_direct(q: PolarizedQuiver, max_len: int) -> AdmSets:
    """Independent route: filter all hat-quiver strings and bands."""
    h = hat_of(q)
    strings: set[AdmWord] = set()
    ws, truncated = enumerate_strings(h, max_len)
    for w in ws:
        if is_admissible(q, w)[0]:
            a = classify(q, w)
            if bar_length(a) <= max_len:
                strings.add(a)
    bands: set[AdmWord] = set()
    for w in enumerate_bands(h, max_len):
        for r in list(rotations(w)) + list(rotations(winv(w))):
            if is_admissible(q, r, band=True)[0]:
                bands.add(AdmWord(band_canonical(r), "b"))
    return AdmSets(tuple(sorted(strings, key=lambda a: (a.letters, a.wtype))),
                   tuple(sorted(bands, key=lambda a: a.letters)), truncated)
