"""Letters, words, the lexicographic order, strings, bands, and the
successor / AR-translate combinatorics.

Words are tuples of :class:`Letter`; all operations take the quiver they
live over, since sources, targets, and the letter order depend on it.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import AtMaximum, AtMinimum, IsProjective, WordError
from .quiver import Frozen, PolarizedQuiver, Slot, per_quiver

ORD, INV, SPE, TRIV, TINV = "ord", "inv", "spe", "triv", "tinv"


class Letter(NamedTuple):
    kind: str
    name: str = ""
    vertex: str = ""
    sign: int = 0


def ordl(name: str) -> Letter:
    return Letter(ORD, name)


def invl(name: str) -> Letter:
    return Letter(INV, name)


def spel(name: str) -> Letter:
    return Letter(SPE, name)


def trivl(vertex: str, sign: int) -> Letter:
    return Letter(TRIV, "", vertex, sign)


def tinvl(vertex: str, sign: int) -> Letter:
    return Letter(TINV, "", vertex, sign)


Word = tuple[Letter, ...]


def inverse_letter(l: Letter) -> Letter:
    if l.kind == ORD:
        return Letter(INV, l.name)
    if l.kind == INV:
        return Letter(ORD, l.name)
    if l.kind == SPE:
        return l  # special loops are self-paired
    if l.kind == TRIV:
        return Letter(TINV, "", l.vertex, l.sign)
    return Letter(TRIV, "", l.vertex, l.sign)


def letter_source(q: PolarizedQuiver, l: Letter) -> Slot | None:
    if l.kind == ORD:
        return q.by_name[l.name].s_slot
    if l.kind == INV:
        return q.by_name[l.name].t_slot
    if l.kind == SPE:
        return (q.by_name[l.name].source, -1)
    if l.kind == TINV:
        return (l.vertex, l.sign)
    return None


def letter_target(q: PolarizedQuiver, l: Letter) -> Slot | None:
    if l.kind == ORD:
        return q.by_name[l.name].t_slot
    if l.kind == INV:
        return q.by_name[l.name].s_slot
    if l.kind == SPE:
        return (q.by_name[l.name].target, -1)
    if l.kind == TRIV:
        return (l.vertex, l.sign)
    return None


def letter_valid(q: PolarizedQuiver, l: Letter) -> bool:
    if l.kind in (ORD, INV):
        a = q.by_name.get(l.name)
        return a is not None and not a.special
    if l.kind == SPE:
        a = q.by_name.get(l.name)
        return a is not None and a.special
    return q.trivial_slot_ok((l.vertex, l.sign))


def check_word(q: PolarizedQuiver, letters: Word) -> None:
    if not letters:
        raise WordError("empty word")
    for l in letters:
        if not letter_valid(q, l):
            raise WordError(f"letter {format_letter(l)} is not a letter of this quiver")
    for i in range(len(letters) - 1):
        s = letter_source(q, letters[i])
        t = letter_target(q, letters[i + 1])
        if s is None or t is None or s != (t[0], -t[1]):
            raise WordError(
                f"letters {format_letter(letters[i])} and {format_letter(letters[i+1])} "
                f"do not concatenate")


def is_word(q: PolarizedQuiver, letters: Word) -> bool:
    try:
        check_word(q, letters)
        return True
    except WordError:
        return False


def winv(w: Word) -> Word:
    return tuple(inverse_letter(l) for l in reversed(w))


def is_string(q: PolarizedQuiver, w: Word) -> bool:
    return (is_word(q, w) and w[0].kind == TINV and w[-1].kind == TRIV)


def is_band(q: PolarizedQuiver, w: Word) -> bool:
    """w.w is again a word; trivial letters can never occur inside a band."""
    if not is_word(q, w):
        return False
    if any(l.kind in (TRIV, TINV) for l in w):
        return False
    s = letter_source(q, w[-1])
    t = letter_target(q, w[0])
    return s == (t[0], -t[1])


def is_primitive_band(q: PolarizedQuiver, w: Word) -> bool:
    if not is_band(q, w):
        return False
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return False
    return True


def rotations(w: Word):
    for k in range(len(w)):
        yield w[k:] + w[:k]


def band_canonical(w: Word) -> Word:
    """Lexicographically least among all rotations of w and of its inverse."""
    return min(list(rotations(w)) + list(rotations(winv(w))))


def is_symmetric_band(w: Word) -> bool:
    return winv(w) in set(rotations(w))


def standard_form_rotations(w: Word) -> list[Word]:
    """All rotations of the form eps* v zeta* v^-1 (symmetric bands only)."""
    out = []
    n = len(w)
    if n % 2:
        return []
    h = n // 2
    for r in rotations(w):
        if r[0].kind != SPE or r[h].kind != SPE:
            continue
        if all(r[h + k] == inverse_letter(r[h - k]) for k in range(1, h)):
            out.append(r)
    return out


# -- letter order and lexicographic comparison ------------------------------

_KIND_RANK = {ORD: 0, TRIV: 1, INV: 2}


def letters_at(q: PolarizedQuiver, slot: Slot) -> list[Letter]:
    """The linearly ordered set of letters with target slot, small to large.

    Either a singleton special letter, or a sublist of {direct < trivial <
    inverse} with at most one letter of each kind.
    """
    a_in = q.in_slot.get(slot)
    if a_in is not None and a_in.special:
        return [spel(a_in.name)]
    out: list[Letter] = []
    if a_in is not None:
        out.append(ordl(a_in.name))
    if q.trivial_slot_ok(slot):
        out.append(trivl(*slot))
    a_out = q.out_slot.get(slot)
    if a_out is not None and not a_out.special:
        out.append(invl(a_out.name))
    return out


def compare_letters(q: PolarizedQuiver, a: Letter, b: Letter) -> int | None:
    """-1 / +1 for distinct letters of one target slot, which differ in kind
    on a polarized quiver; None for different slots.  Callers skip a == b."""
    ta = letter_target(q, a)
    if ta is None or ta != letter_target(q, b):
        return None
    return -1 if _KIND_RANK[a.kind] < _KIND_RANK[b.kind] else 1


def lex_compare(q: PolarizedQuiver, v: Word, w: Word) -> tuple[str, int | None]:
    """Compare two words; returns (relation, delta).

    relation is one of '<', '=', '>', 'incomparable'; delta is the length of
    the common prefix at the first comparable difference, None otherwise.
    """
    n = min(len(v), len(w))
    for i in range(n):
        if v[i] == w[i]:
            continue
        c = compare_letters(q, v[i], w[i])
        if c is None:
            return ("incomparable", None)
        return ("<" if c < 0 else ">", i)
    if len(v) == len(w):
        return ("=", None)
    return ("incomparable", None)  # proper prefixes are incomparable


# -- eventually periodic rays ------------------------------------------------

class Ray(Frozen):
    """A right-infinite (or finite) word: preperiod then repeated period.
    Immutable, equal and hashed by (pre, per)."""
    __slots__ = ("pre", "per", "_hash")
    pre: Word
    per: Word

    def __init__(self, pre: Word, per: Word = ()) -> None:
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)
        object.__setattr__(self, "_hash", hash((pre, per)))

    @property
    def key(self) -> tuple[Word, Word]:
        return self.pre, self.per

    def __getitem__(self, i: int) -> Letter:
        if i < len(self.pre):
            return self.pre[i]
        if not self.per:
            raise IndexError(i)
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, n: int) -> Word:
        """The first n letters, or all of them when the ray is shorter."""
        laps = -((len(self.pre) - n) // len(self.per)) if self.per else 0
        return (self.pre + self.per * laps)[:n]

    def first(self) -> Letter:
        return self[0]


def ray_compare(q: PolarizedQuiver, v: Ray, w: Ray) -> tuple[str, int | None]:
    """Lexicographic comparison of eventually periodic rays over q:
    :func:`lex_compare` of bounded prefixes, a finite ray whole (it is
    shorter than the bound).

    Two rays agreeing beyond both preperiods plus a common period multiple
    agree forever, which bounds the prefixes.
    """
    pv, pw = len(v.per), len(w.per)
    lcm = pv * pw // gcd(pv, pw) if pv and pw else max(pv, pw, 1)
    bound = len(v.pre) + len(w.pre) + 2 * lcm + 2
    return lex_compare(q, v.prefix(bound), w.prefix(bound))


# -- stable labels of the rays in ray_compare order -----------------------------

LABEL_GAP = 1 << 32   # between the labels of a chain's ends and a new end ray


def ray_label(q: PolarizedQuiver, r: Ray) -> tuple[int, int]:
    """The chain id and label of r over q, kept in q's store ``ray_labels``
    and never changed once handed out.

    For two rays of one chain, ``ray_compare(q, v, w)`` is '<', '=' or '>'
    exactly as the label of v is <, == or > that of w; rays of different
    chains compare only through :func:`ray_compare`.  The chains of q are
    kept in its store ``ray_chains`` by the target slot of their rays' first
    letters, the start slot: rays with different start slots are
    incomparable.  A ray joins the first chain of its start slot that takes
    it (:func:`_chain_insert`), else starts a chain of its own.
    """
    labels = q.store("ray_labels")
    got = labels.get(r)
    if got is None:
        chains = q.store("ray_chains").setdefault(letter_target(q, r.first()), [])
        for chain in chains:
            label = _chain_insert(q, chain, r)
            if label is not None:
                break
        else:
            # the number of rays labelled before it: distinct for every chain
            chain, label = (len(labels), [r], [0]), 0
            chains.append(chain)
        got = labels[r] = (chain[0], label)
    return got


def _chain_insert(q: PolarizedQuiver, chain: tuple[int, list, list], r: Ray) -> int | None:
    """Insert r into the chain ``(id, rays, labels)``, rays ascending and
    pairwise comparable, and return its label; None, leaving the chain as
    it was, when r meets '=' or 'incomparable' or finds no free integer
    between its neighbours' labels.

    The binary search compares r with both of its new neighbours last: the
    one below set ``lo`` and the one above set ``hi``.  r is then comparable
    with every ray of the chain, because the first differences of words
    that share a prefix are letters of one target slot, and the letter
    order is total on a slot.
    """
    _, rays, labels = chain
    lo, hi = 0, len(rays)
    while lo < hi:
        mid = (lo + hi) // 2
        rel = ray_compare(q, r, rays[mid])[0]
        if rel == "<":
            hi = mid
        elif rel == ">":
            lo = mid + 1
        else:
            return None
    if lo == len(rays):
        label = labels[-1] + LABEL_GAP
    elif lo == 0:
        label = labels[0] - LABEL_GAP
    else:
        below, above = labels[lo - 1], labels[lo]
        if above - below < 2:
            return None
        label = (below + above) // 2
    rays.insert(lo, r)
    labels.insert(lo, label)
    return label


# -- greedy extremal words ----------------------------------------------------

def max_word_into(q: PolarizedQuiver, slot: Slot) -> Word:
    """Largest right-inextensible word u with target slot.

    Greedy: take the largest available letter; inverse and special letters
    keep the word going, a trivial letter ends it.
    """
    return _greedy_word_into(q, slot, -1)


def min_word_into(q: PolarizedQuiver, slot: Slot) -> Word:
    """Smallest right-inextensible word with target slot (no inverse letters)."""
    return _greedy_word_into(q, slot, 0)


def _greedy_word_into(q: PolarizedQuiver, slot: Slot, end: int) -> Word:
    """Take ``letters_at(q, slot)[end]`` until a trivial letter ends the word."""
    out: list[Letter] = []
    while len(out) <= 10000:
        ls = letters_at(q, slot)
        if not ls:
            raise WordError(f"no letters end at slot {slot}")
        l = ls[end]
        out.append(l)
        if l.kind == TRIV:
            return tuple(out)
        src = letter_source(q, l)
        slot = (src[0], -src[1])
    raise WordError("greedy extension did not terminate; quiver not admissible")


def legal_string_slots(q: PolarizedQuiver) -> list[Slot]:
    """Slots whose trivial letter exists, i.e. possible string endpoints."""
    return [(v, s) for v in q.vertices for s in (-1, 1) if q.trivial_slot_ok((v, s))]


# -- string enumeration -------------------------------------------------------

def enumerate_strings_at(q: PolarizedQuiver, slot: Slot, max_len: int,
                         ) -> tuple[list[Word], bool]:
    """All strings with first letter 1^-1_slot, descending, length <= max_len.

    Returns (strings, truncated); truncated is set when a branch was cut by
    the budget, so a False flag certifies completeness.
    """
    if not q.trivial_slot_ok(slot):
        raise WordError(f"slot {slot} carries no trivial letter")
    head = tinvl(*slot)
    out: list[Word] = []
    truncated = False

    def walk(prefix: list[Letter], at: Slot) -> None:
        nonlocal truncated
        if len(prefix) >= max_len:
            truncated = True
            return
        for l in reversed(letters_at(q, at)):
            if l.kind == TRIV:
                out.append(tuple(prefix) + (l,))
            else:
                src = letter_source(q, l)
                prefix.append(l)
                walk(prefix, (src[0], -src[1]))
                prefix.pop()

    walk([head], (slot[0], -slot[1]))
    return out, truncated


def enumerate_strings(q: PolarizedQuiver, max_len: int) -> tuple[list[Word], bool]:
    all_strings: list[Word] = []
    truncated = False
    for slot in legal_string_slots(q):
        ws, t = enumerate_strings_at(q, slot, max_len)
        all_strings.extend(ws)
        truncated = truncated or t
    return all_strings, truncated


# -- band enumeration ---------------------------------------------------------

def _arrow_letters(q: PolarizedQuiver) -> list[Letter]:
    out: list[Letter] = []
    for a in q.arrows:
        if a.special:
            out.append(spel(a.name))
        else:
            out.append(ordl(a.name))
            out.append(invl(a.name))
    return sorted(out)


def enumerate_bands(q: PolarizedQuiver, max_len: int) -> list[Word]:
    """Primitive bands up to rotation and inversion (canonical representatives)."""
    letters = _arrow_letters(q)
    by_slot: dict[Slot, list[Letter]] = {}
    for l in letters:
        by_slot.setdefault(letter_target(q, l), []).append(l)
    found: set[Word] = set()

    def walk(word: list[Letter]) -> None:
        if len(word) >= 2:
            s = letter_source(q, word[-1])
            t = letter_target(q, word[0])
            if s == (t[0], -t[1]) and is_primitive_band(q, tuple(word)):
                found.add(band_canonical(tuple(word)))
        if len(word) >= max_len:
            return
        src = letter_source(q, word[-1])
        for l in by_slot.get((src[0], -src[1]), ()):
            word.append(l)
            walk(word)
            word.pop()

    for l in letters:
        walk([l])
    return sorted(found)


def standard_band_words(q: PolarizedQuiver, max_len: int) -> list[Word]:
    """All primitive bands in standard form: every rotation of the asymmetric
    ones, plus the eps* v zeta* v^-1 rotations of the symmetric ones."""
    out: list[Word] = []
    for w in enumerate_bands(q, max_len):
        if is_symmetric_band(w):
            out.extend(standard_form_rotations(w))
        else:
            out.extend(rotations(w))
            out.extend(rotations(winv(w)))
    return sorted(set(out))


# -- projective / injective strings and the successor -------------------------

def simple_string(q: PolarizedQuiver, v: str, rho: int) -> Word:
    """1^-1_{v,rho} 1_{v,-rho}; at a special vertex only rho = +1 is legal."""
    if not q.trivial_slot_ok((v, rho)) or not q.trivial_slot_ok((v, -rho)):
        raise WordError(f"no simple string at ({v},{rho})")
    return (tinvl(v, rho), trivl(v, -rho))


@per_quiver
def projective_injective_strings(q: PolarizedQuiver):
    """The families (P, Q) as dicts label -> string.

    Labels: ('p', i, rho) and ('q', i, rho) at ordinary vertices,
    ('p', i) and ('q', i) at special vertices.
    """
    proj: dict[tuple, Word] = {}
    inj: dict[tuple, Word] = {}
    for i in q.vertices:
        if q.is_special_vertex(i):
            eps = spel(q.special_loop_at(i).name)
            wmax = max_word_into(q, (i, 1))
            wmin = min_word_into(q, (i, 1))
            proj[("p", i)] = winv(wmax) + (eps,) + wmax
            inj[("q", i)] = winv(wmin) + (eps,) + wmin
        else:
            for rho in (-1, 1):
                proj[("p", i, rho)] = winv(max_word_into(q, (i, rho))) + \
                    max_word_into(q, (i, -rho))
                inj[("q", i, rho)] = winv(min_word_into(q, (i, rho))) + \
                    min_word_into(q, (i, -rho))
    return proj, inj


def _fmt_key(parts) -> str:
    return ",".join(f"+{k}" if isinstance(k, int) and k > 0 else str(k)
                    for k in parts)


def string_labels(q: PolarizedQuiver, w: Word) -> list[str]:
    """The p, q and s labels carried by the string w, in that order.

    At most one p label applies: projective strings of different vertices
    are different modules, and the two of an ordinary vertex are inverse
    words, which differ in their first letters' target slots.  The same
    holds for q."""
    proj, inj = projective_injective_strings(q)
    labels = []
    for key, s in proj.items():
        if s == w:
            labels.append("p(" + _fmt_key(key[1:]) + ")")
    for key, s in inj.items():
        if s == w:
            labels.append("q(" + _fmt_key(key[1:]) + ")")
    for v in q.vertices:
        for rho in (-1, 1):
            try:
                if simple_string(q, v, rho) == w:
                    labels.append(f"s({v})")
            except WordError:
                pass
    return labels


def successor(q: PolarizedQuiver, w: Word) -> tuple[Word, str]:
    """The next larger string in its slot, with tag 'cohook' or 'hook_removed'."""
    if not is_string(q, w):
        raise WordError("successor needs a string")
    j, sigma = letter_target(q, w[-1])
    a_out = q.out_slot.get((j, sigma))
    if a_out is not None and not a_out.special:
        l = invl(a_out.name)
        src = letter_source(q, l)
        tail = min_word_into(q, (src[0], -src[1]))
        return w[:-1] + (l,) + tail, "cohook"
    for m in range(len(w) - 1, -1, -1):
        if w[m].kind == ORD:
            t = letter_target(q, w[m])
            return w[:m] + (trivl(*t),), "hook_removed"
    raise AtMaximum("string is maximal in its slot")


def predecessor(q: PolarizedQuiver, w: Word) -> tuple[Word, str]:
    """Inverse of :func:`successor`: hook addition first, else co-hook removal."""
    if not is_string(q, w):
        raise WordError("predecessor needs a string")
    j, sigma = letter_target(q, w[-1])
    a_in = q.in_slot.get((j, sigma))
    if a_in is not None and not a_in.special:
        l = ordl(a_in.name)
        src = letter_source(q, l)
        tail = max_word_into(q, (src[0], -src[1]))
        return w[:-1] + (l,) + tail, "hook_added"
    for m in range(len(w) - 1, 0, -1):
        if w[m].kind == INV:
            t = letter_target(q, w[m])
            return w[:m] + (trivl(*t),), "cohook_removed"
    raise AtMinimum("string is minimal in its slot")


def left_successor(q: PolarizedQuiver, w: Word) -> Word:
    return winv(successor(q, winv(w))[0])


def left_predecessor(q: PolarizedQuiver, w: Word) -> Word:
    return winv(predecessor(q, winv(w))[0])


@per_quiver
def projective_strings(q: PolarizedQuiver) -> frozenset[Word]:
    return frozenset(projective_injective_strings(q)[0].values())


@per_quiver
def injective_strings(q: PolarizedQuiver) -> frozenset[Word]:
    return frozenset(projective_injective_strings(q)[1].values())


def tau_string(q: PolarizedQuiver, w: Word) -> Word:
    """AR translate on strings: two-sided successor; identity on bands."""
    if is_band(q, w):
        return w
    if w in projective_strings(q):
        raise IsProjective("tau undefined on projective strings")
    try:
        return left_successor(q, successor(q, w)[0])
    except AtMaximum:
        pass
    return successor(q, left_successor(q, w))[0]


def tau_string_inverse(q: PolarizedQuiver, w: Word) -> Word:
    if is_band(q, w):
        return w
    if w in injective_strings(q):
        raise WordError("tau inverse undefined on injective strings")
    try:
        return left_predecessor(q, predecessor(q, w)[0])
    except AtMinimum:
        pass
    return predecessor(q, left_predecessor(q, w))[0]


# -- formatting ---------------------------------------------------------------

def format_letter(l: Letter) -> str:
    if l.kind == ORD:
        return l.name
    if l.kind == INV:
        return l.name + "-"
    if l.kind == SPE:
        return l.name + "*"
    sign = "+" if l.sign > 0 else "-"
    base = f"1({l.vertex},{sign})"
    return base if l.kind == TRIV else base + "-"


def format_word(w: Word) -> str:
    return " ".join(format_letter(l) for l in w)
