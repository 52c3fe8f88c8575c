"""Polarized quivers: validation, the associated all-ordinary quiver,
the Gabriel presentation, and fringings.

A polarized quiver carries two injective end-maps into vertex x {-1,+1}.
Special arrows are polarized (-1,-1) at both ends and come with a pairing;
in the skewed-gentle case every special arrow is a self-paired loop.
"""

from __future__ import annotations

import functools
from collections import defaultdict, namedtuple
from typing import NamedTuple

from .errors import QuiverError

Slot = tuple[str, int]  # (vertex, sign) with sign in {-1, +1}


class Arrow(NamedTuple):
    name: str
    source: str
    s_sign: int
    target: str
    t_sign: int
    special: bool = False

    @property
    def s_slot(self) -> Slot:
        return (self.source, self.s_sign)

    @property
    def t_slot(self) -> Slot:
        return (self.target, self.t_sign)


def _neg(slot: Slot) -> Slot:
    return (slot[0], -slot[1])


class ValidationReport(NamedTuple):
    is_polarized: bool
    is_admissible: bool
    is_skewed_gentle: bool
    is_gentle: bool
    diagnostics: tuple[str, ...] = ()


class PolarizedQuiver:
    """Immutable polarized quiver.

    Construction only requires structural sanity (known vertices, signs in
    {-1,+1}); the mathematical invariants are checked by :func:`validate`.
    """

    def __init__(self, vertices, arrows):
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertices)))
        self.arrows: tuple[Arrow, ...] = tuple(arrows)
        self.vertex_set: frozenset[str] = frozenset(self.vertices)
        for a in self.arrows:
            if a.source not in self.vertex_set or a.target not in self.vertex_set:
                raise QuiverError(f"arrow {a.name} references unknown vertex")
            if a.s_sign not in (-1, 1) or a.t_sign not in (-1, 1):
                raise QuiverError(f"arrow {a.name} has a sign outside {{-1,+1}}")
        names = [a.name for a in self.arrows]
        self._dup_names = sorted({n for n in names if names.count(n) > 1})
        # equality ignores arrow order
        self._key = (self.vertices, tuple(sorted(self.arrows, key=lambda a: a.name)))
        self._hash = hash(self._key)
        self._cache: defaultdict[str, dict] = defaultdict(dict)
        # store(name): the memo table ``name`` of this quiver, made on first
        # use; a bound C method, so the hand-written lookups call no Python
        self.store = self._cache.__getitem__
        self.by_name: dict[str, Arrow] = {a.name: a for a in self.arrows}
        # the quiver is immutable, so its views are computed once
        self.special_arrows: tuple[Arrow, ...] = tuple(a for a in self.arrows if a.special)
        self.ordinary_arrows: tuple[Arrow, ...] = tuple(
            a for a in self.arrows if not a.special)
        self._special_vertices = frozenset(
            a.source for a in self.special_arrows if a.source == a.target)
        special_starts = {a.s_slot for a in self.special_arrows}
        self._trivial_slots = frozenset(
            (v, s) for v in self.vertices for s in (-1, 1) if (v, s) not in special_starts)
        # slot -> arrow maps; only trustworthy when the quiver is polarized
        self.out_slot: dict[Slot, Arrow] = {}
        self.in_slot: dict[Slot, Arrow] = {}
        self._slot_collisions: list[str] = []
        for a in self.arrows:
            if a.s_slot in self.out_slot:
                self._slot_collisions.append(
                    f"arrows {self.out_slot[a.s_slot].name} and {a.name} both start at {a.s_slot}")
            else:
                self.out_slot[a.s_slot] = a
            if a.t_slot in self.in_slot:
                self._slot_collisions.append(
                    f"arrows {self.in_slot[a.t_slot].name} and {a.name} both end at {a.t_slot}")
            else:
                self.in_slot[a.t_slot] = a

    # -- basic views ------------------------------------------------------

    def is_special_vertex(self, v: str) -> bool:
        return v in self._special_vertices

    def special_loop_at(self, v: str) -> Arrow:
        for a in self.special_arrows:
            if a.source == v == a.target:
                return a
        raise QuiverError(f"no special loop at vertex {v}")

    def trivial_slot_ok(self, slot: Slot) -> bool:
        """Slots carrying a trivial letter: everything except special start slots."""
        return slot in self._trivial_slots

    @functools.cached_property
    def zero_relations(self) -> tuple[tuple[Arrow, Arrow], ...]:
        """The ordinary pairs (a, b) with ab = 0: a starts at the slot where
        b ends."""
        return tuple((a, b) for a in self.ordinary_arrows for b in self.ordinary_arrows
                     if a.s_slot == b.t_slot)

    def __eq__(self, other):
        return self is other or (isinstance(other, PolarizedQuiver)
                                 and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # the hash and the stores are rebuilt, never carried across interpreters
        return PolarizedQuiver, (self.vertices, self.arrows)

    def __repr__(self):
        return f"PolarizedQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Frozen:
    """Base of the hand-written records (``Ray``, ``AdmWord``, ``AxModule``,
    ``Rep``): their fields are the class annotations, in order, which
    ``__init__`` takes and sets past ``__setattr__``; assigning or deleting
    an attribute later raises AttributeError. A record equals a record of
    its class with an equal ``key`` and is hashed by its kept ``_hash``,
    which depends on the hash seed: a pickle or copy carries the fields
    only, and the copy derives the rest anew."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__annotations__)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__annotations__)
        return f"{self.__class__.__name__}({body})"


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


_MISSING = object()


def per_quiver(fn):
    """Memoise ``fn(q, *args)`` in q's store named after fn, keyed by args;
    every value is kept, None too, and an exception is raised again on each
    call. ``cache_info()`` sums over all quivers, and its currsize counts
    every value stored, also those freed since."""
    name, counts = fn.__name__, [0, 0]     # calls, misses

    @functools.wraps(fn)
    def memo(q, *args):
        counts[0] += 1
        store = q._cache[name]
        value = store.get(args, _MISSING)
        if value is _MISSING:
            counts[1] += 1
            value = store[args] = fn(q, *args)
        return value

    memo.cache_info = lambda: CacheInfo(counts[0] - counts[1], counts[1], None, counts[1])
    return memo


def special_pairing(q: PolarizedQuiver) -> dict[str, str] | None:
    """The involution eps -> eps' on special arrows, or None if broken."""
    pairing: dict[str, str] = {}
    for e in q.special_arrows:
        partners = [f for f in q.special_arrows
                    if f.s_slot == e.t_slot and f.t_slot == e.s_slot]
        if len(partners) != 1:
            return None
        pairing[e.name] = partners[0].name
    for e, ep in pairing.items():
        if pairing.get(ep) != e:
            return None
    return pairing


def validate(q: PolarizedQuiver) -> ValidationReport:
    """Decide the polarized / admissible / skewed-gentle / gentle flags.

    Admissibility is settled by cycle detection on the composability
    relation: arrow a may follow arrow b in an admissible path exactly when
    s(a) = -t(b) as slots; finitely many admissible paths iff no cycle.
    """
    diagnostics: list[str] = []
    for n in q._dup_names:
        diagnostics.append(f"duplicate arrow name {n}")
    diagnostics.extend(q._slot_collisions)
    polarized = not diagnostics
    for e in q.special_arrows:
        if e.s_sign != -1 or e.t_sign != -1:
            diagnostics.append(f"special arrow {e.name} not polarized (-1,-1)")
            polarized = False
    pairing = special_pairing(q)
    if pairing is None:
        diagnostics.append("broken special pairing")
        polarized = False

    # cycle detection on arrows: edge b -> a when a can follow b
    follows: dict[str, list[str]] = {a.name: [] for a in q.arrows}
    for b in q.arrows:
        for a in q.arrows:
            if a.s_slot == _neg(b.t_slot):
                follows[b.name].append(a.name)
    color: dict[str, int] = {}

    def has_cycle(n: str) -> bool:
        color[n] = 1
        for m in follows[n]:
            c = color.get(m, 0)
            if c == 1 or (c == 0 and has_cycle(m)):
                return True
        color[n] = 2
        return False

    admissible = polarized and not any(
        has_cycle(a.name) for a in q.arrows if color.get(a.name, 0) == 0)

    specials_are_loops = all(a.source == a.target for a in q.special_arrows)
    skewed_gentle = admissible and specials_are_loops
    gentle = admissible and not q.special_arrows
    return ValidationReport(polarized, admissible, skewed_gentle, gentle,
                            tuple(diagnostics))


def require_skewed_gentle(q: PolarizedQuiver) -> None:
    rep = validate(q)
    if not rep.is_skewed_gentle:
        raise QuiverError(f"quiver is not skewed-gentle: {rep.diagnostics or rep}")


def hat_quiver(q: PolarizedQuiver) -> PolarizedQuiver:
    """The associated gentle quiver: special loops re-flagged as ordinary.

    Vertices, arrow names and polarizations are unchanged, so the canonical
    morphism back to ``q`` is the identity on names.
    """
    return PolarizedQuiver(
        q.vertices,
        [Arrow(a.name, a.source, a.s_sign, a.target, a.t_sign, False) for a in q.arrows])


# -- Gabriel presentation ---------------------------------------------------

TildeVertex = tuple[str, str]  # (vertex, 'o' | '-' | '+')


class TildeArrow(NamedTuple):
    base: str    # underlying ordinary arrow
    tau: str     # sign at the target copy
    sigma: str   # sign at the source copy
    source: TildeVertex
    target: TildeVertex

    @property
    def name(self) -> str:
        return f"{self.tau}{self.base}{self.sigma}"


class GabrielPresentation(NamedTuple):
    vertices: tuple[TildeVertex, ...]
    arrows: tuple[TildeArrow, ...]
    # each relation is a sum of 2-paths (first arrow applied second)
    relations: tuple[tuple[tuple[TildeArrow, TildeArrow], ...], ...]


def vertex_signs(q: PolarizedQuiver, v: str) -> tuple[str, ...]:
    return ('-', '+') if q.is_special_vertex(v) else ('o',)


def tilde_vertices(q: PolarizedQuiver) -> tuple[TildeVertex, ...]:
    out: list[TildeVertex] = []
    for v in q.vertices:
        out.extend((v, s) for s in vertex_signs(q, v))
    return tuple(out)


def gabriel_presentation(q: PolarizedQuiver) -> GabrielPresentation:
    """Quiver-with-relations presentation of the algebra of ``q``.

    Each special vertex splits in two; every ordinary arrow gets one copy
    per admissible sign pair, and every pair alpha, beta of
    ``q.zero_relations`` (s(alpha) = t(beta) including signs) contributes
    relations summing over the middle vertex signs.
    """
    require_skewed_gentle(q)
    arrows: list[TildeArrow] = []
    for a in q.ordinary_arrows:
        for tau in vertex_signs(q, a.target):
            for sigma in vertex_signs(q, a.source):
                arrows.append(TildeArrow(a.name, tau, sigma,
                                         (a.source, sigma), (a.target, tau)))
    index = {(t.base, t.tau, t.sigma): t for t in arrows}
    relations: list[tuple[tuple[TildeArrow, TildeArrow], ...]] = []
    for a, b in q.zero_relations:
        for tau in vertex_signs(q, a.target):
            for rho in vertex_signs(q, b.source):
                rel = tuple((index[(a.name, tau, sig)], index[(b.name, sig, rho)])
                            for sig in vertex_signs(q, b.target))
                relations.append(rel)
    return GabrielPresentation(tilde_vertices(q), tuple(arrows), tuple(relations))


# -- Fringing ---------------------------------------------------------------

class Fringing(NamedTuple):
    """An extended quiver that has passed :func:`check_fringing`."""
    extended: PolarizedQuiver


def auto_fringe(q: PolarizedQuiver) -> Fringing:
    """Fill every empty slot of ``q`` with a fresh valency-1 fringe vertex.

    Slots are visited in (vertex, in/out, sign) order and fringe vertices
    are named f1, f2, ...; the attached arrows reuse the vertex name.
    """
    require_skewed_gentle(q)
    vertices = list(q.vertices)
    arrows = list(q.arrows)
    counter = 1
    for v in q.vertices:
        for io in ("in", "out"):
            for sign in (-1, 1):
                slot = (v, sign)
                occupied = slot in (q.in_slot if io == "in" else q.out_slot)
                if occupied:
                    continue
                f = f"f{counter}"
                while f in q.vertex_set or f in q.by_name:
                    counter += 1
                    f = f"f{counter}"
                counter += 1
                vertices.append(f)
                if io == "in":
                    arrows.append(Arrow(f, f, 1, v, sign, False))
                else:
                    arrows.append(Arrow(f, v, sign, f, 1, False))
    ext = PolarizedQuiver(vertices, arrows)
    if not check_fringing(q, ext):
        raise QuiverError("auto fringing failed its own invariants")
    return Fringing(ext)


def check_fringing(base: PolarizedQuiver, extended: PolarizedQuiver) -> bool:
    """Validate a user-supplied fringing against the two defining conditions."""
    if not set(base.vertices) <= set(extended.vertices):
        return False
    base_names = {a.name: a for a in base.arrows}
    for a in base.arrows:
        b = extended.by_name.get(a.name)
        if b is None or (b.source, b.s_sign, b.target, b.t_sign, b.special) != (
                a.source, a.s_sign, a.target, a.t_sign, a.special):
            return False
    rep = validate(extended)
    if not (rep.is_skewed_gentle and rep.is_admissible):
        return False
    interior = set(base.vertices)
    for v in interior:
        ends = sum(1 for a in extended.arrows if a.source == v) + \
            sum(1 for a in extended.arrows if a.target == v)
        if ends != 4:
            return False
    for a in extended.arrows:
        if a.name in base_names:
            continue
        if a.source in interior:
            if a.target in interior or a.t_sign != 1:
                return False
        elif a.target in interior:
            if a.s_sign != 1:
                return False
        else:
            return False
    return True


def as_fringing(base: PolarizedQuiver, extended: PolarizedQuiver) -> Fringing:
    if not check_fringing(base, extended):
        raise QuiverError("extended quiver is not a fringing of the base")
    return Fringing(extended)
