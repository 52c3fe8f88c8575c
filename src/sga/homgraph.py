"""Windings of admissible words and the decorated product quiver.

Every admissible word has a blueprint quiver whose underlying graph is a
chain, a chain with loops, or a cycle.  :func:`build_H` returns it as a
frozen :class:`Winding`, the one per-word record that the product quiver,
the kiss route, the module builder and the g-vector read; it is memoised
in the quiver's store ``build_H`` and shared by every caller.  Pairs of
words produce a product quiver with three arrow families and six color
labels, four of them the ends of its cross and circle arrows; its connected
components classify homomorphism contributions, kisses among them, which
:mod:`sga.kisses` finds again from the windings alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .admissible import AdmWord, doublebar_ray, hat_of, hat_ray, reading
from .errors import TheoremViolation, WordError
from .quiver import PolarizedQuiver, per_quiver
from .words import INV, ORD, Ray, compare_letters, label_rays

if TYPE_CHECKING:
    from fractions import Fraction


class HEdge(NamedTuple):
    idx: int
    src: int
    tgt: int
    image: str  # arrow name in the base quiver


class HLoop(NamedTuple):
    key: int    # 0 at the left punctured end, 1 at the right one
    vertex: int
    image: str  # special loop name


class Winding(NamedTuple):
    """The blueprint quiver of one word over the quiver q it was built in,
    and what the product quiver reads of it: vertices by label (ascending),
    edges and loops by image, the boundary vertices (valency <= 1, a loop
    counting one end) and, per vertex, the interned id of the doublebar
    first letters and the labels of the rays, and per label its vertices
    with their head ids.  These four are filled by one first-use pass
    (:meth:`read_rays`), for every vertex at once.  Built once per word by
    :func:`build_H` and shared by every caller, so it is frozen; callers
    must not modify its dicts."""
    q: PolarizedQuiver
    word: AdmWord
    shape: str                                 # 'A' | 'Dp' | 'At' | 'Dpt'
    vertices: tuple[int, ...]
    vlabel: dict[int, str]
    edges: tuple[HEdge, ...]
    loops: tuple[HLoop, ...]
    by_label: dict[str, tuple[int, ...]]
    edges_by_image: dict[str, tuple[HEdge, ...]]
    loops_by_image: dict[str, tuple[HLoop, ...]]
    boundary: frozenset[int]
    head_ids: dict[int, int]                   # filled by read_rays()
    label_heads: dict[str, tuple[tuple[int, int], ...]]
    hat_labels: dict[int, tuple[tuple[int, ...], tuple[int | Fraction, ...]]]
    bar_labels: dict[int, tuple[tuple[int, ...], tuple[int | Fraction, ...]]]

    def doublebar(self, v: int) -> tuple[Ray, Ray]:
        """The doublebar rays at v towards rho = -1, +1."""
        return (doublebar_ray(self.q, self.word, v, -1),
                doublebar_ray(self.q, self.word, v, 1))

    def hat(self, v: int, rho: int, delta: int) -> Ray:
        """The hat ray at v towards rho with punctured letters oriented by
        delta."""
        return hat_ray(self.q, self.word, v, rho, delta)

    def read_rays(self) -> None:
        """The first-use pass: read every hat ray of the word (over the
        companion quiver) and every doublebar ray (over q) from its two
        readings (:meth:`admissible.Reading.rays`), label each reading's
        rays in one merge (:func:`words.label_rays`), and fill, for every
        vertex, ``head_ids`` (the id of the pair of first letters of the
        doublebar rays, interned in q's store ``head_ids``: equal pairs get
        equal ids), ``hat_labels`` (the slot ids and labels of the four hat
        rays, in the order of the checks of :func:`ray_real`) and
        ``bar_labels`` (those of the two doublebar rays), and for every
        label ``label_heads`` (its vertices, ascending, with their head
        ids).  The readers below call it on a miss."""
        q, vs, heads = self.q, self.vertices, self.head_ids
        bars = reading(q, self.word, False).rays(vs)
        sids, marks = zip(*label_rays(hat_of(q), reading(q, self.word, True).rays(vs)))
        self.hat_labels.update(zip(vs, [(sids[k:k + 4], marks[k:k + 4])
                                        for k in range(0, len(sids), 4)]))
        sids, marks = zip(*label_rays(q, bars))
        self.bar_labels.update(zip(vs, [(sids[k:k + 2], marks[k:k + 2])
                                        for k in range(0, len(sids), 2)]))
        ids = q.store("head_ids")
        for k, v in enumerate(vs):
            heads[v] = ids.setdefault((bars[2 * k].first(), bars[2 * k + 1].first()), len(ids))
        for lab, lvs in self.by_label.items():
            self.label_heads[lab] = tuple([(v, heads[v]) for v in lvs])

    def head_id(self, v: int) -> int:
        """The head id of v (:meth:`read_rays`)."""
        hid = self.head_ids.get(v)
        if hid is None:
            self.read_rays()
            hid = self.head_ids[v]
        return hid

    def heads(self, lab: str) -> tuple[tuple[int, int], ...]:
        """The vertices of label lab, ascending, each with its head id
        (:meth:`read_rays`)."""
        pairs = self.label_heads.get(lab)
        if pairs is None:
            self.read_rays()
            pairs = self.label_heads[lab]
        return pairs

    def ray_labels(self, v: int, hat: bool) -> tuple[tuple[int, ...], tuple[int | Fraction, ...]]:
        """The slot ids and the labels of the four hat rays at v, kept in
        ``hat_labels``, or of the two doublebar rays, kept in
        ``bar_labels`` (:meth:`read_rays`); the ray checks look the kept
        labels up themselves and call this on a miss."""
        kept = self.hat_labels if hat else self.bar_labels
        labels = kept.get(v)
        if labels is None:
            self.read_rays()
            labels = kept[v]
        return labels


def _group(items, key) -> dict:
    out: dict = {}
    for it in items:
        out.setdefault(key(it), []).append(it)
    return {k: tuple(v) for k, v in out.items()}


@per_quiver
def build_H(q: PolarizedQuiver, x: AdmWord) -> Winding:
    """The blueprint quiver of an admissible word, memoised per word in q's
    store ``build_H``.

    String letters give chain edges oriented towards smaller index when
    direct; punctured ends carry special loops; bands close up cyclically.
    """
    w = x.letters
    loops: list[HLoop] = []
    if x.wtype == "b":
        vertices = tuple(range(len(w)))
        chain = [(i, (i + 1) % len(w)) for i in vertices]
        shape = "At"
    else:
        vertices = tuple(range(1, len(w)))
        chain = [(i, i + 1) for i in vertices[:-1]]
        if x.wtype in ("pu", "pp"):
            loops.append(HLoop(0, 1, q.special_loop_at(w[0].vertex).name))
        if x.wtype in ("up", "pp"):
            loops.append(HLoop(1, vertices[-1], q.special_loop_at(w[-1].vertex).name))
        shape = {0: "A", 1: "Dp", 2: "Dpt"}[len(loops)]
    vlabel = {i: q.by_name[w[i].name].target if w[i].kind == ORD else
              q.by_name[w[i].name].source if w[i].kind == INV else w[i].vertex
              for i in vertices}
    edges = tuple(HEdge(i, j, i, w[i].name) if w[i].kind == ORD else
                  HEdge(i, i, j, w[i].name) for i, j in chain)
    ends = [v for e in edges for v in {e.src, e.tgt}] + [l.vertex for l in loops]
    return Winding(
        q, x, shape, vertices, vlabel, edges, tuple(loops),
        _group(vertices, vlabel.get),
        _group(edges, lambda e: e.image), _group(loops, lambda l: l.image),
        frozenset(v for v in vertices if ends.count(v) <= 1), {}, {}, {}, {})


# -- the decorated product quiver ---------------------------------------------

def red_blue(hy: Winding, j: int, hx: Winding, i: int,
             key: tuple[int, int]) -> tuple[int, int]:
    """(r, b) at the vertex (j, i) of a product quiver: how many of the two
    doublebar first letters of y at j lie above, and how many below, those
    of x at i.  ``key`` is the pair ``(hy.head_id(j), hx.head_id(i))``,
    which the caller already holds and has found unequal: equal heads
    colour nothing, so the callers skip them.  Memoised in the store
    ``red_blue`` of the windings' quiver, keyed by it; incomparable heads
    are never stored, so they raise on every call."""
    q = hx.q
    store = q.store("red_blue")
    rb = store.get(key)
    if rb is None:
        r = b = 0
        for ry, rx in zip(hy.doublebar(j), hx.doublebar(i)):
            fy, fx = ry.first(), rx.first()
            if fy == fx:
                continue
            c = compare_letters(q, fy, fx)
            if c is None:
                raise WordError(f"incomparable ray heads at {(j, i)}")
            if c > 0:
                r += 1
            else:
                b += 1
        rb = store[key] = (r, b)
    return rb


PLUS, CROSS, CIRC = "+", "x", "o"


class HArrow(NamedTuple):
    family: str                     # '+', 'x', 'o'
    src: tuple[int, int]
    tgt: tuple[int, int]
    ypart: tuple[str, int | None]   # ('edge', idx) | ('loop', key)
    xpart: tuple[str, int | None]


class HomGraph(NamedTuple):
    """The product quiver of (x, y), over the windings hx and hy.  Of its six
    colours it stores red and blue; orange and cyan are the targets and
    sources of its cross arrows, purple and teal those of its circle arrows."""
    hx: Winding
    hy: Winding
    vertices: tuple[tuple[int, int], ...]
    arrows: tuple[HArrow, ...]
    red: dict[tuple[int, int], int]
    blue: dict[tuple[int, int], int]


def build_HQ(q: PolarizedQuiver, x: AdmWord, y: AdmWord) -> HomGraph:
    """Vertices are label-matching pairs; arrows pair up equal-image edges
    and loops; red and blue record one-letter ray comparisons.  The ends of
    equal-image edges and loops carry equal labels, so every arrow joins
    two vertices."""
    hx, hy = build_H(q, x), build_H(q, y)
    vertices: list[tuple[int, int]] = []
    red, blue = {}, {}                  # (j, i) -> count
    for j in hy.vertices:
        ixs = hx.by_label.get(hy.vlabel[j])
        if ixs is None:
            continue
        head_y = hy.head_id(j)
        for i in ixs:
            v = (j, i)
            vertices.append(v)
            head_x = hx.head_id(i)
            if head_y == head_x:            # equal heads colour nothing
                continue
            r, b = red_blue(hy, j, hx, i, (head_y, head_x))
            if r:
                red[v] = r
            if b:
                blue[v] = b
    arrows: list[HArrow] = []
    for ny in hy.edges:
        exs = hx.edges_by_image.get(ny.image, ())
        special = bool(exs) and q.by_name[ny.image].special
        for nx in exs:
            arrows.append(HArrow(PLUS, (ny.src, nx.src), (ny.tgt, nx.tgt),
                                 ("edge", ny.idx), ("edge", nx.idx)))
            if special:
                arrows.append(HArrow(CROSS, (ny.tgt, nx.src), (ny.src, nx.tgt),
                                     ("edge", ny.idx), ("edge", nx.idx)))
    for ly in hy.loops:
        for lx in hx.loops_by_image.get(ly.image, ()):
            v = (ly.vertex, lx.vertex)
            arrows.append(HArrow(PLUS, v, v, ("loop", ly.key), ("loop", lx.key)))
    for ny in hy.edges:
        for lx in hx.loops_by_image.get(ny.image, ()):
            arrows.append(HArrow(CIRC, (ny.tgt, lx.vertex), (ny.src, lx.vertex),
                                 ("edge", ny.idx), ("loop", lx.key)))
    for ly in hy.loops:
        for nx in hx.edges_by_image.get(ly.image, ()):
            arrows.append(HArrow(CIRC, (ly.vertex, nx.src), (ly.vertex, nx.tgt),
                                 ("loop", ly.key), ("edge", nx.idx)))
    return HomGraph(hx, hy, tuple(vertices), tuple(arrows), red, blue)


# -- components and classification ---------------------------------------------

class PlusComponent(NamedTuple):
    """A component of the plus-arrows: an h-line candidate with its flags."""
    vertices: tuple[tuple[int, int], ...]
    arrows: tuple[HArrow, ...]
    ctype: str                       # 'A' | 'Dp' | 'At' | 'Dpt'
    endpoints: tuple[tuple[int, int], ...]
    real: bool
    dual_real: bool
    hline: bool
    dual_hline: bool
    kiss: bool
    dual_kiss: bool
    full_component: int              # index into ComponentReport.full


class FullComponent(NamedTuple):
    """A component of all arrows; long when no vertex is red."""
    vertices: tuple[tuple[int, int], ...]
    arrows: tuple[HArrow, ...]
    ctype: str
    endpoints: tuple[tuple[int, int], ...]
    long: bool


class ComponentReport(NamedTuple):
    plus: list[PlusComponent]
    full: list[FullComponent]


# (rho, delta) of the four hat comparisons, in order
_HAT_CHECKS = tuple((rho, delta) for delta in (-1, 1) for rho in (-1, 1))


def ray_real(hx: Winding, hy: Winding, v) -> bool:
    """The hat-ray characterization of a real h-line through v = (j, i) of
    the product quiver of (x, y), read from their windings hx and hy (over
    one quiver) and compared over the companion quiver by label: a differing
    slot id marks a pair of incomparable rays.  It runs at every component
    of every pair, so the four label comparisons are written out."""
    j, i = v
    cy, (a, b, c, d) = hy.hat_labels.get(j) or hy.ray_labels(j, True)
    cx, (e, f, g, h) = hx.hat_labels.get(i) or hx.ray_labels(i, True)
    return cy == cx and a <= e and b <= f and c <= g and d <= h


def ray_long(hx: Winding, hy: Winding, v) -> bool:
    """The doublebar-ray characterization of a long h-line through v."""
    j, i = v
    cy, (a, b) = hy.bar_labels.get(j) or hy.ray_labels(j, False)
    cx, (c, d) = hx.bar_labels.get(i) or hx.ray_labels(i, False)
    return cy == cx and a <= c and b <= d


def _split(verts, root, arrows, n: int) -> list[tuple]:
    """Per component of a snapshot ``root`` of the n vertices, in
    least-vertex order: its root and least position, vertices, arrows, type
    and endpoints (valency <= 1, a loop counting one end)."""
    ks, arcs, loops, valency = {}, {}, {}, [0] * n
    for k, r in enumerate(root):
        if r in ks:
            ks[r].append(k)
        else:
            ks[r], arcs[r], loops[r] = [k], [], 0
    for s, t, a in arrows:
        arcs[root[s]].append(a)
        valency[s] += 1
        if s == t:
            loops[root[s]] += 1
        else:
            valency[t] += 1
    return [(r, kr[0], tuple([verts[k] for k in kr]), tuple(arcs[r]),
             ("Dp" if loops[r] == 1 else "Dpt") if loops[r] else
             "At" if len(arcs[r]) >= len(kr) else "A",
             tuple([verts[k] for k in kr if valency[k] <= 1]))
            for r, kr in ks.items()]


def classify_components(g: HomGraph) -> ComponentReport:
    """Flags per component, with the ray characterizations of real and long
    re-derived at the least vertex of each component.

    One union-find over the positions of ``g.vertices`` (ascending) links
    the plus arrows, then the circle arrows, then the cross arrows, with a
    snapshot of the roots after each stage that links (else the last one):
    the plus components, those of the plus and circle arrows (where the
    h-line flags are read) and the full ones.  A component has a flag unless
    its root is the root of a vertex whose colour spoils it.
    """
    hx, hy, verts = g.hx, g.hy, g.vertices
    n = len(verts)
    at = {v: k for k, v in enumerate(verts)}
    parent = list(range(n))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    every, plus, circ, cross = [], [], [], []          # every in build order
    for a in g.arrows:
        e = (at[a.src], at[a.tgt], a)
        every.append(e)
        (plus if a.family == PLUS else circ if a.family == CIRC else cross).append(e)
    roots: list[list[int]] = []
    for links in (plus, circ, cross):
        for s, t, _ in links:
            parent[find(s)] = find(t)
        roots.append([find(k) for k in range(n)] if links or not roots else roots[-1])
    plus_root, po_root, full_root = roots

    # red spoils real, h-line and long, blue dual real and dual h-line; a
    # cross arrow (s, t) spoils real and h-line at t (orange) and their duals
    # at s (cyan); a circle arrow real at t (purple) and dual real at s (teal)
    not_real, not_dual_real, not_h, not_dual_h, not_long = set(), set(), set(), set(), set()
    for v in g.red:
        k = at[v]
        not_real.add(plus_root[k])
        not_h.add(po_root[k])
        not_long.add(full_root[k])
    for v in g.blue:
        k = at[v]
        not_dual_real.add(plus_root[k])
        not_dual_h.add(po_root[k])
    for s, t, _ in cross:
        not_real.add(plus_root[t])
        not_h.add(po_root[t])
        not_dual_real.add(plus_root[s])
        not_dual_h.add(po_root[s])
    for s, t, _ in circ:
        not_real.add(plus_root[t])
        not_dual_real.add(plus_root[s])

    plus = _split(verts, plus_root, plus, n)
    full = plus if full_root is plus_root else _split(verts, full_root, every, n)
    full_index = {c[0]: fi for fi, c in enumerate(full)}
    bx, by = hx.boundary, hy.boundary
    plus_out = []
    for r, k, cv, ca, ctype, ends in plus:
        is_real, is_dual_real = r not in not_real, r not in not_dual_real
        if ray_real(hx, hy, cv[0]) != is_real:
            raise TheoremViolation(f"real h-line characterization differs at {cv[0]}")
        interior = not any([j in by or i in bx for j, i in ends])
        po = po_root[k]
        plus_out.append(PlusComponent(cv, ca, ctype, ends, is_real, is_dual_real,
                                      po not in not_h, po not in not_dual_h,
                                      is_real and interior, is_dual_real and interior,
                                      full_index[full_root[k]]))
    full_out = []
    for r, _, cv, ca, ctype, ends in full:
        is_long = r not in not_long
        if ray_long(hx, hy, cv[0]) != is_long:
            raise TheoremViolation(f"long h-line characterization differs at {cv[0]}")
        full_out.append(FullComponent(cv, ca, ctype, ends, is_long))
    return ComponentReport(plus_out, full_out)


def generalized_diagonal(g: HomGraph, comp: PlusComponent) -> bool:
    """Some vertex of the component pairs equal doublebar rays on both sides."""
    return any(g.hy.ray_labels(j, False) == g.hx.ray_labels(i, False)
               for (j, i) in comp.vertices)


def real_long_bijection(g: HomGraph, report: ComponentReport):
    """Pair each real h-line of g's report with its enclosing long h-line;
    the pairing must be a type-preserving bijection, else the structure
    theorem failed."""
    longs = [fi for fi, c in enumerate(report.full) if c.long]
    pairs = {}
    for pi, c in enumerate(report.plus):
        if not c.real:
            continue
        fi = c.full_component
        if fi in pairs.values():
            raise TheoremViolation("two real h-lines inside one long h-line")
        if not report.full[fi].long:
            raise TheoremViolation("real h-line inside a non-long component")
        if c.ctype != report.full[fi].ctype:
            raise TheoremViolation("real/long h-line types differ")
        pairs[pi] = fi
    if sorted(pairs.values()) != sorted(longs):
        raise TheoremViolation("long h-line without a real h-line")
    return pairs


# -- DOT export -----------------------------------------------------------------

_STYLE = {PLUS: "solid", CROSS: "dashed", CIRC: "dotted"}


def to_dot(g: HomGraph) -> str:
    ends = {name: set() for name in ("orange", "purple", "cyan", "teal")}
    for a in g.arrows:
        if a.family != PLUS:
            ends["orange" if a.family == CROSS else "purple"].add(a.tgt)
            ends["cyan" if a.family == CROSS else "teal"].add(a.src)
    lines = ["digraph HQ {"]
    for v in sorted(g.vertices):
        colors = ["red"] * g.red.get(v, 0) + ["blue"] * g.blue.get(v, 0)
        colors.extend(name for name, s in ends.items() if v in s)
        label = f"({v[0]},{v[1]})"
        attr = f' [label="{label}"'
        if colors:
            attr += f' color="{colors[0]}" xlabel="{("," .join(colors))}"'
        attr += "]"
        lines.append(f'  "{label}"{attr};')
    for a in sorted(g.arrows, key=repr):
        s = f"({a.src[0]},{a.src[1]})"
        t = f"({a.tgt[0]},{a.tgt[1]})"
        lines.append(f'  "{s}" -> "{t}" [style={_STYLE[a.family]}];')
    lines.append("}")
    return "\n".join(lines)


def winding_to_dot(h: Winding) -> str:
    lines = ["digraph H {"]
    for v in h.vertices:
        lines.append(f'  "{v}" [label="{v}:{h.vlabel[v]}"];')
    for e in h.edges:
        lines.append(f'  "{e.src}" -> "{e.tgt}" [label="{e.image}"];')
    for l in h.loops:
        lines.append(f'  "{l.vertex}" -> "{l.vertex}" [label="{l.image}" style=dotted];')
    lines.append("}")
    return "\n".join(lines)
