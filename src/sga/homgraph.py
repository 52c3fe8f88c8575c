"""Windings of admissible words and the decorated product quiver.

Every admissible word has a blueprint quiver whose underlying graph is a
chain, a chain with loops, or a cycle.  :func:`build_H` returns it as a
frozen :class:`Winding`, the one per-word record that the product quiver,
the kiss route, the module builder and the g-vector read; it is memoised
in the quiver's store ``build_H`` and shared by every caller.  Pairs of
words produce a product quiver with three arrow families and six color
labels; its connected components classify homomorphism contributions,
kisses among them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissible import (AdmWord, doublebar_ray, hat_of, hat_ray,
                         is_projective_adm, tau_adm)
from .errors import TheoremViolation, WordError
from .quiver import Fringing, PolarizedQuiver, per_quiver
from .words import INV, ORD, Letter, compare_letters, ray_compare


@dataclass(frozen=True)
class HEdge:
    idx: int
    src: int
    tgt: int
    image: str  # arrow name in the base quiver


@dataclass(frozen=True)
class HLoop:
    key: int    # 0 at the left punctured end, 1 at the right one
    vertex: int
    image: str  # special loop name


@dataclass(frozen=True, slots=True)
class Winding:
    """The blueprint quiver of one word and what the product quiver reads of
    it: vertices by label (ascending), edges and loops by image, the boundary
    vertices (valency <= 1, a loop counting one end) and the first letters of
    the doublebar rays at each vertex, read on first use by :meth:`head`.
    Built once per word by :func:`build_H` and shared by every caller, so it
    is frozen; callers must not modify its dicts."""
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
    heads: dict[int, tuple[Letter, Letter]]    # filled by head()

    def is_boundary(self, v: int) -> bool:
        return v in self.boundary

    def head(self, q: PolarizedQuiver, v: int) -> tuple[Letter, Letter]:
        """The first letters of the doublebar rays at v towards rho = -1, +1,
        read over q (the quiver the winding was built in) on first use."""
        pair = self.heads.get(v)
        if pair is None:
            pair = self.heads[v] = (doublebar_ray(q, self.word, v, -1).first(),
                                    doublebar_ray(q, self.word, v, 1).first())
        return pair


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
        x, shape, vertices, vlabel, edges, tuple(loops),
        _group(vertices, vlabel.get),
        _group(edges, lambda e: e.image), _group(loops, lambda l: l.image),
        frozenset(v for v in vertices if ends.count(v) <= 1), {})


# -- the decorated product quiver ---------------------------------------------

PLUS, CROSS, CIRC = "+", "x", "o"


@dataclass(frozen=True)
class HArrow:
    family: str                     # '+', 'x', 'o'
    src: tuple[int, int]
    tgt: tuple[int, int]
    ypart: tuple[str, int | None]   # ('edge', idx) | ('loop', key)
    xpart: tuple[str, int | None]

    @property
    def is_loop(self) -> bool:
        return self.src == self.tgt


@dataclass
class HomGraph:
    q: PolarizedQuiver
    x: AdmWord
    y: AdmWord
    hx: Winding
    hy: Winding
    vertices: tuple[tuple[int, int], ...]
    arrows: tuple[HArrow, ...]
    red: dict[tuple[int, int], int]
    blue: dict[tuple[int, int], int]
    orange: set[tuple[int, int]]
    purple: set[tuple[int, int]]
    cyan: set[tuple[int, int]]
    teal: set[tuple[int, int]]

    def val(self, v: tuple[int, int]) -> int:
        return sum(1 for a in self.arrows if v in (a.src, a.tgt) and not a.is_loop) \
            + sum(1 for a in self.arrows if a.is_loop and a.src == v)

    def is_boundary(self, v: tuple[int, int]) -> bool:
        j, i = v
        return self.hy.is_boundary(j) or self.hx.is_boundary(i)


def build_HQ(q: PolarizedQuiver, x: AdmWord, y: AdmWord) -> HomGraph:
    """Vertices are label-matching pairs; arrows pair up equal-image edges
    and loops; colors record one-letter ray comparisons and the special
    double-connections."""
    hx, hy = build_H(q, x), build_H(q, y)
    vertices = tuple((j, i) for j in hy.vertices for i in hx.vertices
                     if hy.vlabel[j] == hx.vlabel[i])
    vset = set(vertices)
    arrows: list[HArrow] = []
    for ny in hy.edges:
        for nx in hx.edges:
            if ny.image != nx.image:
                continue
            s, t = (ny.src, nx.src), (ny.tgt, nx.tgt)
            if s in vset:
                arrows.append(HArrow(PLUS, s, t, ("edge", ny.idx), ("edge", nx.idx)))
            if q.by_name[ny.image].special:
                s2, t2 = (ny.tgt, nx.src), (ny.src, nx.tgt)
                if s2 in vset:
                    arrows.append(HArrow(CROSS, s2, t2,
                                         ("edge", ny.idx), ("edge", nx.idx)))
    for ly in hy.loops:
        for lx in hx.loops:
            if ly.image == lx.image:
                v = (ly.vertex, lx.vertex)
                if v in vset:
                    arrows.append(HArrow(PLUS, v, v, ("loop", ly.key), ("loop", lx.key)))
    for ny in hy.edges:
        for lx in hx.loops:
            if ny.image != lx.image:
                continue
            s, t = (ny.tgt, lx.vertex), (ny.src, lx.vertex)
            if s in vset:
                arrows.append(HArrow(CIRC, s, t, ("edge", ny.idx), ("loop", lx.key)))
    for ly in hy.loops:
        for nx in hx.edges:
            if ly.image != nx.image:
                continue
            s, t = (ly.vertex, nx.src), (ly.vertex, nx.tgt)
            if s in vset:
                arrows.append(HArrow(CIRC, s, t, ("loop", ly.key), ("edge", nx.idx)))

    red: dict[tuple[int, int], int] = {}
    blue: dict[tuple[int, int], int] = {}
    for (j, i) in vertices:
        r = b = 0
        for fy, fx in zip(hy.head(q, j), hx.head(q, i)):
            if fy == fx:
                continue
            c = compare_letters(q, fy, fx)
            if c is None:
                raise WordError(f"incomparable ray heads at {(j, i)}")
            if c > 0:
                r += 1
            elif c < 0:
                b += 1
        if r:
            red[(j, i)] = r
        if b:
            blue[(j, i)] = b
    orange = {a.tgt for a in arrows if a.family == CROSS}
    cyan = {a.src for a in arrows if a.family == CROSS}
    purple = {a.tgt for a in arrows if a.family == CIRC}
    teal = {a.src for a in arrows if a.family == CIRC}
    return HomGraph(q, x, y, hx, hy, vertices, tuple(arrows),
                    red, blue, orange, purple, cyan, teal)


# -- components and classification ---------------------------------------------

@dataclass(frozen=True)
class Component:
    vertices: tuple[tuple[int, int], ...]
    arrows: tuple[HArrow, ...]
    ctype: str                       # 'A' | 'Dp' | 'At' | 'Dpt'
    endpoints: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PlusComponent(Component):
    """A component of the plus-arrows: an h-line candidate with its flags."""
    real: bool
    dual_real: bool
    hline: bool
    dual_hline: bool
    kiss: bool
    dual_kiss: bool
    full_component: int              # index into ComponentReport.full


@dataclass(frozen=True)
class FullComponent(Component):
    """A component of all arrows; long when no vertex is red."""
    long: bool


def _components(vertices, arrows, rank: dict[int, int]):
    """Connected components, vertices sorted and arrows in ``rank`` order
    (an arrow's position in the repr order, keyed by ``id``)."""
    adj: dict = {v: [] for v in vertices}
    for a in arrows:
        adj[a.src].append(a)
        if a.tgt != a.src:
            adj[a.tgt].append(a)
    seen: set = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        stack, cv, ca = [v], [], set()
        seen.add(v)
        while stack:
            u = stack.pop()
            cv.append(u)
            for a in adj[u]:
                ca.add(a)
                w = a.tgt if a.src == u else a.src
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append((tuple(sorted(cv)), tuple(sorted(ca, key=lambda a: rank[id(a)]))))
    return comps


def _component_type(cv, ca) -> tuple[str, tuple]:
    loops = [a for a in ca if a.is_loop]
    nonloop = [a for a in ca if not a.is_loop]
    cyc = len(nonloop) - (len(cv) - 1)
    if loops:
        ctype = "Dp" if len(loops) == 1 else "Dpt"
    elif cyc > 0:
        ctype = "At"
    else:
        ctype = "A"
    ends = []
    for v in cv:
        valency = sum(1 for a in nonloop if v in (a.src, a.tgt)) + \
            sum(1 for a in loops if a.src == v)
        if valency <= 1:
            ends.append(v)
    return ctype, tuple(ends)


@dataclass
class ComponentReport:
    plus: list[PlusComponent]
    full: list[FullComponent]
    real_to_long: dict[int, int]


def _colored(cv, colors) -> bool:
    return any(v in colors for v in cv)


def ray_real(q: PolarizedQuiver, x: AdmWord, y: AdmWord, v) -> bool:
    """The hat-ray characterization of a real h-line through v = (j, i)."""
    j, i = v
    h = hat_of(q)
    for delta in (-1, 1):
        for rho in (-1, 1):
            ry = hat_ray(q, y, j, rho, delta)
            rx = hat_ray(q, x, i, rho, delta)
            if ray_compare(h, ry, rx)[0] not in ("<", "="):
                return False
    return True


def ray_long(q: PolarizedQuiver, x: AdmWord, y: AdmWord, v) -> bool:
    """The doublebar-ray characterization of a long h-line through v."""
    j, i = v
    for rho in (-1, 1):
        ry = doublebar_ray(q, y, j, rho)
        rx = doublebar_ray(q, x, i, rho)
        if ray_compare(q, ry, rx)[0] not in ("<", "="):
            return False
    return True


def classify_components(g: HomGraph) -> ComponentReport:
    """Flags per component, with the ray characterizations of real and long
    re-derived at a sample vertex of each component."""
    plus_arrows = [a for a in g.arrows if a.family == PLUS]
    po_arrows = [a for a in g.arrows if a.family in (PLUS, CIRC)]
    rank = {id(a): k for k, a in enumerate(sorted(g.arrows, key=repr))}
    comps_plus = _components(g.vertices, plus_arrows, rank)
    comps_po = _components(g.vertices, po_arrows, rank)
    comps_full = _components(g.vertices, g.arrows, rank)
    po_of = {}
    full_of = {}
    for ci, (cv, _) in enumerate(comps_po):
        for v in cv:
            po_of[v] = ci
    for ci, (cv, _) in enumerate(comps_full):
        for v in cv:
            full_of[v] = ci

    q, x, y = g.q, g.x, g.y
    plus_out = []
    for cv, ca in comps_plus:
        ctype, ends = _component_type(cv, ca)
        po_cv = comps_po[po_of[cv[0]]][0]
        is_real = not (_colored(cv, g.red) or _colored(cv, g.orange)
                       or _colored(cv, g.purple))
        is_dual_real = not (_colored(cv, g.blue) or _colored(cv, g.cyan)
                            or _colored(cv, g.teal))
        is_h = not _colored(po_cv, g.red) and not _colored(po_cv, g.orange)
        is_dual_h = not _colored(po_cv, g.blue) and not _colored(po_cv, g.cyan)
        interior = not any(g.is_boundary(v) for v in ends)
        if ray_real(q, x, y, cv[0]) != is_real:
            raise TheoremViolation(f"real h-line characterization differs at {cv[0]}")
        plus_out.append(PlusComponent(cv, ca, ctype, ends, is_real, is_dual_real,
                                      is_h, is_dual_h, is_real and interior,
                                      is_dual_real and interior, full_of[cv[0]]))
    full_out = []
    for cv, ca in comps_full:
        ctype, ends = _component_type(cv, ca)
        is_long = not _colored(cv, g.red)
        if ray_long(q, x, y, cv[0]) != is_long:
            raise TheoremViolation(f"long h-line characterization differs at {cv[0]}")
        full_out.append(FullComponent(cv, ca, ctype, ends, is_long))

    real_to_long = {pi: c.full_component for pi, c in enumerate(plus_out) if c.real}
    return ComponentReport(plus_out, full_out, real_to_long)


def generalized_diagonal(g: HomGraph, comp: PlusComponent) -> bool:
    """Some vertex of the component pairs equal doublebar rays on both sides."""
    q = g.q
    return any(all(ray_compare(q, doublebar_ray(q, g.y, j, rho),
                               doublebar_ray(q, g.x, i, rho))[0] == "="
                   for rho in (-1, 1))
               for (j, i) in comp.vertices)


def real_long_bijection(g: HomGraph, report: ComponentReport | None = None):
    """Pair each real h-line with its enclosing long h-line; the pairing must
    be a type-preserving bijection, else the structure theorem failed."""
    report = report or classify_components(g)
    longs = [fi for fi, c in enumerate(report.full) if c.long]
    pairs = {}
    for pi, fi in report.real_to_long.items():
        if fi in pairs.values():
            raise TheoremViolation("two real h-lines inside one long h-line")
        if not report.full[fi].long:
            raise TheoremViolation("real h-line inside a non-long component")
        if report.plus[pi].ctype != report.full[fi].ctype:
            raise TheoremViolation("real/long h-line types differ")
        pairs[pi] = fi
    if sorted(pairs.values()) != sorted(longs):
        raise TheoremViolation("long h-line without a real h-line")
    return pairs


# -- triples --------------------------------------------------------------------

def _check_property_q(g: HomGraph, comp: PlusComponent) -> bool:
    """Every ordinary arrow of H(x) ending at the image of a component
    endpoint must be hit by a component arrow ending there (top condition)."""
    for v in comp.endpoints:
        _, i = v
        covered = {a.xpart for a in comp.arrows if a.tgt == v}
        for e in g.hx.edges:
            if e.tgt == i and ("edge", e.idx) not in covered:
                return False
    return True


def _check_property_s(g: HomGraph, comp: PlusComponent) -> bool:
    """Dually on the second word: arrows starting at the image must lift
    (socle condition)."""
    for v in comp.endpoints:
        j, _ = v
        covered = {a.ypart for a in comp.arrows if a.src == v}
        for e in g.hy.edges:
            if e.src == j and ("edge", e.idx) not in covered:
                return False
    return True


def triples(q: PolarizedQuiver, x: AdmWord, y: AdmWord,
            report: ComponentReport | None = None,
            g: HomGraph | None = None) -> list[PlusComponent]:
    """H-triples, realized as the real h-lines (a vertex (j, i) projects to
    j in y and to i in x).

    Properties (q) and (s) are checked explicitly on every endpoint; their
    failure would contradict the triple/real-h-line correspondence.
    """
    g = g or build_HQ(q, x, y)
    report = report or classify_components(g)
    out = []
    for comp in report.plus:
        if not comp.real:
            continue
        if not _check_property_q(g, comp):
            raise TheoremViolation("real h-line fails property (q)")
        if not _check_property_s(g, comp):
            raise TheoremViolation("real h-line fails property (s)")
        out.append(comp)
    return out


# -- kisses and fringing -----------------------------------------------------------

def tau_f(fr: Fringing, x: AdmWord) -> AdmWord:
    """AR translate inside the fringed quiver (never projective there).

    Memoised per word in the extended quiver's store, so repeated calls
    return the identical object and the ray stores hit by identity.
    """
    store = fr.extended.store("tau_f")
    tx = store.get(x)
    if tx is None:
        tx = store[x] = tau_adm(fr.extended, x)
    return tx


def kiss_sites(q: PolarizedQuiver, x: AdmWord, y: AdmWord
               ) -> tuple[tuple[str, tuple[int, int]], ...]:
    """The ctype and least vertex of each kiss of ``build_HQ(q, x, y)``, in
    least-vertex order, without building the product quiver.

    A union-find over the label-matching pairs (j, i), linked by the
    equal-image edge pairs and loop pairs, gives the plus components; adding
    the cross and circle links gives the full ones.  Red comes from the
    doublebar first letters, orange and purple are the targets of cross and
    circle links.  As in :func:`classify_components`, the ray
    characterization of real is checked at the least vertex of every plus
    component and that of long at the least vertex of every full component.
    """
    tx, ty = build_H(q, x), build_H(q, y)
    m = max(tx.vertices, default=0) + 1   # (j, i) is the integer j*m + i
    verts = sorted(j * m + i for lab, js in ty.by_label.items()
                   for i in tx.by_label.get(lab, ()) for j in js)
    parent = {v: v for v in verts}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    plus, loops, cross, circ = [], [], [], []
    for image, eys in ty.edges_by_image.items():
        exs = tx.edges_by_image.get(image, ())
        special = bool(exs) and q.by_name[image].special
        for ny in eys:
            for nx in exs:
                s = ny.src * m + nx.src
                if s in parent:
                    plus.append((s, ny.tgt * m + nx.tgt))
                if special:
                    s = ny.tgt * m + nx.src
                    if s in parent:
                        cross.append((s, ny.src * m + nx.tgt))
    for image, lys in ty.loops_by_image.items():
        for ly in lys:
            for lx in tx.loops_by_image.get(image, ()):
                v = ly.vertex * m + lx.vertex
                if v in parent:
                    loops.append(v)
            for nx in tx.edges_by_image.get(image, ()):
                s = ly.vertex * m + nx.src
                if s in parent:
                    circ.append((s, ly.vertex * m + nx.tgt))
    for image, lxs in tx.loops_by_image.items():
        for ny in ty.edges_by_image.get(image, ()):
            for lx in lxs:
                s = ny.tgt * m + lx.vertex
                if s in parent:
                    circ.append((s, ny.src * m + lx.vertex))

    deg = dict.fromkeys(verts, 0)
    links = []
    for s, t in plus:
        if s == t:
            loops.append(s)
        else:
            links.append((s, t))
            deg[s] += 1
            deg[t] += 1
            parent[find(s)] = find(t)
    for v in loops:
        deg[v] += 1

    red = []
    for v in verts:
        j, i = divmod(v, m)
        hit = False
        for fy, fx in zip(ty.head(q, j), tx.head(q, i)):
            if fy == fx:
                continue
            c = compare_letters(q, fy, fx)
            if c is None:
                raise WordError(f"incomparable ray heads at {(j, i)}")
            hit = hit or c > 0
        if hit:
            red.append(v)

    order, size = [], {}
    for v in verts:
        r = find(v)
        if r in size:
            size[r] += 1
        else:
            size[r] = 1
            order.append((r, v))
    cycles = {r: 1 - n for r, n in size.items()}   # arrows - (vertices - 1)
    for s, _ in links:
        cycles[find(s)] += 1
    nloops = dict.fromkeys(size, 0)
    for v in loops:
        nloops[find(v)] += 1
    colored = {find(v) for v in red}
    colored.update(find(t) for _, t in cross)
    colored.update(find(t) for _, t in circ)
    at_boundary = {find(v) for v in verts if deg[v] <= 1 and
                   (v // m in ty.boundary or v % m in tx.boundary)}

    out = []
    for r, v in order:
        real = r not in colored
        vt = divmod(v, m)
        if ray_real(q, x, y, vt) != real:
            raise TheoremViolation(f"real h-line characterization differs at {vt}")
        if real and r not in at_boundary:
            k = nloops[r]
            out.append(("Dp" if k == 1 else "Dpt" if k else
                        "At" if cycles[r] > 0 else "A", vt))

    for s, t in cross + circ:
        parent[find(s)] = find(t)
    red_full = {find(v) for v in red}
    seen = set()
    for v in verts:
        r = find(v)
        if r in seen:
            continue
        seen.add(r)
        vt = divmod(v, m)
        if ray_long(q, x, y, vt) != (r not in red_full):
            raise TheoremViolation(f"long h-line characterization differs at {vt}")
    return tuple(out)


def kiss_types(q: PolarizedQuiver, x: AdmWord, y: AdmWord) -> tuple[str, ...]:
    """The ctype of each kiss, in least-vertex order (see :func:`kiss_sites`)."""
    return tuple(t for t, _ in kiss_sites(q, x, y))


def _count_types(types) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in types:
        counts[t] = counts.get(t, 0) + 1
    return counts


def kiss_transport(q: PolarizedQuiver, fr: Fringing, x: AdmWord,
                   y: AdmWord) -> dict[str, int]:
    """Count kisses between the fringed translates, by type.

    When y is not projective the counts must agree with the real h-lines
    towards the plain translate of y; a mismatch is a theorem violation.
    """
    counts = _count_types(kiss_types(fr.extended, tau_f(fr, x), tau_f(fr, y)))
    if is_projective_adm(q, y):
        if counts:
            raise TheoremViolation("kisses against a projective translate")
        return counts
    rep2 = classify_components(build_HQ(q, x, tau_adm(q, y)))
    by_type2 = _count_types(c.ctype for c in rep2.plus if c.real)
    if by_type2 != counts:
        raise TheoremViolation(
            f"kiss transport mismatch: {counts} vs h-triples {by_type2}")
    return counts


# -- DOT export -----------------------------------------------------------------

_STYLE = {PLUS: "solid", CROSS: "dashed", CIRC: "dotted"}


def to_dot(g: HomGraph) -> str:
    lines = ["digraph HQ {"]
    for v in sorted(g.vertices):
        colors = []
        colors.extend(["red"] * g.red.get(v, 0))
        colors.extend(["blue"] * g.blue.get(v, 0))
        for name, s in (("orange", g.orange), ("purple", g.purple),
                        ("cyan", g.cyan), ("teal", g.teal)):
            if v in s:
                colors.append(name)
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
