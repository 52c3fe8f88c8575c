"""Kisses without the product quiver: the second kiss route.

:func:`kiss_sites` reads the kisses of (x, y) and of (y, x) off the windings
in one pass; ``sga selftest`` checks it against the first route,
``homgraph.classify_components``.  Of ``homgraph`` it reads only the pieces
both routes share: ``build_H``, ``red_blue``, ``ray_real`` and ``ray_long``.
"""

from __future__ import annotations

from . import homgraph
from .admissible import AdmWord
from .errors import TheoremViolation
from .quiver import PolarizedQuiver


Sites = tuple[tuple[str, tuple[int, int]], ...]


def kiss_sites(q: PolarizedQuiver, x: AdmWord, y: AdmWord) -> tuple[Sites, Sites]:
    """The kisses of ``build_HQ(q, x, y)`` and of ``build_HQ(q, y, x)``: for
    each, the ctype and least vertex of every kiss, in least-vertex order.
    One pass over the label-matching pairs (j, i) of (x, y) gives both
    halves, without building either product quiver.

    A union-find over the pairs, linked by the equal-image edge pairs as
    they are found, gives the plus components; adding the cross and circle
    links gives the full ones.  It hangs the larger root under the smaller,
    so a root is the least vertex of its component, and one ascending sweep
    (:func:`_sweep`) resolves every root; a plus link between two vertices
    already joined closes a cycle, so its component is cyclic (it has as
    many plus links as vertices, or more).  The product quiver of (y, x) is
    the transpose of that of (x, y): the same components, red and blue
    swapped, and the targets of cross and circle links (orange, purple)
    swapped with their sources (cyan, teal).  So a plus component away from
    the boundary is a kiss of (x, y) when it has no red, orange or purple
    vertex, and one of (y, x), at its least vertex (i, j) in the transposed
    order, when it has no blue, cyan or teal vertex.  As in
    :func:`classify_components`, the ray characterization of real is
    checked at the least vertex of every plus component and that of long
    at the least vertex of every full component, in both directions.
    """
    hx, hy = homgraph.build_H(q, x), homgraph.build_H(q, y)
    m = max(hx.vertices, default=0) + 1   # (j, i) is the integer j*m + i
    n = max(hy.vertices, default=0) + 1   # and (i, j) is i*n + j
    parent: dict[int, int] = {}
    transposed: dict[int, int] = {}       # j*m + i -> i*n + j
    red, blue = [], []
    for lab in hy.by_label:
        if lab not in hx.by_label:
            continue
        heads_x = hx.label_heads.get(lab) or hx.heads(lab)
        for j, head_y in hy.label_heads.get(lab) or hy.heads(lab):
            for i, head_x in heads_x:
                v = j * m + i
                parent[v] = v
                transposed[v] = i * n + j
                if head_y == head_x:     # equal heads colour nothing
                    continue
                r, b = homgraph.red_blue(hy, j, hx, i, (head_y, head_x))
                if r:
                    red.append(v)
                if b:
                    blue.append(v)

    # plus links, each linked when found; one that closes a cycle is kept
    closing, loops, links = [], [], []     # links: cross and circle, (s, t)
    for image, eys in hy.edges_by_image.items():
        exs = hx.edges_by_image.get(image)
        if exs is None:
            continue
        special = q.by_name[image].special
        for _, ys, yt, _ in eys:          # HEdge(idx, src, tgt, image)
            ys, yt = ys * m, yt * m
            for _, xs, xt, _ in exs:
                s = ys + xs
                if s in parent and not _link(parent, s, yt + xt):
                    closing.append(s)
                if special:
                    s = yt + xs
                    if s in parent:
                        links.append((s, ys + xt))
    for image, lys in hy.loops_by_image.items():
        lxs = hx.loops_by_image.get(image, ())
        exs = hx.edges_by_image.get(image, ())
        for _, ly, _ in lys:
            ly *= m
            loops += [ly + lx for _, lx, _ in lxs if ly + lx in parent]
            links += [(ly + xs, ly + xt) for _, xs, xt, _ in exs if ly + xs in parent]
    for image, lxs in hx.loops_by_image.items():
        for _, ys, yt, _ in hy.edges_by_image.get(image, ()):
            ys, yt = ys * m, yt * m
            links += [(yt + lx, ys + lx) for _, lx, _ in lxs if yt + lx in parent]

    verts = sorted(parent)
    least = _sweep(parent, verts, transposed)
    red_side = {parent[v] for v in red}
    blue_side = {parent[v] for v in blue}
    for s, t in links:
        red_side.add(parent[t])
        blue_side.add(parent[s])
    cyclic = {parent[v] for v in closing}
    nloops: dict[int, int] = {}
    for v in loops:
        r = parent[v]
        nloops[r] = nloops.get(r, 0) + 1
    # a boundary vertex of either winding carries one edge or loop, so at
    # most one plus link or loop of the product meets it: an end of its component
    at_boundary = {parent[j * m + i] for j in hy.boundary
                   for i in hx.by_label.get(hy.vlabel[j], ())}
    at_boundary.update(parent[j * m + i] for i in hx.boundary
                       for j in hy.by_label.get(hx.vlabel[i], ()))

    # the product quiver of (x, x) is its own transpose: one half suffices
    both = x != y
    kisses, dual_kisses = [], []
    for r, t in least.items():
        vt = divmod(r, m)
        real, dual = r not in red_side, r not in blue_side
        if homgraph.ray_real(hx, hy, vt) != real:
            raise TheoremViolation(f"real h-line characterization differs at {vt}")
        if both and homgraph.ray_real(hy, hx, divmod(t, n)) != dual:
            raise TheoremViolation(
                f"real h-line characterization differs at {divmod(t, n)}")
        if r in at_boundary:
            continue
        k = nloops.get(r)
        ctype = "Dp" if k == 1 else "Dpt" if k else "At" if r in cyclic else "A"
        if real:
            kisses.append((ctype, vt))
        if dual:
            dual_kisses.append((t, ctype))

    if links:
        for s, t in links:
            _link(parent, s, t)
        least = _sweep(parent, verts, transposed)
    red_full = {parent[v] for v in red}
    blue_full = {parent[v] for v in blue}
    for r, t in least.items():
        vt = divmod(r, m)
        if homgraph.ray_long(hx, hy, vt) != (r not in red_full):
            raise TheoremViolation(f"long h-line characterization differs at {vt}")
        if both and homgraph.ray_long(hy, hx, divmod(t, n)) != (r not in blue_full):
            raise TheoremViolation(
                f"long h-line characterization differs at {divmod(t, n)}")
    return tuple(kisses), tuple([(c, divmod(t, n)) for t, c in sorted(dual_kisses)])


def _link(parent: dict[int, int], s: int, t: int) -> bool:
    """Join the components of s and t, the larger root under the smaller;
    False when they were one already."""
    while parent[s] != s:
        parent[s] = s = parent[parent[s]]
    while parent[t] != t:
        parent[t] = t = parent[parent[t]]
    if s < t:
        parent[t] = s
    elif t < s:
        parent[s] = t
    return s != t


def _sweep(parent: dict[int, int], verts: list[int],
           transposed: dict[int, int]) -> dict[int, int]:
    """Point every vertex of ``verts`` (ascending) at its root and return
    each root with the least ``transposed`` position in its component,
    roots ascending.  A vertex's parent is never larger than it, so the
    parent's root is already known."""
    least: dict[int, int] = {}
    for v in verts:
        t = transposed[v]
        r = parent[v]
        if r == v:
            least[v] = t
            continue
        r = parent[v] = parent[r]
        if t < least[r]:
            least[r] = t
    return least
