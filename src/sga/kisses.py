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

    A union-find over the pairs, linked by the equal-image edge pairs and
    loop pairs, gives the plus components; adding the cross and circle links
    gives the full ones.  The product quiver of (y, x) is the transpose of
    that of (x, y): the same components, red and blue swapped, and the
    targets of cross and circle links (orange, purple) swapped with their
    sources (cyan, teal).  So a plus component away from the boundary is a
    kiss of (x, y) when it has no red, orange or purple vertex, and one of
    (y, x), at its least vertex (i, j) in the transposed order, when it has
    no blue, cyan or teal vertex.  As in :func:`classify_components`, the
    ray characterization of real is checked at the least vertex of every
    plus component and that of long at the least vertex of every full
    component, in both directions.
    """
    hx, hy = homgraph.build_H(q, x), homgraph.build_H(q, y)
    m = max(hx.vertices, default=0) + 1   # (j, i) is the integer j*m + i
    n = max(hy.vertices, default=0) + 1   # and (i, j) is i*n + j
    parent: dict[int, int] = {}
    red, blue = [], []
    for lab, js in hy.by_label.items():
        ixs = hx.by_label.get(lab)
        if ixs is None:
            continue
        heads_x = [hx.head_id(i) for i in ixs]
        for j in js:
            head_y = hy.head_id(j)
            for i, head_x in zip(ixs, heads_x):
                v = j * m + i
                parent[v] = v
                if head_y == head_x:     # equal heads colour nothing
                    continue
                r, b = homgraph.red_blue(hy, j, hx, i, (head_y, head_x))
                if r:
                    red.append(v)
                if b:
                    blue.append(v)
    verts = sorted(parent)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    plus, loops, cross, circ = [], [], [], []
    for image, eys in hy.edges_by_image.items():
        exs = hx.edges_by_image.get(image, ())
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
    for image, lys in hy.loops_by_image.items():
        for ly in lys:
            for lx in hx.loops_by_image.get(image, ()):
                v = ly.vertex * m + lx.vertex
                if v in parent:
                    loops.append(v)
            for nx in hx.edges_by_image.get(image, ()):
                s = ly.vertex * m + nx.src
                if s in parent:
                    circ.append((s, ly.vertex * m + nx.tgt))
    for image, lxs in hx.loops_by_image.items():
        for ny in hy.edges_by_image.get(image, ()):
            for lx in lxs:
                s = ny.tgt * m + lx.vertex
                if s in parent:
                    circ.append((s, ny.src * m + lx.vertex))

    for s, t in plus:   # s != t: a bounded quiver has no band of length 1
        parent[find(s)] = find(t)

    def components() -> tuple[dict, list, dict, dict]:
        """The root of each vertex; each root with its least vertex, in
        least-vertex order; its least vertex in the transposed order; and
        its number of vertices."""
        root, order, least_t, size = {}, [], {}, {}
        for v in verts:
            r = root[v] = find(v)
            j = v // m
            i = v - j * m
            t = i * n + j
            if r not in size:
                order.append((r, (j, i)))
                least_t[r], size[r] = t, 1
            else:
                size[r] += 1
                if t < least_t[r]:
                    least_t[r] = t
        return root, order, {r: divmod(t, n) for r, t in least_t.items()}, size

    root, order, dual_at, size = components()
    cycles = {r: 1 - k for r, k in size.items()}   # arrows - (vertices - 1)
    for s, _ in plus:
        cycles[root[s]] += 1
    nloops = dict.fromkeys(size, 0)
    for v in loops:
        nloops[root[v]] += 1
    red_side = {root[v] for v in red}
    red_side.update(root[t] for _, t in cross + circ)
    blue_side = {root[v] for v in blue}
    blue_side.update(root[s] for s, _ in cross + circ)
    # a boundary vertex of either winding carries one edge or loop, so at
    # most one plus link or loop of the product meets it: an end of its component
    at_boundary = {root[v] for v in verts if v // m in hy.boundary or v % m in hx.boundary}

    # the product quiver of (x, x) is its own transpose: one half suffices
    both = x != y
    kisses, dual_kisses = [], []
    for r, vt in order:
        real, dual = r not in red_side, r not in blue_side
        if homgraph.ray_real(hx, hy, vt) != real:
            raise TheoremViolation(f"real h-line characterization differs at {vt}")
        if both and homgraph.ray_real(hy, hx, dual_at[r]) != dual:
            raise TheoremViolation(
                f"real h-line characterization differs at {dual_at[r]}")
        if r in at_boundary:
            continue
        k = nloops[r]
        ctype = "Dp" if k == 1 else "Dpt" if k else "At" if cycles[r] > 0 else "A"
        if real:
            kisses.append((ctype, vt))
        if dual:
            dual_kisses.append((ctype, dual_at[r]))

    if cross or circ:
        for s, t in cross + circ:
            parent[find(s)] = find(t)
        root, order, dual_at, _ = components()
    red_full = {root[v] for v in red}
    blue_full = {root[v] for v in blue}
    for r, vt in order:
        if homgraph.ray_long(hx, hy, vt) != (r not in red_full):
            raise TheoremViolation(f"long h-line characterization differs at {vt}")
        if both and homgraph.ray_long(hy, hx, dual_at[r]) != (r not in blue_full):
            raise TheoremViolation(
                f"long h-line characterization differs at {dual_at[r]}")
    return tuple(kisses), tuple(sorted(dual_kisses, key=lambda k: k[1]))
