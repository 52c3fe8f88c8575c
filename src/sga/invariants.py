"""Tagged admissible words, the combinatorial E-invariant and g-vector,
and enumeration of the generically tau-reduced component labels.

Tags select one-parameter families of simple modules over the type algebra
of a word; the combinatorial formulas below compute the generic values of
the E-invariant and g-vector without touching any matrices.
"""

from __future__ import annotations

from typing import NamedTuple

from .admissible import AdmWord, enumerate_adm, tau_adm
from .errors import SgaError, TheoremViolation
from .homgraph import build_H
from .kisses import kiss_sites
from .quiver import Fringing, PolarizedQuiver, tilde_vertices
from .words import band_canonical, rotations, winv

Tag = str  # "++" | "+-" | "-+" | "--" (the signs at loops 0 and 1) | "*" | "**"

# the order of the labels of one word (the row order of `sga components`)
TAG_ORDER = ("*", "**", "--", "-+", "+-", "++")

_TAGS = {"uu": ("++",), "up": ("+-", "++"), "pu": ("-+", "++"),
         "pp": ("--", "-+", "+-", "++", "**"), "b": ("*",)}
_CHI = str.maketrans("+-", "-+")


def tags_for(x: AdmWord) -> tuple[Tag, ...]:
    """The legal tag set of a word, by its type."""
    return _TAGS[x.wtype]


def wt(s: Tag) -> int:
    return 2 if s == "**" else 1


def tag_iota(s: Tag) -> Tag:
    return s[::-1]


def tag_chi(s: Tag) -> Tag:
    return s.translate(_CHI)


def d2(a: str, b: str) -> int:
    """Matching eigenvalue count between sign-or-star characters."""
    if a == "*" and b == "*":
        return 2
    if a == "*" or b == "*":
        return 1
    return 1 if a == b else 0


def d3(s: Tag, t: Tag) -> int:
    return 1 if s == t and "*" not in s else 0


def check_tag(x: AdmWord, s: Tag) -> None:
    if s not in tags_for(x):
        raise SgaError(f"tag {s} illegal for a word of type {x.wtype}")


# -- kiss census -----------------------------------------------------------------

def band_class_eq(a: AdmWord, b: AdmWord) -> bool:
    if a.wtype == "pp" and b.wtype == "pp":
        return a.letters == b.letters
    if a.wtype == "b" and b.wtype == "b":
        return b.letters in set(rotations(a.letters))
    return False


def diag_b(x: AdmWord, y: AdmWord) -> int:
    if x.wtype not in ("pp", "b") or y.wtype not in ("pp", "b"):
        return 0
    if band_class_eq(x, y):
        return 1
    if band_class_eq(x, y.inverse()):
        return -1
    return 0


class KissCensus(NamedTuple):
    a_count: int                       # type-A kisses, both directions
    p_set: tuple[tuple[int, int], ...]  # pairs of punctured letters of type D'
    diag: int                          # band orientation in {-1, 0, 1}
    d_count: int                       # type-D' kisses, both directions
    at_count: int                      # cyclic types, both directions
    dpt_count: int
    total: int


def p_set(q: PolarizedQuiver, x: AdmWord, y: AdmWord) -> tuple[tuple[int, int], ...]:
    """Loop pairs (j, i) over the same special vertex, minus the diagonal
    exclusions for a word paired with itself or its inverse."""
    hx, hy = build_H(q, x), build_H(q, y)
    pairs = [(ly.key, lx.key) for ly in hy.loops for lx in hx.loops
             if ly.image == lx.image]
    if x.wtype in ("uu", "up", "pu", "pp") and y.wtype == x.wtype \
            and y.letters == x.letters:
        excl = {(0, 0), (1, 1)}
    elif y.wtype in ("uu", "up", "pu", "pp") and len(y.letters) == len(x.letters) \
            and y.letters == winv(x.letters):
        excl = {(1, 0), (0, 1)}
    else:
        excl = set()
    return tuple(sorted(p for p in pairs if p not in excl))


def kiss_census(q: PolarizedQuiver, fr: Fringing, x: AdmWord, y: AdmWord) -> KissCensus:
    """Kisses between the fringed translates of x and y (never projective
    there), both directions, checked against the punctured pairs and the
    band orientation.

    Memoised in the store ``census`` of ``fr.extended``, keyed by (q, x, y):
    q enters the census through the punctured pairs.  A miss makes one
    :func:`kiss_sites` pass and stores the census of (x, y) and that of
    (y, x), which has the same kisses and band orientation and the
    punctured pairs of (x, y) swapped; each is checked before it is stored.
    """
    qf = fr.extended
    store = qf.store("census")
    census = store.get((q, x, y))
    if census is not None:
        return census
    counts = {"A": 0, "Dp": 0, "At": 0, "Dpt": 0}
    for sites in kiss_sites(qf, tau_adm(qf, x), tau_adm(qf, y)):
        for ctype, _ in sites:
            counts[ctype] += 1
    ps = p_set(q, x, y)
    diag = diag_b(x, y)
    # (x, y) comes last, so its census is the one returned
    for key, pairs in (((q, y, x), tuple(sorted((i, j) for j, i in ps))),
                       ((q, x, y), ps)):
        census = KissCensus(counts["A"], pairs, diag, counts["Dp"], counts["At"],
                            counts["Dpt"], sum(counts.values()))
        if census.at_count * census.dpt_count != 0:
            raise TheoremViolation("both cyclic kiss types nonzero")
        if census.at_count + census.dpt_count != 2 * abs(diag):
            raise TheoremViolation("cyclic kisses inconsistent with band orientation")
        if census.d_count != len(pairs):
            raise TheoremViolation("D' kisses do not match the punctured pairs")
        if census.a_count + len(pairs) + 2 * abs(diag) != census.total:
            raise TheoremViolation("kiss census does not add up")
        store[key] = census
    return census


# -- combinatorial E and g ----------------------------------------------------------

def e_comb(q: PolarizedQuiver, fr: Fringing, xs: tuple[AdmWord, Tag],
           ys: tuple[AdmWord, Tag]) -> int:
    x, s = xs
    y, t = ys
    check_tag(x, s)
    check_tag(y, t)
    census = kiss_census(q, fr, x, y)
    tot = census.a_count * wt(s) * wt(t)
    tchi = tag_chi(t)
    for (j, i) in census.p_set:
        tot += d2(s[i], tchi[j])
    sp = s
    if census.diag == -1:
        sp = tag_iota(s)
    tot += 2 * abs(census.diag) * d3(sp, tchi)
    return tot


def proper_sets(fr: Fringing, x: AdmWord):
    """(A+, A-, D+, D-) per base vertex on the fringed translate blueprint."""
    h = build_H(fr.extended, tau_adm(fr.extended, x))
    outs = dict.fromkeys(h.vertices, 0)
    ins = dict.fromkeys(h.vertices, 0)
    for e in h.edges:
        outs[e.src] += 1
        ins[e.tgt] += 1
    a_plus: dict[str, int] = {}
    a_minus: dict[str, int] = {}
    d_plus: dict[str, list[int]] = {}
    d_minus: dict[str, list[int]] = {}
    for v in h.vertices:
        lab = h.vlabel[v]
        if outs[v] == 2:
            a_plus[lab] = a_plus.get(lab, 0) + 1
        if ins[v] == 2:
            a_minus[lab] = a_minus.get(lab, 0) + 1
    for l in h.loops:
        lab = fr.extended.by_name[l.image].source
        if ins[l.vertex] == 0:
            d_plus.setdefault(lab, []).append(l.key)
        if outs[l.vertex] == 0:
            d_minus.setdefault(lab, []).append(l.key)
    return a_plus, a_minus, d_plus, d_minus


def g_comb(q: PolarizedQuiver, fr: Fringing, x: AdmWord, s: Tag) -> dict:
    """Combinatorial g-vector over the split vertices; sources count
    positively, matching the worked examples."""
    check_tag(x, s)
    a_plus, a_minus, d_plus, d_minus = proper_sets(fr, x)
    out = {}
    for (v, rho) in tilde_vertices(q):
        val = (a_plus.get(v, 0) - a_minus.get(v, 0)) * wt(s)
        for k in d_plus.get(v, ()):
            val += d2(s[k], rho)
        for k in d_minus.get(v, ()):
            val -= d2(rho, tag_chi(s[k]))
        out[(v, rho)] = val
    return out


def is_tau_generic(q: PolarizedQuiver, fr: Fringing, x: AdmWord, s: Tag) -> bool:
    return e_comb(q, fr, (x, s), (x, s)) == 0


def simplified_check(q: PolarizedQuiver, fr: Fringing, x: AdmWord, s: Tag) -> bool:
    """No self type-A kisses, and the tag avoids the excluded pairs when both
    punctured ends sit at the same vertex."""
    check_tag(x, s)
    census = kiss_census(q, fr, x, x)
    if census.a_count != 0:
        return False
    if x.wtype == "pp" and x.letters[0].vertex == x.letters[-1].vertex:
        return s in ("--", "++")
    return True


# -- dimension vectors and component enumeration --------------------------------------

def dim_vector_comb(q: PolarizedQuiver, x: AdmWord, s: Tag) -> dict:
    """Dimension vector of the modules in the tag family, combinatorially:
    loops split by the tag sign, special edge pairs split evenly."""
    check_tag(x, s)
    h = build_H(q, x)
    out = {tv: 0 for tv in tilde_vertices(q)}
    w = wt(s)
    loop_vertices = {l.vertex: l.key for l in h.loops}
    special_edges = [e for e in h.edges if q.by_name[e.image].special]
    on_special_edge = {v for e in special_edges for v in (e.src, e.tgt)}
    for v in h.vertices:
        lab = h.vlabel[v]
        if not q.is_special_vertex(lab):
            out[(lab, "o")] += w
        elif v in loop_vertices:
            c = s[loop_vertices[v]]
            if c == "*":
                out[(lab, "-")] += 1
                out[(lab, "+")] += 1
            else:
                out[(lab, c)] += w
        elif v not in on_special_edge:
            # a vertex over a special vertex that splits its eigenvalues
            # neither by a loop nor by a doubled special edge
            raise TheoremViolation(
                f"{x}: vertex {v} over special vertex {lab} lies on no "
                "special loop or edge")
    for e in special_edges:
        lab = h.vlabel[e.src]
        out[(lab, "-")] += w
        out[(lab, "+")] += w
    return out


class Family(NamedTuple):
    """The modules over the type algebra of a word that a tag selects: one
    for a sign tag, the curve ``V(1,t)`` for ``*`` and ``Vt(1,t)`` for
    ``**``. ``c_set`` and ``repmod.indecomposables_Ax`` read it."""
    word: AdmWord
    tag: Tag

    @property
    def params(self) -> int:
        return int("*" in self.tag)

    def values(self, p: int) -> list:
        """Every parameter over GF(p), in order; ``[None]`` for a sign tag."""
        from .gf import check_prime
        check_prime(p)
        check_tag(self.word, self.tag)
        if self.tag == "*":
            return list(range(1, p))
        return list(range(2, p - 1)) if self.tag == "**" else [None]

    def points(self, p: int) -> list:
        """One parameter per isomorphism class (Vt(1,t) is isomorphic to Vt(1,1/t))."""
        return [t for t in self.values(p) if self.tag != "**" or t <= pow(t, -1, p)]

    def lengths(self, max_dim: int) -> range:
        """The quasi-lengths m of the members of dimension at most max_dim;
        only 1 where the algebra is semisimple ((u,u), (u,p), (p,u))."""
        top = 1 if self.word.wtype in ("uu", "up", "pu") else max_dim // wt(self.tag)
        return range(1, top + 1)

    def module(self, t, p: int, m: int = 1):
        """The member with parameter t at quasi-length m in ``lengths``."""
        from . import repmod
        if self.tag == "*":
            return repmod.module_Vband(m, t, p)
        if self.tag == "**":
            return repmod.module_Vt(m, t, p)
        s0, s1 = (1 if c == "+" else -1 for c in self.tag)
        if self.word.wtype == "pp":
            return repmod.module_W(m, s0 * s1, p, chi=s1 < 0)
        if m != 1:
            raise SgaError(f"no module of quasi-length {m} over a {self.word.wtype} word")
        if self.word.wtype == "uu":
            return repmod.module_k(p)
        return repmod.module_V(s1 if self.word.wtype == "up" else s0, p)


def c_set(x: AdmWord, s: Tag, p: int) -> list:
    """The modules of ``Family(x, s)``, one per parameter in ``values`` order."""
    f = Family(x, s)
    return [f.module(t, p) for t in f.values(p)]


class ComponentLabel(NamedTuple):
    word: AdmWord
    tag: Tag
    dim: dict
    g: dict


def canonical_tagged(x: AdmWord, s: Tag) -> tuple[AdmWord, Tag]:
    """Representative of the inversion/rotation class of a tagged word."""
    if x.wtype == "b":
        return AdmWord(band_canonical(x.letters), "b"), "*"
    xi, si = x.inverse(), tag_iota(s)
    if (xi.letters, TAG_ORDER.index(si)) < (x.letters, TAG_ORDER.index(s)):
        return xi, si
    return x, s


def enumerate_components(q: PolarizedQuiver, fr: Fringing, max_len: int):
    """Deduplicated tau-generic tagged words with dimension vectors,
    g-vectors, and the pairwise generic-E matrix, and whether max_len cut
    off longer words (then the list may be partial)."""
    sets = enumerate_adm(q, max_len)
    words = list(sets.strings) + list(sets.bands)
    seen: set = set()
    labels: list[ComponentLabel] = []
    for x in words:
        for s in tags_for(x):
            cx, cs = canonical_tagged(x, s)
            key = (cx.letters, cx.wtype, cs)
            if key in seen:
                continue
            seen.add(key)
            if not is_tau_generic(q, fr, cx, cs):
                continue
            labels.append(ComponentLabel(cx, cs, dim_vector_comb(q, cx, cs),
                                         g_comb(q, fr, cx, cs)))
    labels.sort(key=lambda l: (l.word.letters, TAG_ORDER.index(l.tag)))
    n = len(labels)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = e_comb(q, fr, (labels[i].word, labels[i].tag),
                       (labels[j].word, labels[j].tag))
            matrix[i][j] = matrix[j][i] = e
    return labels, matrix, sets.truncated
