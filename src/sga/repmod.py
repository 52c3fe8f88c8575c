"""Modules attached to admissible words, and the word formulas for Hom, E and g.

Modules are assembled as push-forwards of free rank-one pieces over the
blueprint quiver of an admissible word; Hom spaces are computed by
propagating a single block along each long h-line and checked against the
word-free intertwiner nullspace of ``homalg``.
"""

from __future__ import annotations

from functools import cached_property

from . import gf
from .admissible import TYPES, AdmWord, tau_adm
from .errors import IsProjective, SgaError
from .gf import Matrix
from .homalg import (Rep, _block, _is_identity, _verify_basis, hom_dim_oracle,
                     hom_rows, simple, verify_relations, zero)
from .homgraph import CROSS, PLUS, HomGraph, build_H, build_HQ, classify_components
from .invariants import Family, kiss_census, tags_for, wt
from .quiver import Frozen, PolarizedQuiver, per_quiver, tilde_vertices
from .words import ORD


class AxModule(Frozen):
    """A module over the letter-type algebra of a word: k, k[T]/(T^2-1),
    the dihedral algebra, or k[T,T^-1], given by the matrices of its
    generators (``gf`` matrices, ``dim`` x ``dim``; None where the
    generator does not act).

    Immutable, equal and hashed by content (``key``, set with the hash in
    ``__init__``). ``T_inv`` and ``word_types`` are computed on first use.
    """
    label: str
    dim: int
    p: int
    T: Matrix | None
    S: Matrix | None

    def __init__(self, label: str, dim: int, p: int, T: Matrix | None = None,
                 S: Matrix | None = None) -> None:
        key = (label, dim, p, T, S)
        self.__dict__.update(label=label, dim=dim, p=p, T=T, S=S, key=key,
                             _hash=hash(key))

    @cached_property
    def T_inv(self) -> Matrix:
        if self.T is None:
            raise SgaError(f"module {self.label} has no T to invert")
        return gf.inv(self.T, self.p)

    @cached_property
    def word_types(self) -> frozenset[str]:
        """The word types over whose algebra the module lives (``module_matches``)."""
        return frozenset(t for t in TYPES if module_matches(t, self))


def module_k(p: int) -> AxModule:
    return AxModule("Vo", 1, p)


def module_V(sign: int, p: int) -> AxModule:
    return AxModule("V+" if sign > 0 else "V-", 1, p, T=gf.matrix([{0: sign}], p))


def module_Vband(m: int, t: int, p: int) -> AxModule:
    if m < 1:
        raise SgaError(f"module size must be at least 1, got {m}")
    if t % p == 0:
        raise SgaError("band parameter must be a unit")
    return AxModule(f"V({m},{t % p})", m, p, T=gf.jordan_block(m, t, p))


def s_tilde(m: int, sign: int, p: int) -> Matrix:
    """Lower-triangular binomial involution conjugating J_m(sign) to its inverse."""
    from math import comb
    return gf.matrix([{j - 1: (-1) ** (i + 1) * sign ** (i + j) * comb(i, j)
                       for j in range(1, i + 1)} for i in range(1, m + 1)], p)


def module_W(m: int, sign: int, p: int, chi: bool = False) -> AxModule:
    if m < 1:
        raise SgaError(f"module size must be at least 1, got {m}")
    st = s_tilde(m, sign, p)
    S = gf.mul(st, gf.jordan_block(m, sign, p), p)
    T = st
    if chi:
        S, T = gf.neg(S, p), gf.neg(T, p)
    name = f"W({m},{'+' if sign > 0 else '-'})"
    if chi:
        name = "Wchi" + name[1:]
    return AxModule(name, m, p, T=T, S=S)


def module_Vt(m: int, s: int, p: int) -> AxModule:
    if m < 1:
        raise SgaError(f"module size must be at least 1, got {m}")
    if s % p in (0, 1, p - 1):
        raise SgaError("parameter must avoid 0 and +-1")
    j = gf.jordan_block(m, s, p)
    S = tuple(tuple((c + m, v) for c, v in row) for row in j) + gf.inv(j, p)
    T = tuple(((i + m, 1),) for i in range(m)) + tuple(((i, 1),) for i in range(m))
    return AxModule(f"Vt({m},{s % p})", 2 * m, p, T=T, S=S)


def indecomposables_Ax(word_type: str, max_dim: int, p: int) -> list[AxModule]:
    """Indecomposables of the type algebra up to max_dim: the members of the
    tag families (``invariants.Family``) of a word of this type, by
    quasi-length, the ``**`` family last.  Over GF(p) the list holds only
    the split members: it lacks the band modules whose T is the companion
    block of an irreducible polynomial, and the dihedral modules whose ST
    has an irreducible characteristic polynomial x² − λx + 1."""
    x = AdmWord((), word_type)
    fams = [Family(x, s) for s in ("++", "--", "-+", "+-", "*", "**") if s in tags_for(x)]
    values = [f.values(p) for f in fams]
    walk = sorted((wt(f.tag), m, i) for i, f in enumerate(fams) for m in f.lengths(max_dim))
    return [fams[i].module(t, p, m) for _, m, i in walk for t in values[i]]


def chi_twist(q: PolarizedQuiver, x: AdmWord, X: AxModule) -> AxModule:
    """Twist by the sign automorphism; on bands through an odd number of
    special letters the parameter changes sign, otherwise nothing moves."""
    if x.wtype == "uu" or (x.wtype == "b" and
                           sum(1 for l in x.letters if q.by_name[l.name].special) % 2 == 0):
        return X
    S = None if X.S is None else gf.neg(X.S, X.p)
    return AxModule(X.label + "^chi", X.dim, X.p, T=gf.neg(X.T, X.p), S=S)


def translate_twist(q: PolarizedQuiver, x: AdmWord, X: AxModule) -> AxModule:
    """The module that goes with the translate of x: X itself on a band,
    whose translate carries the same parameter, and the sign twist
    ``chi_twist`` on a string."""
    return X if x.wtype == "b" else chi_twist(q, x, X)


def iota_twist(x: AdmWord, X: AxModule) -> AxModule:
    """X twisted; ``E_formula`` calls it at diag = -1, on (p,p) words and bands."""
    if x.wtype == "pp":
        return AxModule(X.label + "^iota", X.dim, X.p, T=X.S, S=X.T)
    return AxModule(X.label + "^iota", X.dim, X.p, T=X.T_inv)


def algebra_of(word_type: str) -> str:
    return {"uu": "k", "up": "k[T]/(T2-1)", "pu": "k[T]/(T2-1)",
            "pp": "k<S,T>/(S2-1,T2-1)", "b": "k[T,T-]"}[word_type]


def module_matches(word_type: str, X: AxModule) -> bool:
    """Whether X lives over ``algebra_of(word_type)``; ``check_module``
    reads the verdicts kept in ``X.word_types``."""
    def involution(m):
        return m is not None and _is_identity(gf.mul(m, m, X.p))
    if word_type == "uu":
        return X.T is None and X.S is None
    if word_type == "b":
        return X.T is not None and X.S is None and gf.is_invertible(X.T, X.p)
    return involution(X.T) and (involution(X.S) if word_type == "pp" else X.S is None)


def check_module(x: AdmWord, X: AxModule) -> None:
    """Raise SgaError unless X lives over the algebra of x's word type."""
    if x.wtype not in X.word_types:
        raise SgaError(f"module {X.label} does not live over {algebra_of(x.wtype)}")


# -- the push-forward ---------------------------------------------------------

def unit_of(x: AdmWord, X: AxModule, part: tuple[str, int | None]) \
        -> tuple[Matrix | None, Matrix | None]:
    """The action of X along an H-degree of freedom of x and its inverse;
    None is the identity.

    Loops carry S (left end of a doubly punctured string) or T, both
    involutions; the closing edge of a band carries T or its inverse
    depending on the first letter. X must live over x's algebra
    (``check_module``).
    """
    kind, idx = part
    if kind == "loop":
        u = X.S if x.wtype == "pp" and idx == 0 else X.T
        return u, u
    if x.wtype == "b" and idx == 0:
        return (X.T, X.T_inv) if x.letters[0].kind == ORD else (X.T_inv, X.T)
    return None, None


@per_quiver
def build_module(q: PolarizedQuiver, x: AdmWord, X: AxModule) -> Rep:
    """The representation attached to (x, X): one copy of X per blueprint
    vertex, arrow matrices assembled blockwise from the unit actions.
    Raises SgaError unless X lives over x's algebra (``check_module``).

    Memoised in q's store ``build_module``, keyed by (x, X), and interned
    in q's store ``reps``: equal representations, such as those of a word
    and of its reverse, share one ``Rep``, and every later call gets it.
    Its fields cannot be reassigned and its matrices are tuples, but its
    ``dims`` and ``mats`` are plain dicts: modify a copy (``copy.deepcopy``)
    instead, which derives its own key, hash and arrow tables.
    """
    rep = _assemble_module(q, x, X)
    return q.store("reps").setdefault(rep, rep)


def _add_block(rows: list[dict], r: int, c: int, block: Matrix | None,
               n: int = 0) -> None:
    """Add a block (None: the n x n identity) at row r, column c of a matrix
    under construction, given as dict rows."""
    if block is None:
        block = tuple(((i, 1),) for i in range(n))
    for i, brow in enumerate(block):
        row = rows[r + i]
        for k, v in brow:
            row[c + k] = row.get(c + k, 0) + v


def _assemble_module(q: PolarizedQuiver, x: AdmWord, X: AxModule) -> Rep:
    check_module(x, X)
    p, n = X.p, X.dim
    h = build_H(q, x)
    offset = {v: k * n for vs in h.by_label.values() for k, v in enumerate(vs)}
    dims = {a: len(h.by_label.get(a, ())) * n for a in q.vertices}
    rows = {arr.name: [{} for _ in range(dims[arr.target])] for arr in q.arrows}
    for e in h.edges:
        u, u_inv = unit_of(x, X, ("edge", e.idx))
        _add_block(rows[e.image], offset[e.tgt], offset[e.src], u, n)
        if q.by_name[e.image].special:
            # the inverse partner arrow of the doubled quiver
            _add_block(rows[e.image], offset[e.src], offset[e.tgt], u_inv, n)
    for l in h.loops:
        u, _ = unit_of(x, X, ("loop", l.key))
        _add_block(rows[l.image], offset[l.vertex], offset[l.vertex], u, n)
    rep = Rep(q, p, dims, {name: gf.matrix(r, p) for name, r in rows.items()})
    verify_relations(rep)
    return rep


def hom_system(M: Rep, N: Rep) -> tuple[list[list[int]], dict[str, tuple[int, int]]]:
    """The system of ``homalg.hom_rows`` as a dense matrix, one list per
    equation, with values reduced mod p."""
    rows, span = hom_rows(M, N)
    dense = [[0] * sum(size for _, size in span.values()) for _ in rows]
    for out, row in zip(dense, rows):
        for c, v in row.items():
            out[c] = v % M.p
    return dense, span


# -- structured Hom along h-lines -------------------------------------------------

def _transfer(x: AdmWord, y: AdmWord, X: AxModule, Y: AxModule, arrow,
              inverse: bool = False):
    """(P, Q) with f_target = P f_source Q along the given product arrow, or
    with inverse set (P^-1, Q^-1), which carries f_target back to f_source.

    Derived from the intertwiner equations with the actual unit actions, so
    the closing edge of a band over a special loop is handled correctly.
    """
    if arrow.family in (PLUS, CROSS) or arrow.ypart[0] == "loop":
        inv_y, inv_x = arrow.family == CROSS, True
    else:                           # y-edge against an x-loop
        inv_y, inv_x = True, False
    # unit_of gives (action, inverse): index 1 picks the inverse
    uy, ux = unit_of(y, Y, arrow.ypart), unit_of(x, X, arrow.xpart)
    return uy[inv_y != inverse], ux[inv_x != inverse]


def _mul(a: Matrix | None, b: Matrix | None, p: int) -> Matrix | None:
    """Product over GF(p), where None is the identity."""
    if a is None:
        return b
    if b is None:
        return a
    return gf.mul(a, b, p)


def _block_rows(terms, m: int, n: int) -> list[dict[int, int]]:
    """Equation rows of sum c P f Q = 0 over the terms (c, P, Q), on the
    row-major entries of an m x n block f: one row per entry (i, l) of the
    sum, with c P[i, j] Q[k, l] at the column j n + k of f[j, k]. A None
    factor is the identity; values are left unreduced."""
    unit = [((i, 1),) for i in range(max(m, n))]
    terms = [(c, unit if P is None else P, unit if Q is None else gf.transpose(Q, n))
             for c, P, Q in terms]
    rows = []
    for i in range(m):
        for l in range(n):
            row: dict[int, int] = {}
            for c, P, Qt in terms:
                for j, a in P[i]:
                    for k, b in Qt[l]:
                        col = j * n + k
                        row[col] = row.get(col, 0) + c * a * b
            rows.append(row)
    return rows


def _component_base_space(x, y, X, Y, comp, p):
    """Propagate along a spanning tree; each non-tree arrow closes a cycle
    and contributes a linear constraint on the base block.

    Returns the constraints on the row-major entries of the base block
    (``_block_rows``), and the transfer (P, Q) of each vertex, with
    f_v = P f_base Q and None for an identity factor.
    """
    transfer = {comp.vertices[0]: (None, None)}
    pending = list(comp.arrows)
    constraints = []
    while pending:
        remaining = []
        for a in pending:
            if a.src in transfer:
                P0, Q0 = transfer[a.src]
                P, Q = _transfer(x, y, X, Y, a)
                ps, qs = _mul(P, P0, p), _mul(Q0, Q, p)
                if a.tgt not in transfer:
                    transfer[a.tgt] = (ps, qs)
                else:
                    constraints.append((ps, qs) + transfer[a.tgt])
            elif a.tgt in transfer:
                P1, Q1 = transfer[a.tgt]
                P, Q = _transfer(x, y, X, Y, a, inverse=True)
                transfer[a.src] = (_mul(P, P1, p), _mul(Q1, Q, p))
            else:
                remaining.append(a)
        if len(remaining) == len(pending):
            raise SgaError("disconnected component data")
        pending = remaining
    rows = [row for P2, Q2, P1, Q1 in constraints if not (P2 is P1 and Q2 is Q1)
            for row in _block_rows(((1, P2, Q2), (-1, P1, Q1)), Y.dim, X.dim)]
    return rows, transfer


def hom_dim_formula(q: PolarizedQuiver, x: AdmWord, X: AxModule,
                    y: AdmWord, Y: AxModule,
                    g: HomGraph | None = None, report=None) -> int:
    """Sum over real h-lines of the dimension of the block space constrained
    by the loop/cycle units: the structured count the oracle must match.  A
    string h-line (ctype ``A``) is a tree, which constrains nothing, so it
    counts the whole block space without a walk."""
    check_module(x, X)
    check_module(y, Y)
    g = g or build_HQ(q, x, y)
    report = report or classify_components(g)
    total = 0
    for comp in report.plus:
        if not comp.real:
            continue
        if comp.ctype == "A":
            total += Y.dim * X.dim
            continue
        cons, _ = _component_base_space(x, y, X, Y, comp, X.p)
        total += Y.dim * X.dim - (gf.rank(cons, X.p) if cons else 0)
    return total


def hom_basis_structured(q: PolarizedQuiver, x: AdmWord, X: AxModule,
                         y: AdmWord, Y: AxModule) -> list[dict]:
    """A Hom basis propagated along long h-lines, one block space each.

    The collected vectors are checked to be independent intertwiners
    spanning the brute-force solution space.
    """
    M, N = build_module(q, x, X), build_module(q, y, Y)
    g = build_HQ(q, x, y)
    report = classify_components(g)
    p = X.p
    hx, hy = g.hx, g.hy
    out = []
    for comp in report.full:
        if not comp.long:
            continue
        cons, transfer = _component_base_space(x, y, X, Y, comp, p)
        for vec in gf.nullspace(cons, Y.dim * X.dim, p):
            f0 = _block(vec, 0, Y.dim, X.dim)
            f = {v: [{} for _ in range(N.dims[v])] for v in q.vertices}
            for (j, i), (P, Q) in transfer.items():
                a = hx.vlabel[i]
                r = hy.by_label[a].index(j) * Y.dim
                c = hx.by_label[a].index(i) * X.dim
                _add_block(f[a], r, c, _mul(_mul(P, f0, p), Q, p))
            out.append({v: gf.matrix(rows, p) for v, rows in f.items()})
    _verify_basis(M, N, out)
    return out


# -- AR translation, E-invariant, g-vector ----------------------------------------

def hom_dim_alg(X: AxModule, Y: AxModule, pairs) -> int:
    """dim of {f : X -> Y | f A = B f} for the matrix pairs (A, B)."""
    rows = [row for A, B in pairs
            for row in _block_rows(((1, None, A), (-1, B, None)), Y.dim, X.dim)]
    return Y.dim * X.dim - gf.rank(rows, X.p)


def E_formula(q: PolarizedQuiver, fr, x: AdmWord, X: AxModule,
              y: AdmWord, Y: AxModule) -> int:
    """The kiss-census expression for the E-invariant: a full-Hom block per
    type-A kiss, a matched-eigenvalue count per punctured pair, and the
    twisted Hom terms on a shared band class."""
    check_module(x, X)
    check_module(y, Y)
    census = kiss_census(q, fr, x, y)
    tot = census.a_count * X.dim * Y.dim
    Ychi = translate_twist(q, y, Y)
    for (j, i) in census.p_set:
        tot += hom_dim_alg(X, Ychi, [(unit_of(x, X, ("loop", i))[0],
                                      unit_of(y, Ychi, ("loop", j))[0])])
    if census.diag:
        Xp = X if census.diag == 1 else iota_twist(x, X)
        Yp = Y if census.diag == 1 else iota_twist(y, Y)
        Xchi = translate_twist(q, x, X)

        def gens(M):
            return (M.S, M.T) if x.wtype == "pp" else (M.T,)
        tot += hom_dim_alg(Xp, Ychi, zip(gens(Xp), gens(Ychi))) + \
            hom_dim_alg(Yp, Xchi, zip(gens(Yp), gens(Xchi)))
    return tot


@per_quiver
def tau_module(q: PolarizedQuiver, x: AdmWord, X: AxModule):
    """(tau x, ``translate_twist`` of X); None marks the zero module for
    projectives. Memoised in q's store ``tau_module``, keyed by (x, X),
    None included; the word translate comes from the store ``tau_adm``.
    """
    try:
        tx = tau_adm(q, x)
    except IsProjective:
        return None
    return tx, translate_twist(q, x, X)


def E_oracle(q: PolarizedQuiver, x: AdmWord, X: AxModule,
             y: AdmWord, Y: AxModule) -> int:
    """dim Hom(M, tau N) + dim Hom(N, tau M), exactly."""
    M, N = build_module(q, x, X), build_module(q, y, Y)
    total = 0
    ty = tau_module(q, y, Y)
    if ty is not None:
        total += hom_dim_oracle(M, build_module(q, *ty))
    tx = tau_module(q, x, X)
    if tx is not None:
        total += hom_dim_oracle(N, build_module(q, *tx))
    return total


def g_oracle(q: PolarizedQuiver, x: AdmWord, X: AxModule) -> dict:
    """dim Hom(M, S) - dim Hom(S, tau M) per split vertex (the convention
    matching the worked g-vector examples)."""
    M = build_module(q, x, X)
    t = tau_module(q, x, X)
    tM = build_module(q, *t) if t is not None else zero(q, X.p)
    out = {}
    for (v, rho) in tilde_vertices(q):
        S = simple(q, v, rho, X.p)
        out[(v, rho)] = hom_dim_oracle(M, S) - hom_dim_oracle(S, tM)
    return out
