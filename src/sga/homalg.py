"""Representations of a quiver over GF(p) and the brute-force Hom.

A ``Rep`` is a space per vertex and a matrix per arrow, Hom is the nullspace
of the intertwiner equations, and the simples S(v, rho) and the zero module
are written down directly. This layer reads no words, so the word formulas
of ``repmod`` are checked against an independent route.
"""

from __future__ import annotations

from functools import cached_property

from . import gf
from .errors import SgaError, TheoremViolation
from .gf import Matrix
from .quiver import Frozen, PolarizedQuiver


class Rep(Frozen):
    """A representation of q over GF(p): a space of dimension ``dims[v]`` at
    each vertex and a ``gf`` matrix, ``dims[target]`` x ``dims[source]``,
    for each arrow.

    Immutable, equal and hashed by content (``key``); the key, hash, arrow
    tables and reversal class are derived from the matrices on first use
    and kept.
    """
    q: PolarizedQuiver
    p: int
    dims: dict[str, int]
    mats: dict[str, Matrix]

    def __init__(self, q: PolarizedQuiver, p: int, dims: dict[str, int],
                 mats: dict[str, Matrix]) -> None:
        self.__dict__.update(q=q, p=p, dims=dims, mats=mats)

    @cached_property
    def key(self) -> tuple:
        """Quiver, field, and the dimensions and matrices in name order."""
        return (self.q, self.p, tuple(sorted(self.dims.items())),
                tuple(sorted(self.mats.items())))

    @cached_property
    def _hash(self) -> int:
        return hash(self.key)

    @cached_property
    def arrow_tables(self) -> dict[str, tuple[Matrix, Matrix]]:
        """Per arrow a, the nonzeros of M(a) as the intertwiner system reads
        them: ``cols[j]`` holds the pairs (k, M(a)[k, j]) and ``neg_rows[i]``
        the pairs (k, -M(a)[i, k] mod p). Built once per ``Rep``, on first use."""
        p, dims = self.p, self.dims
        return {a.name: (gf.transpose(self.mats[a.name], dims[a.source]),
                         gf.neg(self.mats[a.name], p))
                for a in self.q.arrows}

    @cached_property
    def rep_class(self) -> Rep:
        """The reversal class: whichever of this module and its ``reversal``
        has the smaller arrow matrices in ``q.arrows`` order, interned by
        content in the store ``rep_class`` of its quiver, so a module and
        its reversal get one object. Found on first use, then kept."""
        c = min(self, reversal(self), key=lambda r: [r.mats[a.name] for a in r.q.arrows])
        return self.q.store("rep_class").setdefault(c, c)

    def dim_vector(self) -> dict[tuple[str, str], int]:
        """Dimension vector over the split vertices.

        The split idempotents at a special vertex are (1 +- eps)/2, so the
        two split-vertex spaces are the +-1 eigenspaces of the loop action,
        of dimension n - rank(eps - sign I).
        """
        out: dict[tuple[str, str], int] = {}
        for v in self.q.vertices:
            if self.q.is_special_vertex(v):
                eps = self.mats[self.q.special_loop_at(v).name]
                n = self.dims[v]
                for name, sign in (("-", -1), ("+", 1)):
                    rows = [dict(row) for row in eps]
                    for i, row in enumerate(rows):
                        row[i] = row.get(i, 0) - sign
                    out[(v, name)] = n - gf.rank(rows, self.p)
            else:
                out[(v, "o")] = self.dims[v]
        return out


def _is_identity(a: Matrix) -> bool:
    return all(row == ((i, 1),) for i, row in enumerate(a))


def verify_relations(rep: Rep) -> None:
    q, p = rep.q, rep.p
    for e in q.special_arrows:
        m = rep.mats[e.name]
        if not _is_identity(gf.mul(m, m, p)):
            raise SgaError(f"special loop {e.name} does not square to identity")
    for a, b in q.zero_relations:
        if any(gf.mul(rep.mats[a.name], rep.mats[b.name], p)):
            raise SgaError(f"relation {a.name}{b.name} violated")


def simple(q: PolarizedQuiver, v: str, rho: str, p: int) -> Rep:
    """The simple S(v, rho): k at v, 0 elsewhere; the special loop at v (if
    any) acts by +1 or -1 as rho is "+" or "-", every other arrow by 0."""
    dims = {u: int(u == v) for u in q.vertices}
    mats = {a.name: ((),) * dims[a.target] for a in q.arrows}
    if rho != "o":
        mats[q.special_loop_at(v).name] = (((0, 1 if rho == "+" else p - 1),),)
    return Rep(q, p, dims, mats)


def zero(q: PolarizedQuiver, p: int) -> Rep:
    return Rep(q, p, {v: 0 for v in q.vertices}, {a.name: () for a in q.arrows})


def direct_sum(M: Rep, N: Rep) -> Rep:
    """M + N: at each vertex M's basis, then N's; each arrow acts by the
    block-diagonal matrix of M(a) and N(a)."""
    if M.q != N.q or M.p != N.p:
        raise SgaError("direct sum of representations of different quivers or fields")
    dims = {v: M.dims[v] + N.dims[v] for v in M.q.vertices}
    mats = {a.name: M.mats[a.name] + tuple(tuple((c + M.dims[a.source], w) for c, w in row)
                                           for row in N.mats[a.name])
            for a in M.q.arrows}
    return Rep(M.q, M.p, dims, mats)


def _span(M: Rep, N: Rep) -> tuple[dict[str, tuple[int, int]], int]:
    """The (start, size) of each block f_v among the unknowns, and their number."""
    cols = 0
    span: dict[str, tuple[int, int]] = {}
    for v in M.q.vertices:
        size = N.dims[v] * M.dims[v]
        span[v] = (cols, size)
        cols += size
    return span, cols


def _equations(M: Rep, N: Rep, span: dict[str, tuple[int, int]]):
    """The rows of ``hom_rows`` one at a time; a value is any residue."""
    m_tables, n_tables = M.arrow_tables, N.arrow_tables
    for a in M.q.arrows:
        s, t = a.source, a.target
        ms, mt = M.dims[s], M.dims[t]
        if N.dims[t] * ms == 0:
            continue
        m_cols, n_rows = m_tables[a.name][0], n_tables[a.name][1]
        t0, s0 = span[t][0], span[s][0]
        for i in range(N.dims[t]):
            ti = t0 + i * mt
            for j in range(ms):
                row = {ti + k: v for k, v in m_cols[j]}
                for k, v in n_rows[i]:
                    c = s0 + k * ms + j
                    row[c] = row.get(c, 0) + v
                yield row


def hom_rows(M: Rep, N: Rep) -> tuple[list[dict[int, int]], dict[str, tuple[int, int]]]:
    """Linear system for intertwiners f with f_t M(a) = N(a) f_s, as sparse
    rows (column -> value, any residue mod p, as ``gf`` reads them), and the
    (start, size) of each block f_v among the unknowns, the stacked
    row-major entries of the blocks.

    Row (a, i, j) holds M(a)[k, j] at the column of f_t[i, k] and
    -N(a)[i, k] at the column of f_s[k, j]; on a loop both land in one row.
    """
    span, _ = _span(M, N)
    return list(_equations(M, N, span)), span


def reversal(M: Rep) -> Rep:
    """M conjugated by the basis reversal at every vertex: entry (i, j) of
    M(a) moves to (dims[t] - 1 - i, dims[s] - 1 - j). An isomorphic module."""
    mats = {}
    for a in M.q.arrows:
        last = M.dims[a.source] - 1
        mats[a.name] = tuple(tuple((last - c, w) for c, w in reversed(row))
                             for row in reversed(M.mats[a.name]))
    return Rep(M.q, M.p, M.dims, mats)


def hom_dim_oracle(M: Rep, N: Rep) -> int:
    """dim Hom(M, N): the unknowns of ``hom_rows`` less its rank, the rows
    streamed into ``gf.rank``. Memoised in the store ``hom_dim_oracle`` of
    M's quiver, keyed by the reversal classes of the two modules
    (``Rep.rep_class``). A module and its reversal are conjugate by a
    permutation at each vertex, hence isomorphic, so they have the same Hom
    dimensions and the answer stored for the class is exact for both."""
    key = (M.rep_class, N.rep_class)
    store = M.q.store("hom_dim_oracle")
    dim = store.get(key)
    if dim is None:
        span, cols = _span(M, N)
        dim = store[key] = cols - gf.rank(_equations(M, N, span), M.p)
    return dim


def _block(vec, start: int, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols block stored row-major from column ``start`` of a
    vector (a ``gf`` row)."""
    rows: list[list] = [[] for _ in range(nrows)]
    for c, v in vec:
        if start <= c < start + nrows * ncols:
            i, k = divmod(c - start, ncols)
            rows[i].append((k, v))
    return tuple(map(tuple, rows))


def hom_basis_oracle(M: Rep, N: Rep) -> list[dict[str, Matrix]]:
    rows, span = hom_rows(M, N)
    basis = gf.nullspace(rows, sum(size for _, size in span.values()), M.p)
    return [{v: _block(vec, span[v][0], N.dims[v], M.dims[v]) for v in M.q.vertices}
            for vec in basis]


def _verify_basis(M: Rep, N: Rep, basis: list[dict]) -> None:
    p, q = M.p, M.q
    vecs = []
    for f in basis:
        for a in q.arrows:
            if gf.mul(f[a.target], M.mats[a.name], p) != \
                    gf.mul(N.mats[a.name], f[a.source], p):
                raise TheoremViolation("structured basis element not an intertwiner")
        vec, start = {}, 0          # the blocks' row-major entries, as hom_rows orders them
        for v in q.vertices:
            for i, row in enumerate(f[v]):
                vec.update((start + i * M.dims[v] + k, w) for k, w in row)
            start += N.dims[v] * M.dims[v]
        vecs.append(vec)
    if gf.rank(vecs, p) != len(vecs):
        raise TheoremViolation("structured basis not linearly independent")
    if len(vecs) != hom_dim_oracle(M, N):
        raise TheoremViolation("structured basis does not span the Hom space")


_ISO_TRIES, _ISO_SEED = 200, 0


def iso_witness(M: Rep, N: Rep):
    """Invertible intertwiner, or None; a basis element, else ``_ISO_TRIES``
    random combinations of the Hom basis drawn with seed ``_ISO_SEED``."""
    if M.dims != N.dims:
        return None
    basis = hom_basis_oracle(M, N)
    if not basis:
        return None
    p = M.p
    import random
    rng = random.Random(_ISO_SEED)

    def invertible(f):
        return all(gf.is_invertible(f[v], p) for v in M.q.vertices)

    for f in basis:
        if invertible(f):
            return f
    for _ in range(_ISO_TRIES):
        coeffs = [rng.randrange(p) for _ in basis]
        f = {}
        for v in M.q.vertices:
            rows = [{} for _ in range(N.dims[v])]
            for coeff, b in zip(coeffs, basis):
                for row, brow in zip(rows, b[v]):
                    for k, w in brow:
                        row[k] = row.get(k, 0) + coeff * w
            f[v] = gf.matrix(rows, p)
        if invertible(f):
            return f
    return None
