"""Exact linear algebra over GF(p) for an odd prime p, in Python integers.

A matrix is a tuple of rows, one per row index. A row is a tuple of
``(column, value)`` pairs with increasing columns and values in 1..p-1, so
a zero row is ``()``. The number of columns is not stored: the owner of a
matrix knows it (an ``AxModule``'s ``dim``, a ``Rep``'s ``dims``). Such
matrices are canonical, so they compare with ``==`` and hash as tuples.

One online elimination (``_echelon``) serves ``rank``, ``nullspace``,
``inv`` and ``is_invertible``. Besides canonical matrices it accepts the
equation rows of the Hom systems: each row a dict column -> integer or a
sequence of (column, integer) pairs, with any residue. It works on a copy
of each row and reduces an entry mod p only when the entry comes up as a
pivot candidate, so a sparse system costs only its nonzeros.
"""

from __future__ import annotations

from .errors import SgaError

Row = tuple[tuple[int, int], ...]
Matrix = tuple[Row, ...]

# Fields must be smaller than this. Python integers cannot overflow, but
# check_prime tests primality by trial division, about 1000 divisions below
# the bound and without limit above it, so `--field` keeps refusing larger
# values (exit 3) instead of hanging on a huge one.
MAX_FIELD = 1 << 20


def check_prime(p: int) -> None:
    if p >= MAX_FIELD:
        raise SgaError(f"field size must be below 2^20, got {p}")
    if p == 2:
        raise SgaError("characteristic 2 is not supported")
    if p < 3 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise SgaError(f"field size must be an odd prime, got {p}")


def matrix(rows, p: int) -> Matrix:
    """The canonical matrix whose rows are given as dicts column -> integer
    (any residue)."""
    return tuple(tuple((c, w) for c, v in sorted(row.items()) if (w := v % p))
                 if row else () for row in rows)


def transpose(a: Matrix, ncols: int) -> Matrix:
    cols: list[list] = [[] for _ in range(ncols)]
    for i, row in enumerate(a):
        for j, v in row:
            cols[j].append((i, v))
    return tuple(map(tuple, cols))


def neg(a: Matrix, p: int) -> Matrix:
    return tuple(tuple((c, p - v) for c, v in row) for row in a)


def mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for k, v in row:
            for c, w in b[k]:
                acc[c] = acc.get(c, 0) + v * w
        out.append(acc)
    return matrix(out, p)


def _echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """An echelon basis of the row span: pivot column -> the rest of its row,
    normalised to a leading 1 (left implicit) and holding only the nonzero
    columns after the pivot.

    Each row is reduced by the stored row of its least column until it
    vanishes or opens a new pivot; the least column's entry is taken mod p
    when it is popped, and skipped if that is 0. Rows with no entries are
    skipped without a copy; the given rows are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        row = dict(row)
        while row:
            c = min(row)
            f = row.pop(c) % p
            if not f:
                continue
            tail = pivots.get(c)
            if tail is None:
                s = pow(f, -1, p)
                pivots[c] = {cc: w for cc, v in row.items() if (w := v * s % p)}
                break
            for cc, v in tail.items():
                row[cc] = row.get(cc, 0) - f * v
    return pivots


def _reduced(rows, p: int) -> dict[int, dict[int, int]]:
    """``_echelon`` back-substituted into reduced row echelon form: no
    stored row holds another pivot's column."""
    pivots = _echelon(rows, p)
    for c in sorted(pivots, reverse=True):
        tail = pivots[c]
        for cc in [cc for cc in tail if cc in pivots]:
            f = tail.pop(cc)
            for k, v in pivots[cc].items():
                tail[k] = (tail.get(k, 0) - f * v) % p
        pivots[c] = {k: v for k, v in tail.items() if v}
    return pivots


def rank(rows, p: int) -> int:
    return len(_echelon(rows, p))


def nullspace(rows, ncols: int, p: int) -> Matrix:
    """Basis of the right nullspace of a matrix with ``ncols`` columns: one
    vector per free column of its reduced row echelon form, in increasing
    order, with 1 at that column."""
    pivots = _reduced(rows, p)
    vecs = {f: [(f, 1)] for f in range(ncols) if f not in pivots}
    for c, tail in pivots.items():
        for f, v in tail.items():
            vecs[f].append((c, p - v))
    return tuple(tuple(sorted(v)) for v in vecs.values())


def inv(a: Matrix, p: int) -> Matrix:
    """Inverse of a square matrix, by reducing (a | I)."""
    n = len(a)
    pivots = _reduced([row + ((n + i, 1),) for i, row in enumerate(a)], p)
    if any(c not in pivots for c in range(n)):
        raise SgaError("matrix is singular")
    return tuple(tuple(sorted((c - n, v) for c, v in pivots[i].items()))
                 for i in range(n))


def is_invertible(a: Matrix, p: int) -> bool:
    """Whether a square matrix is invertible."""
    return rank(a, p) == len(a)


def jordan_block(m: int, t: int, p: int) -> Matrix:
    """Lower-triangular Jordan block (ones below the diagonal), the
    convention under which the binomial involution conjugates J to J^-1."""
    return matrix([{i - 1: 1, i: t} if i else {0: t} for i in range(m)], p)
