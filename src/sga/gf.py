"""Exact linear algebra over GF(p) for an odd prime p.

Matrices are numpy int64 arrays with entries reduced mod p. Two exact
kernels eliminate:

- ``rank`` runs an online elimination in Python integers over sparse rows
  (``dict`` column -> value), so the small, structurally sparse intertwiner
  systems of the Hom oracle cost only their nonzeros; a dense matrix is
  turned into such rows first. It works on a plain copy of each row and
  reduces an entry mod p only when the entry comes up as a pivot candidate.
- ``rref`` is a Python loop over columns with numpy row arithmetic; it
  serves ``nullspace`` and ``inv``, whose dense systems it handles faster.
"""

from __future__ import annotations

import numpy as np

from .errors import SgaError


# Fields must be smaller than this: a product of two reduced entries is then
# below 2^40, so int64 matrix products and eliminations cannot overflow.
MAX_FIELD = 1 << 20


def check_prime(p: int) -> None:
    if p >= MAX_FIELD:
        raise SgaError(f"field size must be below 2^20, got {p}")
    if p == 2:
        raise SgaError("characteristic 2 is not supported")
    if p < 3 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise SgaError(f"field size must be an odd prime, got {p}")


def mat(rows, p: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64) % p


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=np.int64)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a @ b) % p


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    m = a.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = nz[0] + r
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        other = np.nonzero(m[:, c])[0]
        for rr in other:
            if rr != r:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray | list[dict[int, int]], p: int) -> int:
    """Rank of a matrix given as an ndarray or as sparse rows (column ->
    integer value, reduced mod p or not); the rows are not modified.

    Online elimination: each row is reduced by the stored pivot row of its
    least column until it vanishes or opens a new pivot. Entries are
    reduced lazily: the least column's entry is taken mod p when it is
    popped, and skipped if that is 0. A stored row is normalised to a
    leading 1, which is left implicit, and keeps only the nonzero columns
    after its pivot, so every reduction raises the least column.
    """
    if isinstance(a, np.ndarray):
        dense = a % p
        rs, cs = np.nonzero(dense)
        a = [{} for _ in range(dense.shape[0])]
        for r, c, v in zip(rs.tolist(), cs.tolist(), dense[rs, cs].tolist()):
            a[r][c] = v
    pivots: dict[int, dict[int, int]] = {}
    for row in a:
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
    return len(pivots)


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace as rows of the returned matrix."""
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0)
    if rows == 0:
        return eye(cols)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(len(free), cols)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, c]) % p
    return basis


def inv(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    aug = np.concatenate([a % p, eye(n)], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise SgaError("matrix is singular")
    return r[:, n:]


def kron(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast product; entries
    reduced mod p stay below 2^40, so int64 is exact."""
    (m, n), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * r, n * s) % p


def jordan_block(m: int, t: int, p: int) -> np.ndarray:
    """Lower-triangular Jordan block (ones below the diagonal), the
    convention under which the binomial involution conjugates J to J^-1."""
    j = (np.eye(m, dtype=np.int64) * (t % p)) % p
    for i in range(m - 1):
        j[i + 1, i] = 1
    return j


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]
