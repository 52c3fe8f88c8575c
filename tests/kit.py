"""Helpers shared by the tests: the admissible words of a quiver, the
colours of a product quiver vertex, dense and sparse GF(p) matrices, and
the dihedral reference modules over k[S, T]."""

import random

import numpy as np

from sga import gf
from sga.admissible import enumerate_adm
from sga.homgraph import CIRC, CROSS, PLUS
from sga.repmod import AxModule


def adm_words(q, max_len):
    """The admissible strings of q and then its bands."""
    sets = enumerate_adm(q, max_len)
    return list(sets.strings) + list(sets.bands)


def colors_of(g, v):
    """The colours of vertex v of the product quiver g; a cross arrow's
    source is cyan and target orange, a circle arrow's teal and purple."""
    ends = {PLUS: (), CROSS: ("cyan", "orange"), CIRC: ("teal", "purple")}
    return {name for name in ("red", "blue") if getattr(g, name).get(v)} | \
        {name for a in g.arrows for name, u in zip(ends[a.family], (a.src, a.tgt)) if u == v}


def dense(m, ncols):
    """Sparse rows, as a gf matrix or dicts column -> entry, as a dense
    int64 array with ncols columns."""
    out = np.zeros((len(m), ncols), dtype=np.int64)
    for i, row in enumerate(m):
        for c, v in dict(row).items():
            out[i, c] = v
    return out


def dict_rows(a):
    """A dense array as rows of dicts column -> nonzero entry, unreduced."""
    return [{c: int(v) for c, v in enumerate(row) if v} for row in a]


def sparse(a, p):
    """A dense array as a gf matrix."""
    return gf.matrix(dict_rows(a), p)


def hom_pp_basis(X, Y, p):
    """A basis of the f with f X(g) = Y(g) f for g = S, T, on the row-major
    entries of f."""
    rows = []
    for gen in ("S", "T"):
        a, b = dense(getattr(Y, gen), Y.dim), dense(getattr(X, gen), X.dim)
        rows.append(np.kron(np.eye(Y.dim, dtype=np.int64), b.T)
                    - np.kron(a, np.eye(X.dim, dtype=np.int64)))
    return gf.nullspace(sparse(np.concatenate(rows, axis=0), p), Y.dim * X.dim, p)


def hom_pp(X, Y, p):
    return len(hom_pp_basis(X, Y, p))


def ind_module(m, s, p):
    """R tensor_k[X,X^-1] V_{m,s}; the same block matrices for every s."""
    j = gf.jordan_block(m, s, p)
    S = np.zeros((2 * m, 2 * m), dtype=np.int64)
    S[:m, m:] = dense(j, m)
    S[m:, :m] = dense(gf.inv(j, p), m)
    T = np.zeros((2 * m, 2 * m), dtype=np.int64)
    T[:m, m:] = np.eye(m, dtype=np.int64)
    T[m:, :m] = np.eye(m, dtype=np.int64)
    return AxModule(f"ind({m},{s})", 2 * m, p, T=sparse(T, p), S=sparse(S, p))


def dihedral_direct_sum(A, B, p):
    n = A.dim + B.dim
    S, T = np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    S[:A.dim, :A.dim], S[A.dim:, A.dim:] = dense(A.S, A.dim), dense(B.S, B.dim)
    T[:A.dim, :A.dim], T[A.dim:, A.dim:] = dense(A.T, A.dim), dense(B.T, B.dim)
    return AxModule("sum", n, p, T=sparse(T, p), S=sparse(S, p))


def dihedral_iso(A, B, p, tries=200):
    """Some of ``tries`` random homomorphisms A -> B is invertible."""
    if A.dim != B.dim:
        return False
    basis = dense(hom_pp_basis(A, B, p), B.dim * A.dim)
    rng = random.Random(1)
    for _ in range(tries):
        coeffs = [rng.randrange(p) for _ in basis]
        f = sum(c * row for c, row in zip(coeffs, basis)) % p
        f = f.reshape(B.dim, A.dim)
        if gf.is_invertible(sparse(f, p), p):
            return True
    return False
