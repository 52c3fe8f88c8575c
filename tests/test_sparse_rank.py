"""The GF(p) kernel and the Hom systems against dense references.

``gf`` eliminates sparse rows in Python integers, and ``homalg.hom_rows``
and ``repmod._block_rows`` build equation rows by index arithmetic. Each is
checked against an independent dense route in numpy: ``rref`` below for
``rank``, ``nullspace`` and ``inv``, the matrix product for ``mul``, and
Kronecker products (the textbook ``I (x) M(a)^T - N(a) (x) I`` blocks) for
the systems.
"""

from pathlib import Path

import numpy as np
import pytest

from sga import gf
from sga.admissible import enumerate_adm
from sga.parsing import parse_quiver
from sga.randquiver import random_skewed_gentle_quiver
from sga.errors import SgaError
from sga.homalg import hom_dim_oracle, hom_rows
from sga.repmod import (_block_rows, build_module, hom_system, indecomposables_Ax,
                        module_Vband)

from kit import adm_words, dense, dict_rows, sparse

DATA = Path(__file__).parent / "data"


def rref(a, p):
    """Reduced row echelon form of a dense matrix and its pivot columns."""
    m = np.asarray(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
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
        for rr in np.nonzero(m[:, c])[0]:
            if rr != r:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def kron_system(M, N):
    """Reference builder: one block row per arrow, f_t M(a) - N(a) f_s."""
    q, p = M.q, M.p
    cols = 0
    span = {}
    for v in q.vertices:
        size = N.dims[v] * M.dims[v]
        span[v] = (cols, size)
        cols += size
    blocks = []
    for a in q.arrows:
        s, t = a.source, a.target
        r = N.dims[t] * M.dims[s]
        if r == 0:
            continue
        block = np.zeros((r, cols), dtype=np.int64)
        (t0, tn), (s0, sn) = span[t], span[s]
        if tn:
            block[:, t0:t0 + tn] = np.kron(np.eye(N.dims[t], dtype=np.int64),
                                           dense(M.mats[a.name], M.dims[s]).T)
        if sn:
            block[:, s0:s0 + sn] -= np.kron(dense(N.mats[a.name], N.dims[s]),
                                            np.eye(M.dims[s], dtype=np.int64))
        blocks.append(block % p)
    if not blocks:
        return np.zeros((0, cols), dtype=np.int64), span
    return np.concatenate(blocks, axis=0), span


def random_matrices():
    """About 200 matrices: edge shapes, zeros, repeated rows, low rank."""
    rng = np.random.default_rng(20231)
    out = []
    for p in (3, 5, 7, 1048573):
        out += [(np.zeros(shape, dtype=np.int64), p)
                for shape in ((0, 4), (4, 0), (0, 0), (5, 6))]
        for _ in range(46):
            r, c = rng.integers(1, 13, size=2)
            kind = rng.integers(4)
            if kind == 0:       # dense
                a = rng.integers(0, p, size=(r, c))
            elif kind == 1:     # sparse
                a = rng.integers(0, p, size=(r, c)) * (rng.random((r, c)) < 0.2)
            elif kind == 2:     # low rank: a product through k < min(r, c)
                k = int(rng.integers(0, min(r, c) + 1))
                a = (rng.integers(0, p, size=(r, k)) @ rng.integers(0, p, size=(k, c))) % p
            else:               # repeated and scaled rows
                base = rng.integers(0, p, size=(max(1, r // 3), c))
                idx = rng.integers(0, base.shape[0], size=r)
                a = (base[idx] * rng.integers(1, p, size=(r, 1))) % p
            out.append((np.asarray(a, dtype=np.int64), p))
    return out


def test_rank_sparse_and_dense_equal_rref():
    cases = random_matrices()
    assert len(cases) >= 200
    for a, p in cases:
        want = len(rref(a, p)[1])
        assert gf.rank(sparse(a, p), p) == want, (a, p)
        assert gf.rank(dict_rows(a), p) == want, (a, p)


def test_nullspace_inv_mul_equal_dense():
    """``nullspace`` is the basis read off the dense rref, ``inv`` the right
    half of rref(a | I) or a refusal, ``mul`` the reduced numpy product;
    p = 1048573 puts entries just below ``gf.MAX_FIELD``."""
    rng = np.random.default_rng(20233)
    seen = {"singular": 0, "invertible": 0, "big": 0}
    for a, p in random_matrices():
        rows, cols = a.shape
        red, pivots = rref(a, p)
        free = [c for c in range(cols) if c not in pivots]
        want = np.zeros((len(free), cols), dtype=np.int64)
        for k, c in enumerate(free):
            want[k, c] = 1
            for i, pc in enumerate(pivots):
                want[k, pc] = -red[i, c] % p
        got = gf.nullspace(sparse(a, p), cols, p)
        assert got == sparse(want, p), (a, p)
        assert not (dense(got, cols) @ a.T % p).any()
        b = rng.integers(0, p, size=(cols, int(rng.integers(0, 5))))
        assert dense(gf.mul(sparse(a, p), sparse(b, p), p), b.shape[1]).tolist() \
            == ((a @ b) % p).tolist(), (a, b, p)
        seen["big"] += p == 1048573 and bool(a.any())
        if rows != cols:
            continue
        red, pivots = rref(np.concatenate([a, np.eye(rows, dtype=np.int64)], axis=1), p)
        if pivots[:rows] == list(range(rows)):
            seen["invertible"] += 1
            assert gf.inv(sparse(a, p), p) == sparse(red[:, rows:], p), (a, p)
            assert gf.is_invertible(sparse(a, p), p)
        else:
            seen["singular"] += 1
            assert not gf.is_invertible(sparse(a, p), p)
            with pytest.raises(SgaError):
                gf.inv(sparse(a, p), p)
    assert min(seen.values()) >= 3, seen


def test_block_rows_match_numpy_kron():
    """The rows of c1 P1 f Q1 + c2 P2 f Q2 = 0 on the row-major entries of an
    m x n block f are the Kronecker matrix c1 P1 (x) Q1^T + c2 P2 (x) Q2^T;
    a None factor is the identity."""
    rng = np.random.default_rng(0)
    for p in (7, gf.MAX_FIELD - 3):
        for m in (1, 2, 3):
            for n in (1, 2, 4):
                for none_p, none_q in ((0, 0), (1, 0), (0, 1), (1, 1)):
                    P = rng.integers(0, p, size=(m, m))
                    Q = rng.integers(0, p, size=(n, n))
                    P2 = rng.integers(0, p, size=(m, m))
                    Q2 = rng.integers(0, p, size=(n, n))
                    if none_p:
                        P = np.eye(m, dtype=np.int64)
                    if none_q:
                        Q = np.eye(n, dtype=np.int64)
                    terms = ((1, None if none_p else sparse(P, p),
                              None if none_q else sparse(Q, p)),
                             (-1, sparse(P2, p), sparse(Q2, p)))
                    got = dense(_block_rows(terms, m, n), m * n) % p
                    want = (np.kron(P, Q.T) - np.kron(P2, Q2.T)) % p
                    assert got.tolist() == want.tolist(), (p, m, n, none_p, none_q)


def test_rank_does_not_modify_its_rows():
    rows = [{0: 2, 3: 1}, {0: 4, 3: 2}, {1: 1}]
    copy = [dict(r) for r in rows]
    assert gf.rank(rows, 5) == 2
    assert rows == copy
    # rows with no entries, as hom_rows emits them, are skipped
    assert gf.rank([{}, {0: 3}, {}], 5) == 1 and gf.rank([{}, {}], 5) == 0


def test_rank_of_unreduced_sparse_rows():
    """Values may be negative, nonzero multiples of p or at least p; only
    their residues count."""
    rng = np.random.default_rng(20232)
    seen = set()
    for p in (3, 5, 7, 1048573):
        for _ in range(40):
            r, c = rng.integers(1, 9, size=2)
            reduced = rng.integers(0, p, size=(r, c)) * (rng.random((r, c)) < 0.5)
            raw = reduced + rng.integers(-3, 4, size=(r, c)) * p
            rows = dict_rows(raw)
            seen |= {"negative" if v < 0 else "multiple" if v % p == 0
                     else "at least p" if v >= p else "reduced"
                     for row in rows for v in row.values()}
            assert gf.rank(rows, p) == len(rref(raw % p, p)[1]), (raw, p)
    assert seen == {"negative", "multiple", "at least p", "reduced"}
    assert gf.rank([{0: -1, 1: 5}, {0: 4, 1: 10}, {2: 15}], 5) == 1
    assert gf.rank([{0: 7 * 1048573}, {1: -1048574}], 1048573) == 1


def test_hom_system_equals_kron_builder_on_ex1():
    p = 5
    q = parse_quiver((DATA / "ex1.quiver").read_text())
    assert any(a.source == a.target for a in q.arrows)
    reps = [build_module(q, x, X) for x in adm_words(q, 6)
            for X in indecomposables_Ax(x.wtype, 2, p)]
    checked = 0
    for M in reps:
        for N in reps:
            got, span = hom_system(M, N)
            want, want_span = kron_system(M, N)
            assert span == want_span
            assert len(got) == want.shape[0]
            assert all(len(row) == want.shape[1] for row in got)
            assert got == want.tolist()
            rows, rows_span = hom_rows(M, N)
            assert rows_span == span and len(rows) == len(got)
            checked += 1
    assert len(reps) == 30 and checked == 900


@pytest.fixture(scope="module")
def large_band_module():
    q = random_skewed_gentle_quiver(7, max_words=150)
    sets = enumerate_adm(q, 8)
    band = max(sets.bands, key=lambda b: (len(b.letters), repr(b)))
    return build_module(q, band, module_Vband(10, 3, 5))


def test_hom_dim_oracle_on_large_band_system(large_band_module):
    M = large_band_module
    system, _ = kron_system(M, M)
    assert system.shape == (2800, 1600)
    assert hom_dim_oracle(M, M) == system.shape[1] - len(rref(system, 5)[1])
