"""The Hom oracle's sparse kernel against dense references.

``gf.rank`` eliminates sparse rows in Python integers and ``repmod.hom_rows``
builds the intertwiner system by index arithmetic. Each is checked against
an independent dense route: numpy ``gf.rref`` for the rank, and a Kronecker
product builder (the textbook ``I (x) M(a)^T - N(a) (x) I`` blocks) for the
system.
"""

from pathlib import Path

import numpy as np
import pytest

from sga import gf
from sga.admissible import enumerate_adm
from sga.parsing import parse_quiver
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import (build_module, hom_dim_oracle, hom_rows, hom_system,
                        indecomposables_Ax, module_Vband)

DATA = Path(__file__).parent / "data"


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
                                           M.mats[a.name].T)
        if sn:
            block[:, s0:s0 + sn] -= np.kron(N.mats[a.name],
                                            np.eye(M.dims[s], dtype=np.int64))
        blocks.append(block % p)
    if not blocks:
        return np.zeros((0, cols), dtype=np.int64), span
    return np.concatenate(blocks, axis=0), span


def sparse(a):
    return [{c: int(v) for c, v in enumerate(row) if v} for row in a]


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
        want = len(gf.rref(a, p)[1])
        assert gf.rank(a, p) == want, (a, p)
        assert gf.rank(sparse(a), p) == want, (a, p)


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
            rows = [{j: int(v) for j, v in enumerate(row) if v} for row in raw]
            seen |= {"negative" if v < 0 else "multiple" if v % p == 0
                     else "at least p" if v >= p else "reduced"
                     for row in rows for v in row.values()}
            assert gf.rank(rows, p) == len(gf.rref(raw % p, p)[1]), (raw, p)
    assert seen == {"negative", "multiple", "at least p", "reduced"}
    assert gf.rank([{0: -1, 1: 5}, {0: 4, 1: 10}, {2: 15}], 5) == 1
    assert gf.rank([{0: 7 * 1048573}, {1: -1048574}], 1048573) == 1


def test_hom_system_equals_kron_builder_on_ex1():
    p = 5
    q = parse_quiver((DATA / "ex1.quiver").read_text())
    assert any(a.source == a.target for a in q.arrows)
    sets = enumerate_adm(q, 6)
    words = list(sets.strings) + list(sets.bands)
    reps = [build_module(q, x, X) for x in words
            for X in indecomposables_Ax(x.wtype, 2, p)]
    checked = 0
    for M in reps:
        for N in reps:
            got, span = hom_system(M, N)
            want, want_span = kron_system(M, N)
            assert span == want_span
            assert got.shape == want.shape and np.array_equal(got, want)
            rows, rows_span = hom_rows(M, N)
            assert rows_span == span and len(rows) == got.shape[0]
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
    dense, _ = kron_system(M, M)
    assert dense.shape == (2800, 1600)
    assert hom_dim_oracle(M, M) == dense.shape[1] - len(gf.rref(dense, 5)[1])
