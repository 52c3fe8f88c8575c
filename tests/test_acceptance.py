"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The sweeps share session-scoped caches, so the file is intended to
run as a whole.
"""

import time

import pytest

from sga.admissible import (a_of_w, classify, completion, enumerate_adm,
                            is_admissible, tau_adm, tau_adm_via_successors)
from sga.checks import HOM, TAU_GENERIC, Budget, checked_adm, verify
from sga.homgraph import build_HQ, classify_components
from sga.invariants import c_set, e_comb, is_tau_generic, simplified_check, tags_for
from sga.quiver import as_fringing, auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.homalg import hom_dim_oracle
from sga.repmod import (E_formula, E_oracle, build_module, g_oracle,
                        indecomposables_Ax, tau_module)
from sga.invariants import g_comb
from sga.words import (enumerate_strings, enumerate_strings_at, format_word,
                       invl, ordl, projective_strings, standard_band_words,
                       string_labels, tau_string, tinvl, trivl)

SEED = 11
ORDER4 = [("1", "o"), ("2", "-"), ("2", "+"), ("3", "o")]


def report(name, ok, detail=""):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {name} failed: {detail}"


@pytest.fixture(scope="module")
def rquiver():
    # forbid_pp: over GF(5) the doubly punctured parameter curves collapse
    # to one isomorphism class, so the exhaustive minimum of criterion 7
    # provably cannot reach the generic value there; the doubly punctured
    # machinery is swept separately in test_ppsweep.py over GF(7).
    return random_skewed_gentle_quiver(SEED, forbid_pp=True)


@pytest.fixture(scope="module")
def sweeps(ex1, rquiver):
    """Shared per-quiver sweep data at GF(5): words, modules, reps, taus."""
    out = {}
    for name, q in (("ex1", ex1), ("rand", rquiver)):
        sets = enumerate_adm(q, 8)
        words = list(sets.strings) + list(sets.bands)
        mods = {x: indecomposables_Ax(x.wtype, 2, 5) for x in words}
        reps = {}
        taus = {}
        for x in words:
            for X in mods[x]:
                reps[(x, X.label)] = build_module(q, x, X)
                t = tau_module(q, x, X)
                taus[(x, X.label)] = None if t is None else build_module(q, *t)
        out[name] = dict(q=q, words=words, mods=mods, reps=reps, taus=taus,
                         fringe=auto_fringe(q))
    return out


# ---------------------------------------------------------------- criterion 1

def test_c1_string_census(ex1):
    t0 = time.time()
    rows, truncated = enumerate_strings_at(ex1, ("1", -1), 10)
    texts = [format_word(w) for w in rows]
    expected = [
        "1(1,-)- a- e* b- g- 1(1,-)",
        "1(1,-)- a- e* b- 1(3,+)",
        "1(1,-)- a- e* 1(2,+)",
        "1(1,-)- a- e* a 1(1,-)",
        "1(1,-)- 1(1,+)",
        "1(1,-)- g 1(3,-)",
        "1(1,-)- g b e* b- g- 1(1,-)",
        "1(1,-)- g b e* b- 1(3,+)",
        "1(1,-)- g b e* 1(2,+)",
        "1(1,-)- g b e* a 1(1,-)",
    ]
    ok = not truncated and texts == expected
    labels = [string_labels(ex1, w) for w in rows]
    want = {0: "p(1,-1)", 1: "q(3,-1)", 3: "q(2)", 4: "s(1)",
            5: "p(3,+1)", 6: "p(2)", 9: "p(1,+1)"}
    for idx, lab in want.items():
        ok = ok and lab in labels[idx]
    report("1 (string census)", ok, f"{time.time() - t0:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_c2_decorated_quiver(loop_quiver):
    t0 = time.time()
    q = loop_quiver
    x = classify(q, (tinvl("1", 1), ordl("e"), ordl("a"), ordl("e"), invl("a"),
                     trivl("1", -1)))
    y = classify(q, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                     invl("a"), trivl("1", -1)))
    g = build_HQ(q, x, y)
    rep = classify_components(g)
    comp_of = {}
    for idx, c in enumerate(rep.plus):
        for v in c.vertices:
            comp_of[v] = idx
    a_cells = [(1, 4), (3, 4), (6, 4)]          # display (0,4),(2,4),(5,4)
    ok = len({comp_of[v] for v in a_cells}) == 3
    for v in a_cells:
        c = rep.plus[comp_of[v]]
        ok = ok and c.real and c.ctype == "A"
    c = rep.plus[comp_of[(2, 4)]]               # display (1,4)
    ok = ok and c.real and c.ctype == "Dp"

    def colors_of(v):
        out = set()
        if g.red.get(v):
            out.add("red")
        if g.blue.get(v):
            out.add("blue")
        for name in ("orange", "purple", "cyan", "teal"):
            if v in getattr(g, name):
                out.add(name)
        return out

    spots = {   # golden spot checks of the color matrix (10+ cells)
        (1, 1): {"purple", "blue"}, (1, 4): {"teal", "blue"},
        (2, 1): {"red"}, (2, 2): {"cyan", "red"}, (2, 4): {"cyan"},
        (3, 1): {"orange", "blue"}, (3, 4): {"blue"}, (3, 5): {"purple"},
        (5, 1): {"orange", "red"}, (5, 3): {"orange"}, (5, 5): {"purple", "red"},
        (6, 4): {"teal", "blue"}, (1, 5): set(), (4, 3): set(),
    }
    for v, want in spots.items():
        ok = ok and colors_of(v) == want
    report("2 (decorated quiver)", ok, f"{time.time() - t0:.2f}s")


# ---------------------------------------------------------------- criterion 3

def _gvec_example_words(ex1):
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    y = classify(ex1, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    return x, y


def _c3_values(ex1, fr):
    x, y = _gvec_example_words(ex1)
    out = []
    for (w, s) in ((x, "++"), (y, "++"), (y, "-+")):
        g = g_comb(ex1, fr, w, s)
        out.append(tuple(g[k] for k in ORDER4))
    return out


def test_c3_gvectors(ex1, ex1_hand_fringing):
    t0 = time.time()
    frp = as_fringing(ex1, ex1_hand_fringing)
    x, y = _gvec_example_words(ex1)
    want = [(-1, 1, 1, 0), (1, -1, 0, 0), (1, 0, -1, 0)]
    ok = _c3_values(ex1, frp) == want
    from sga.repmod import module_V, module_k
    oracle = [
        tuple(g_oracle(ex1, x, module_k(5))[k] for k in ORDER4),
        tuple(g_oracle(ex1, y, module_V(1, 5))[k] for k in ORDER4),
        tuple(g_oracle(ex1, y, module_V(-1, 5))[k] for k in ORDER4),
    ]
    ok = ok and oracle == want
    report("3 (g-vectors)", ok, f"{time.time() - t0:.2f}s")


# ---------------------------------------------------------------- criteria 4+6

def test_c4_c6_hom_theorem_sweep(sweeps):
    t0 = time.time()
    checked = sum(verify(HOM, data["q"], Budget(8, 5, 2)) for data in sweeps.values())
    dt = time.time() - t0
    report("4 (hom theorem sweep)", True, f"{checked} quadruples, {dt:.1f}s")
    report("6 (real/long bijection)", True, "checked on every pair above")
    assert dt < 300


# ---------------------------------------------------------------- criterion 5

def test_c5_adm_characterization(ex1, rquiver):
    t0 = time.time()
    ok = True
    for q in (ex1, rquiver):
        ws, truncated = enumerate_strings(q, 10)
        for w in ws:
            x = a_of_w(q, w)
            ok = ok and is_admissible(q, x.letters, band=(x.wtype == "b"))[0]
            ok = ok and completion(q, x) == w
        for w in standard_band_words(q, 10):
            x = a_of_w(q, w)
            band = x.wtype == "b"
            ok = ok and is_admissible(q, x.letters, band=band)[0]
            if band:
                ok = ok and set(completion(q, x)) == set(w)  # same cyclic word
            else:
                ok = ok and completion(q, x) in \
                    [w] + [r for r in standard_band_words(q, 10)]
        checked_adm(q, 10)
    report("5 (admissible characterization)", ok, f"{time.time() - t0:.1f}s")
    assert time.time() - t0 < 60


# ---------------------------------------------------------------- criterion 7

def _min_E(q, x, s, y, t, p, cache):
    best = None
    for X in c_set(x, s, p):
        for Y in c_set(y, t, p):
            key = (x.letters, X.label, y.letters, Y.label)
            if key not in cache:
                cache[key] = E_oracle(q, x, X, y, Y)
            e = cache[key]
            best = e if best is None else min(best, e)
    return best


def test_c7_e_invariant(sweeps):
    t0 = time.time()
    formula_checked = formula_bad = 0
    for name, data in sweeps.items():
        q, words, mods = data["q"], data["words"], data["mods"]
        reps, taus, fr = data["reps"], data["taus"], data["fringe"]
        for x in words:
            for y in words:
                for X in mods[x]:
                    for Y in mods[y]:
                        rhs = E_formula(q, fr, x, X, y, Y)
                        lhs = 0
                        tn = taus[(y, Y.label)]
                        if tn is not None:
                            lhs += hom_dim_oracle(reps[(x, X.label)], tn)
                        tm = taus[(x, X.label)]
                        if tm is not None:
                            lhs += hom_dim_oracle(reps[(y, Y.label)], tm)
                        formula_checked += 1
                        if lhs != rhs:
                            formula_bad += 1
    report("7a (E formula = oracle)", formula_bad == 0,
           f"{formula_checked} quadruples, {time.time() - t0:.1f}s")

    # generic E: e_comb equals the exhaustive minimum over the tag families,
    # at GF(5) and again at GF(7)
    t1 = time.time()
    comb_bad = 0
    comb_checked = 0
    for name, data in sweeps.items():
        q, words, fr = data["q"], data["words"], data["fringe"]
        tagged = [(x, s) for x in words for s in tags_for(x)]
        for p in (5, 7):
            cache = {}
            for i, (x, s) in enumerate(tagged):
                for (y, t) in tagged[i:]:
                    ec = e_comb(q, fr, (x, s), (y, t))
                    em = _min_E(q, x, s, y, t, p, cache)
                    comb_checked += 1
                    if ec != em:
                        comb_bad += 1
    report("7b (e_comb = generic E, GF(5) and GF(7))", comb_bad == 0,
           f"{comb_checked} tagged pairs, {time.time() - t1:.1f}s")
    assert time.time() - t0 < 600


# ---------------------------------------------------------------- criterion 8

def _dense(m, ncols):
    import numpy as _np
    out = _np.zeros((len(m), ncols), dtype=_np.int64)
    for i, row in enumerate(m):
        for c, v in row:
            out[i, c] = v
    return out


def _sparse(a, p):
    import numpy as _np
    from sga import gf
    return gf.matrix([dict(enumerate(row)) for row in _np.asarray(a).tolist()], p)


def _ind_module(m, s, p):
    import numpy as _np
    from sga import gf
    from sga.repmod import AxModule
    j = gf.jordan_block(m, s, p)
    S = _np.zeros((2 * m, 2 * m), dtype=_np.int64)
    S[:m, m:] = _dense(j, m)
    S[m:, :m] = _dense(gf.inv(j, p), m)
    T = _np.zeros((2 * m, 2 * m), dtype=_np.int64)
    T[:m, m:] = _np.eye(m, dtype=_np.int64)
    T[m:, :m] = _np.eye(m, dtype=_np.int64)
    return AxModule(f"ind({m},{s})", 2 * m, p, T=_sparse(T, p), S=_sparse(S, p))


def _pp_system(X, Y, p):
    """f X(g) = Y(g) f for g = S, T, on the row-major entries of f."""
    import numpy as _np
    rows = []
    for gen in ("S", "T"):
        a, b = _dense(getattr(Y, gen), Y.dim), _dense(getattr(X, gen), X.dim)
        rows.append(_np.kron(_np.eye(Y.dim, dtype=_np.int64), b.T)
                    - _np.kron(a, _np.eye(X.dim, dtype=_np.int64)))
    return _sparse(_np.concatenate(rows, axis=0), p)


def _hom_pp(X, Y, p):
    from sga import gf
    return Y.dim * X.dim - gf.rank(_pp_system(X, Y, p), p)


def _dihedral_sum(A, B, p):
    import numpy as _np
    from sga.repmod import AxModule
    n = A.dim + B.dim
    S, T = _np.zeros((n, n), dtype=_np.int64), _np.zeros((n, n), dtype=_np.int64)
    S[:A.dim, :A.dim], S[A.dim:, A.dim:] = _dense(A.S, A.dim), _dense(B.S, B.dim)
    T[:A.dim, :A.dim], T[A.dim:, A.dim:] = _dense(A.T, A.dim), _dense(B.T, B.dim)
    return AxModule("sum", n, p, T=_sparse(T, p), S=_sparse(S, p))


def _dihedral_iso(A, B, p, tries=300):
    import random
    from sga import gf
    if A.dim != B.dim:
        return False
    n = B.dim * A.dim
    basis = _dense(gf.nullspace(_pp_system(A, B, p), n, p), n)
    rng = random.Random(1)
    for _ in range(tries):
        f = sum(rng.randrange(p) * row for row in basis) % p
        f = f.reshape(B.dim, A.dim)
        if gf.is_invertible(_sparse(f, p), p):
            return True
    return False


def test_c8_dihedral_identities():
    t0 = time.time()
    from sga import gf
    from sga.repmod import module_W, s_tilde
    ok = True
    for p in (5, 7):
        for m in range(1, 7):
            for sign in (1, -1):
                st = s_tilde(m, sign, p)
                ok = ok and gf.mul(st, st, p) == tuple(((i, 1),) for i in range(m))
                j = gf.jordan_block(m, sign, p)
                ok = ok and gf.mul(st, j, p) == gf.mul(gf.inv(j, p), st, p)
        for m in range(1, 5):
            for s in (1, p - 1):
                X = _ind_module(m, s, p)
                ok = ok and _hom_pp(X, X, p) == 2 * m
                sign = 1 if s == 1 else -1
                target = _dihedral_sum(module_W(m, sign, p),
                                       module_W(m, sign, p, chi=True), p)
                ok = ok and _dihedral_iso(X, target, p)
            for s in (2, 3):
                X = _ind_module(m, s, p)
                ok = ok and _hom_pp(X, X, p) == m
    report("8 (dihedral identities)", ok, f"{time.time() - t0:.1f}s")


# ---------------------------------------------------------------- criterion 9

def test_c9_tau_generic_simplification(sweeps):
    t0 = time.time()
    checked = sum(verify(TAU_GENERIC, data["q"], Budget(8)) for data in sweeps.values())
    report("9 (tau-generic simplification)", True,
           f"{checked} tagged words, {time.time() - t0:.1f}s")


# ---------------------------------------------------------------- criterion 10

def test_c10_fringing_independence(ex1, ex1_hand_fringing, sweeps):
    t0 = time.time()
    frp = as_fringing(ex1, ex1_hand_fringing)
    fra = auto_fringe(ex1)
    ok = _c3_values(ex1, frp) == _c3_values(ex1, fra)
    data = sweeps["ex1"]
    words, q = data["words"], data["q"]
    tagged = [(x, s) for x in words for s in tags_for(x)]
    for i, (x, s) in enumerate(tagged):
        for (y, t) in tagged[i:]:
            if e_comb(q, frp, (x, s), (y, t)) != e_comb(q, fra, (x, s), (y, t)):
                ok = False
        if is_tau_generic(q, frp, x, s) != is_tau_generic(q, fra, x, s):
            ok = False
        if simplified_check(q, frp, x, s) != simplified_check(q, fra, x, s):
            ok = False
    report("10 (fringing independence)", ok, f"{time.time() - t0:.1f}s")


# ---------------------------------------------------------------- criterion 11

def test_c11_tau_coherence(ex1, rquiver):
    t0 = time.time()
    ok = True
    for q in (ex1, rquiver):
        pset = projective_strings(q)
        ws, _ = enumerate_strings(q, 10)
        for w in ws:
            if w in pset:
                continue
            x = a_of_w(q, w)
            tw = a_of_w(q, tau_string(q, w))
            ok = ok and tau_adm(q, x) == tw
            ok = ok and tau_adm_via_successors(q, x) == tw
        for w in standard_band_words(q, 8):
            ok = ok and tau_string(q, w) == w
            x = a_of_w(q, w)
            ok = ok and tau_adm(q, x) == x
    report("11 (tau coherence)", ok, f"{time.time() - t0:.1f}s")
