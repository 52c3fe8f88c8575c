"""Acceptance suite: one test per criterion, each printing a PASS line.
Criterion 8, the dihedral identities, is tested in ``test_repmod.py``
(``test_s_tilde_small`` and ``test_restriction_induction_decomposition``).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The sweeps share session-scoped caches, so the file is intended to
run as a whole.
"""

import time

import pytest

from sga.admissible import (a_of_w, classify, completion, is_admissible, tau_adm,
                            tau_adm_via_successors)
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

from kit import adm_words, colors_of

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
        words = adm_words(q, 8)
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

def test_c2_decorated_quiver(loop_quiver, loopq_words):
    t0 = time.time()
    g = build_HQ(loop_quiver, *loopq_words)
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

    spots = {   # golden spot checks of the color matrix (10+ cells)
        (1, 1): {"purple", "blue"}, (1, 4): {"teal", "blue"},
        (2, 1): {"red"}, (2, 2): {"cyan", "red"}, (2, 4): {"cyan"},
        (3, 1): {"orange", "blue"}, (3, 4): {"blue"}, (3, 5): {"purple"},
        (5, 1): {"orange", "red"}, (5, 3): {"orange"}, (5, 5): {"purple", "red"},
        (6, 4): {"teal", "blue"}, (1, 5): set(), (4, 3): set(),
    }
    for v, want in spots.items():
        ok = ok and colors_of(g, v) == want
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
