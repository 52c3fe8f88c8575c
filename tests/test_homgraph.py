import hashlib
from collections import Counter

import pytest

from sga.admissible import (classify, enumerate_adm, is_projective_adm, tau_adm,
                            tau_adm_via_successors)
from sga.errors import IsProjective
from sga.checks import KISS_TRANSPORT, REAL_LONG, Budget, verify
from sga.homgraph import (PLUS, build_H, build_HQ, classify_components,
                          real_long_bijection, to_dot)
from sga.quiver import PolarizedQuiver, as_fringing, auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.words import invl, ordl, tinvl, trivl

from kit import adm_words, colors_of


def test_build_H_translate_chain(ex1_hand_fringing):
    qf = ex1_hand_fringing
    x = classify(qf, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                      trivl("3", 1)))
    tx = tau_adm(qf, x)
    h = build_H(qf, tx)
    assert h.shape == "A"
    assert [h.vlabel[i] for i in h.vertices] == ["6", "1", "3", "2", "2", "3", "1", "5"]
    # one proper source (two edges out) labeled 2, one proper sink labeled 1
    sources = [v for v in h.vertices
               if sum(1 for e in h.edges if e.src == v) == 2]
    sinks = [v for v in h.vertices
             if sum(1 for e in h.edges if e.tgt == v) == 2]
    assert [h.vlabel[v] for v in sources] == ["2"]
    assert [h.vlabel[v] for v in sinks] == ["1"]


def test_build_H_translate_with_loop(ex1_hand_fringing):
    qf = ex1_hand_fringing
    y = classify(qf, (tinvl("2", -1), ordl("a"), trivl("1", -1)))
    ty = tau_adm(qf, y)
    h = build_H(qf, ty)
    assert h.shape == "Dp"
    assert [h.vlabel[i] for i in h.vertices] == ["2", "1", "6"]
    assert len(h.loops) == 1 and h.loops[0].image == "e"
    assert 3 in h.boundary and 1 not in h.boundary


def test_boundary_conventions(ex1, loop_quiver):
    # ordinary simple: isolated vertex is boundary
    s1 = classify(ex1, (tinvl("1", -1), trivl("1", 1)))
    h = build_H(ex1, s1)
    assert 1 in h.boundary
    # simple at the special vertex: single vertex with a loop is boundary
    s2 = classify(ex1, (tinvl("2", 1), trivl("2", -1)))
    h2 = build_H(ex1, s2)
    assert h2.shape == "Dp" and 1 in h2.boundary


# golden color matrix for the loop-quiver pair; rows are H(y) vertices
# shifted down by one (0..5), columns H(x) vertices 1..5.
LOOPQ_COLORS = {
    (0, 1): {"purple", "blue"}, (0, 2): {"teal"}, (0, 3): {"purple", "blue"},
    (0, 4): {"teal", "blue"}, (0, 5): set(),
    (1, 1): {"red"}, (1, 2): {"cyan", "red"}, (1, 3): set(),
    (1, 4): {"cyan"}, (1, 5): {"teal", "red"},
    (2, 1): {"orange", "blue"}, (2, 2): set(), (2, 3): {"orange", "blue"},
    (2, 4): {"blue"}, (2, 5): {"purple"},
    (3, 1): {"red"}, (3, 2): {"cyan", "red"}, (3, 3): set(),
    (3, 4): {"cyan"}, (3, 5): {"teal", "red"},
    (4, 1): {"orange", "red"}, (4, 2): {"red"}, (4, 3): {"orange"},
    (4, 4): set(), (4, 5): {"purple", "red"},
    (5, 1): {"purple", "blue"}, (5, 2): {"teal"}, (5, 3): {"purple", "blue"},
    (5, 4): {"teal", "blue"}, (5, 5): set(),
}


def test_loopq_color_matrix(loop_quiver, loopq_words):
    x, y = loopq_words
    g = build_HQ(loop_quiver, x, y)
    assert len(g.vertices) == 30
    for (dj, di), expected in LOOPQ_COLORS.items():
        v = (dj + 1, di)
        assert colors_of(g, v) == expected, f"colors at display {(dj, di)}"
    # loops of the product quiver sit at the (0,5) and (5,5) display cells
    loop_vs = {a.src for a in g.arrows if a.src == a.tgt}
    assert loop_vs == {(1, 5), (6, 5)}


def test_loopq_component_claims(loop_quiver, loopq_words):
    x, y = loopq_words
    g = build_HQ(loop_quiver, x, y)
    rep = classify_components(g)
    comp_of = {}
    for idx, c in enumerate(rep.plus):
        for v in c.vertices:
            comp_of[v] = idx
    a_cells = [(1, 4), (3, 4), (6, 4)]  # display (0,4),(2,4),(5,4)
    idxs = {comp_of[v] for v in a_cells}
    assert len(idxs) == 3
    for i in idxs:
        assert rep.plus[i].real and rep.plus[i].ctype == "A"
    d_idx = comp_of[(2, 4)]           # display (1,4)
    assert rep.plus[d_idx].real and rep.plus[d_idx].ctype == "Dp"


def test_loopq_val_and_red(loop_quiver, loopq_words):
    x, y = loopq_words
    g = build_HQ(loop_quiver, x, y)
    val = Counter()         # a loop counts once, any other arrow at both ends
    for a in g.arrows:
        val.update({a.src, a.tgt})
    for v in g.vertices:
        assert val[v] <= 2
        if g.red.get(v):
            assert val[v] <= 1
        # orange and purple never together; at most one structural color
        marks = colors_of(g, v) - {"red", "blue"}
        assert not {"orange", "purple"} <= marks
        assert len(marks) <= 1


def test_loopq_loops_on_real_or_dual(loop_quiver, loopq_words):
    x, y = loopq_words
    g = build_HQ(loop_quiver, x, y)
    rep = classify_components(g)
    for idx, c in enumerate(rep.plus):
        if any(a.src == a.tgt for a in c.arrows):
            assert c.real or c.dual_real


def test_real_long_bijection_loopq(loop_quiver, loopq_words):
    x, y = loopq_words
    for (u, v) in [(x, y), (y, x), (x, x), (y, y)]:
        g = build_HQ(loop_quiver, u, v)
        rep = classify_components(g)
        real_long_bijection(g, rep)


def test_dual_symmetry(loop_quiver, loopq_words):
    x, y = loopq_words
    g = build_HQ(loop_quiver, x, y)
    gd = build_HQ(loop_quiver, y, x)
    rep, repd = classify_components(g), classify_components(gd)

    def real_vertices(r):
        return {v for c in r.plus if c.real for v in c.vertices}

    def dual_real_vertices(r):
        return {v for c in r.plus if c.dual_real for v in c.vertices}

    assert {(i, j) for (j, i) in dual_real_vertices(rep)} == real_vertices(repd)
    assert {(i, j) for (j, i) in real_vertices(rep)} == dual_real_vertices(repd)


def test_diagonal_not_kiss_for_strings(ex1):
    s1 = classify(ex1, (tinvl("1", -1), trivl("1", 1)))
    g = build_HQ(ex1, s1, s1)
    rep = classify_components(g)
    assert len(rep.plus) == 1
    assert rep.plus[0].real and not rep.plus[0].kiss
    s2 = classify(ex1, (tinvl("2", 1), trivl("2", -1)))
    g2 = build_HQ(ex1, s2, s2)
    rep2 = classify_components(g2)
    reals = [c for c in rep2.plus if c.real]
    assert reals and all(not c.kiss for c in reals)


def test_band_real_hlines_are_kisses(loop_quiver, loopq_words):
    _, y = loopq_words   # (p,p) word, morally a band object
    g = build_HQ(loop_quiver, y, y)
    rep = classify_components(g)
    for c in rep.plus:
        if c.real:
            assert c.kiss


def real_hlines(q, x, y):
    """The real h-lines of (x, y): the h-triples, as the real-long check
    proves."""
    assert REAL_LONG.run(q, x, y) is None
    return [c for c in classify_components(build_HQ(q, x, y)).plus if c.real]


def test_triples_simple_example(ex1):
    # triples against the simple at an ordinary vertex: sources of H(x) over it
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    s3 = classify(ex1, (tinvl("3", 1), trivl("3", -1)))
    ts = real_hlines(ex1, x, s3)
    h = build_H(ex1, x)
    sources = [v for v in h.vertices if h.vlabel[v] == "3"
               and not any(e.tgt == v for e in h.edges)
               and not any(l.vertex == v for l in h.loops)]
    assert len(ts) == len(sources)


def test_triples_special_simple(ex1):
    # at the special vertex: at most two D'-triples, given by the special
    # vertices of H(x) not hit by an ordinary arrow (top condition)
    s2 = classify(ex1, (tinvl("2", 1), trivl("2", -1)))
    for letters in [
        (tinvl("1", -1), invl("a"), trivl("2", -1)),      # loop vertex has an
        (tinvl("1", -1), ordl("g"), ordl("b"), trivl("2", -1)),  # incoming edge / not
        (tinvl("2", 1), trivl("2", -1)),                  # lone loop vertex
    ]:
        x = classify(ex1, letters)
        ts = real_hlines(ex1, x, s2)
        dts = [t for t in ts if t.ctype == "Dp"]
        assert len(dts) <= 2
        h = build_H(ex1, x)
        special_top = [v for v in h.vertices
                       if any(l.vertex == v for l in h.loops)
                       and not any(e.tgt == v for e in h.edges)]
        assert len(dts) == len(special_top), str(x)


def test_triples_count_nonzero(ex1):
    # this word's module has top S(2,+) + S(2,-): one A-triple towards s2
    x = classify(ex1, (tinvl("1", -1), ordl("g"), ordl("b"), ordl("e"), invl("b"),
                       trivl("3", 1)))
    s2 = classify(ex1, (tinvl("2", 1), trivl("2", -1)))
    ts = real_hlines(ex1, x, s2)
    assert len(ts) == 1 and ts[0].ctype == "A"


def test_kiss_transport_ex1(ex1, ex1_hand_fringing):
    """Kiss transport holds with the hand fringing on ten strings, and with
    the automatic one on every pair at max-len 8: in both, the kisses by
    type are the real h-lines towards the plain translate, none when y is
    projective."""
    fr = as_fringing(ex1, ex1_hand_fringing)
    words = list(enumerate_adm(ex1, 8).strings)[:10]
    for k, x in enumerate(words):
        assert KISS_TRANSPORT.run(ex1, fr, x, words[k:]) is None, str(x)
    n = verify(KISS_TRANSPORT, ex1, Budget(8))   # one case per word
    assert n == 26 and KISS_TRANSPORT.summary(n) == "kiss transport ok on 676 pairs"


def test_to_dot_stable(loop_quiver, loopq_words):
    x, y = loopq_words
    g = build_HQ(loop_quiver, x, y)
    d1, d2 = to_dot(g), to_dot(g)
    assert d1 == d2 and d1.startswith("digraph")


DOT_DIGEST = "580bff6836ec1d535a0c207b6d134707d09bb1f915649728be73c3c6050bb1fd"


def test_to_dot_all_pairs_digest(ex1):
    """Byte-exact pin of ``to_dot``, colours included, on every ordered pair
    of the words of ex1 and seed 9 at max-len 6 and of their fringed translates."""
    graphs = []
    for q in (ex1, random_skewed_gentle_quiver(9)):
        words = adm_words(q, 6)
        qf = auto_fringe(q).extended
        for over, ws in ((q, words), (qf, [tau_adm(qf, x) for x in words])):
            graphs += [build_HQ(over, x, y) for x in ws for y in ws]
    assert (len(graphs), sum(any(a.family != PLUS for a in g.arrows) for g in graphs)) \
        == (4194, 2418)
    text = "".join(to_dot(g) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_DIGEST


@pytest.mark.parametrize("seed", [None, 11])
def test_tau_adm_memoised_on_base_and_fringed_quiver(ex1, seed):
    """A repeat returns the identical translate, in the base quiver and in
    its fringing; a projective raises again on each call."""
    q = PolarizedQuiver(ex1.vertices, ex1.arrows) if seed is None else \
        random_skewed_gentle_quiver(seed, forbid_pp=True)
    fr = auto_fringe(q)
    words = adm_words(q, 8)
    projective = {x for x in words if is_projective_adm(q, x)}
    assert projective and not any(is_projective_adm(fr.extended, x) for x in words)
    for over in (q, fr.extended):
        for x in words:
            if over is q and x in projective:
                for _ in range(2):
                    with pytest.raises(IsProjective):
                        tau_adm(q, x)
                continue
            tx = tau_adm(over, x)
            assert tau_adm(over, x) is tx
            assert tx == tau_adm_via_successors(over, x)
    assert set(q.store("tau_adm")) == {(x,) for x in words if x not in projective}
    assert set(fr.extended.store("tau_adm")) == {(x,) for x in words}
