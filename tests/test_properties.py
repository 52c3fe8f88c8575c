"""Structural properties promised beyond the worked examples."""

from sga import gf
from sga.admissible import classify, doublebar_ray, enumerate_adm, hat_of, hat_ray
from sga.checks import KISS_TRANSPORT
from sga.cli import main
from sga.homgraph import PLUS, build_HQ, classify_components, generalized_diagonal
from sga.quiver import Arrow, PolarizedQuiver, auto_fringe, validate
from sga.randquiver import random_skewed_gentle_quiver
from sga.homalg import iso_witness
from sga.repmod import build_module, module_Vband
from sga.words import invl, ordl, ray_compare, rotations, tinvl, trivl, winv


def _admissible_by_path_enumeration(q, bound):
    """Exhaustive oracle: finitely many admissible paths iff no path of
    length |arrows|+1 exists (a longer path must revisit an arrow)."""
    arrows = list(q.arrows)
    frontier = [(a,) for a in arrows]
    for _ in range(bound):
        nxt = []
        for path in frontier:
            last = path[-1]
            for a in arrows:
                if a.s_slot == (last.t_slot[0], -last.t_slot[1]):
                    nxt.append(path + (a,))
        if not nxt:
            return True
        frontier = nxt
    return False


def test_validate_matches_path_enumeration(ex1, loop_quiver):
    for q in (ex1, loop_quiver,
              PolarizedQuiver(["1"], [Arrow("a", "1", 1, "1", -1)]),
              random_skewed_gentle_quiver(3)):
        bound = len(q.arrows) + 1
        assert validate(q).is_admissible == \
            _admissible_by_path_enumeration(q, bound)


def test_enumerate_bands_contains_folded_completion(loop_quiver):
    from sga.admissible import completion
    from sga.words import band_canonical, enumerate_bands
    y = classify(loop_quiver, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"),
                               ordl("e"), invl("a"), trivl("1", -1)))
    bar = completion(loop_quiver, y)
    bands = enumerate_bands(loop_quiver, 12)
    assert band_canonical(bar) in bands


def test_auto_fringe_complete_quiver_is_identity(ex1):
    fr = auto_fringe(ex1)
    fr2 = auto_fringe(fr.extended)
    # only the fringe vertices of the first stage still have empty slots
    assert set(fr2.extended.vertices) - set(fr.extended.vertices)
    # interior slots of the original quiver stay untouched
    for a in fr2.extended.arrows:
        if a.name in fr.extended.by_name:
            b = fr.extended.by_name[a.name]
            assert (a.source, a.s_sign, a.target, a.t_sign) == \
                (b.source, b.s_sign, b.target, b.t_sign)


def test_lem_ged_sampled(loop_quiver):
    """hat-minus domination implies double-bar domination, vertexwise."""
    q = loop_quiver
    h = hat_of(q)
    x = classify(q, (tinvl("1", 1), ordl("e"), ordl("a"), ordl("e"), invl("a"),
                     trivl("1", -1)))
    y = classify(q, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                     invl("a"), trivl("1", -1)))
    g = build_HQ(q, x, y)
    for (j, i) in g.vertices:
        dominated = all(
            ray_compare(h, hat_ray(q, y, j, rho, -1),
                        hat_ray(q, x, i, rho, -1))[0] in ("<", "=")
            for rho in (-1, 1))
        if dominated:
            for rho in (-1, 1):
                rel = ray_compare(q, doublebar_ray(q, y, j, rho),
                                  doublebar_ray(q, x, i, rho))[0]
                assert rel in ("<", "="), (j, i, rho)


def test_gentle_case_hline_notions_coincide(ex1):
    """Without special arrows the three h-line notions agree componentwise."""
    h = hat_of(ex1)
    assert validate(h).is_gentle
    sets = enumerate_adm(h, 7)
    words = list(sets.strings)[:10]
    for x in words:
        for y in words[:6]:
            g = build_HQ(h, x, y)
            assert all(a.family == PLUS for a in g.arrows)
            rep = classify_components(g)
            reals = sum(1 for c in rep.plus if c.real)
            hlines = sum(1 for c in rep.plus if c.hline)
            longs = sum(1 for c in rep.full if c.long)
            assert reals == hlines == longs


def test_cyclic_components_only_for_bands(loop_quiver):
    q = loop_quiver
    y = classify(q, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                     invl("a"), trivl("1", -1)))
    x = classify(q, (tinvl("1", 1), ordl("e"), ordl("a"), ordl("e"), invl("a"),
                     trivl("1", -1)))
    g = build_HQ(q, x, y)
    rep = classify_components(g)
    for c in rep.plus:
        if c.ctype in ("At", "Dpt"):
            assert generalized_diagonal(g, c)
    gy = build_HQ(q, y, y)
    repy = classify_components(gy)
    assert any(c.ctype == "Dpt" and generalized_diagonal(gy, c)
               for c in repy.plus)


def test_band_rotation_iso():
    q = random_skewed_gentle_quiver(9)
    sets = enumerate_adm(q, 8)
    band = sets.bands[0]
    X = module_Vband(1, 2, 5)
    M = build_module(q, band, X)
    for r in rotations(band.letters):
        from sga.admissible import AdmWord
        N = build_module(q, AdmWord(r, "b"), X)
        assert iso_witness(M, N) is not None


def test_two_symmetric_strings_in_st1minus(ex1):
    from sga.words import enumerate_strings_at
    rows, _ = enumerate_strings_at(ex1, ("1", -1), 10)
    assert sum(1 for w in rows if winv(w) == w) == 2


def test_unpunctured_pairs_no_loops_hline_is_real(ex1):
    # without punctured letters the product quiver has no loops and every
    # h-line is a real h-line
    sets = enumerate_adm(ex1, 8)
    uu = [x for x in sets.strings if x.wtype == "uu"][:8]
    for x in uu:
        for y in uu:
            g = build_HQ(ex1, x, y)
            assert not any(a.src == a.tgt for a in g.arrows)
            rep = classify_components(g)
            for c in rep.plus:
                assert c.hline == c.real


def test_kiss_transport_with_bands():
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    fr = auto_fringe(q)
    sets = enumerate_adm(q, 8)
    band = sets.bands[0]
    words = [band] + [x for x in sets.strings if x.wtype != "uu"][:4] + \
        [x for x in sets.strings if x.wtype == "uu"][:4]
    for k, x in enumerate(words):
        assert KISS_TRANSPORT.run(q, fr, x, words[k:]) is None, str(x)


def _negate_special_loops(M):
    import copy
    out = copy.deepcopy(M)
    for a in M.q.special_arrows:
        out.mats[a.name] = gf.neg(out.mats[a.name], M.p)
    return out


def test_sign_flip_realized_by_parity_twist():
    """Negating every special loop matrix of a band module is realized by
    flipping the band parameter exactly when the band passes through an odd
    number of special letters; strings always flip."""
    from sga.admissible import AdmWord
    from sga.repmod import chi_twist, module_V, module_Vband
    cases = []
    q_odd = random_skewed_gentle_quiver(11, forbid_pp=True)
    cases.append((q_odd, enumerate_adm(q_odd, 8).bands[0]))
    q_even = random_skewed_gentle_quiver(42)      # band through two loops
    beven = enumerate_adm(q_even, 8).bands[0]
    n_special = sum(1 for l in beven.letters
                    if q_even.by_name[l.name].special)
    assert n_special == 2
    cases.append((q_even, beven))
    for q, band in cases:
        for t in (1, 2, 3):
            X = module_Vband(1, t, 5)
            M = build_module(q, band, X)
            twisted = build_module(q, band, chi_twist(q, band, X))
            assert iso_witness(_negate_special_loops(M), twisted) is not None
            odd = sum(1 for l in band.letters
                      if q.by_name[l.name].special) % 2
            wrong = module_Vband(1, t if odd else -t, 5)
            if (-t) % 5 != t % 5:
                assert iso_witness(_negate_special_loops(M),
                                   build_module(q, band, wrong)) is None
    # strings with a punctured end: the sign twist flips the tag component
    q = q_odd
    up = [x for x in enumerate_adm(q, 8).strings if x.wtype == "up"][0]
    for sign in (1, -1):
        X = module_V(sign, 5)
        M = build_module(q, up, X)
        twisted = build_module(q, up, chi_twist(q, up, X))
        assert iso_witness(_negate_special_loops(M), twisted) is not None
        assert iso_witness(_negate_special_loops(M),
                           build_module(q, up, X)) is None


def test_cli_hquiver_nonadmissible(capsys):
    import os
    unb = os.path.join(os.path.dirname(__file__), "data", "unbounded.quiver")
    rc = main(["hquiver", unb, "--allow-nonadmissible",
               "--x", "1(1,+)- e a e a- 1(1,-)",
               "--y", "1(1,-)- a e a e a- 1(1,-)"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Dp:" in out and "A:" in out
    rc = main(["hquiver", unb, "--allow-nonadmissible",
               "--x", "1(1,+)- e a e a- 1(1,-)", "--dot"])
    assert rc == 0
    assert "digraph" in capsys.readouterr().out
