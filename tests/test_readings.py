"""The ray readings: each word is unfolded once per reading, and the rays
cut from that unfolding are the rays of the letter-by-letter reading below,
kept here as the reference.

Covered: every vertex, rho and delta of every admissible word at max-len 8
of ex1 and of the seed-7, 9, 11 (no doubly punctured strings) and 42 random
quivers, and of the fringed translate of each word in the auto-fringed
quiver.
"""

from collections import Counter
from functools import partial

import pytest

from sga import admissible, homgraph
from sga.admissible import (PUNCT, _inv_keep_mark, _subst, _unfold, doublebar_ray,
                            enumerate_adm, f_letter, hat_of, hat_ray, tau_adm)
from sga.homgraph import build_H
from sga.invariants import kiss_census
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.words import Letter, Ray, letter_target


def _ray_from(letters, offset, periodic, i, forward, delta=0):
    """The ray at i of an unfolded reading, letter by letter."""
    n = len(letters)
    if periodic:
        if forward:
            start = (offset + i) % n
            per = letters[start:] + letters[:start]
        else:
            per = [_inv_keep_mark(letters[(offset + i - 1 - j) % n]) for j in range(n)]
        return Ray((), tuple(_subst(l, delta) for l in per))
    idx = offset + i
    if forward:
        pre = letters[idx:]
    else:
        pre = [_inv_keep_mark(letters[j]) for j in range(idx - 1, -1, -1)]
    return Ray(tuple(_subst(l, delta) for l in pre))


def _reference(q, x, i, rho, delta=None):
    """The ray read at i towards rho, unfolding x again for this one ray:
    the doublebar reading over q when delta is None, else the hat reading
    over its companion quiver; interned in the quiver's store ``rays``."""
    if delta is None:
        over, f = q, partial(f_letter, q)
        letters, offset, periodic = _unfold(x, f, f)
    else:
        def mark(l):
            return Letter(PUNCT, q.special_loop_at(l.vertex).name)
        over = hat_of(q)
        letters, offset, periodic = _unfold(x, lambda l: l, mark)
    here = letters[(offset + i) % len(letters)] if periodic else letters[offset + i]
    t1 = -1 if here.kind == PUNCT else letter_target(over, here)[1]
    r = _ray_from(letters, offset, periodic, i, t1 == rho, delta or 0)
    return over.store("rays").setdefault(r.key, r)


@pytest.mark.parametrize("seed", [None, 7, 9, 11, 42],
                         ids=lambda s: "ex1" if s is None else f"seed{s}")
def test_readings_equal_the_reference(ex1, seed):
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    fr = auto_fringe(q)
    sets = enumerate_adm(q, 8)
    words = sets.strings + sets.bands
    hats = 0
    for qq, x in [(q, x) for x in words] + [(fr.extended, tau_adm(fr.extended, x))
                                            for x in words]:
        for i in build_H(qq, x).vertices:
            for rho in (-1, 1):
                got = doublebar_ray(qq, x, i, rho)
                assert _reference(qq, x, i, rho) is got, (x, i, rho)
                for delta in (-1, 1):
                    got = hat_ray(qq, x, i, rho, delta)
                    assert _reference(qq, x, i, rho, delta) is got, (x, i, rho, delta)
                    hats += 1
    assert hats > 4 * len(words)


def test_each_reading_unfolds_once(monkeypatch):
    """An all-pairs census unfolds each word at most once per quiver and
    reading, however many of its rays it reads: the first-use pass of each
    winding and the doublebar reads of ``red_blue`` share the memoised
    readings."""
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    fr = auto_fringe(q)
    unfold, within = admissible._unfold, []
    unfolds, rays = Counter(), Counter()

    def counted_unfold(*args):
        if within:
            unfolds[within[-1]] += 1
        return unfold(*args)

    def counted(qq, x, hat):
        within.append((qq, x, "hat" if hat else "bar"))
        try:
            return read(qq, x, hat)
        finally:
            within.pop()

    def counted_rays(self, vertices):
        got = read_rays(self, vertices)
        rays[self.over] += len(got)
        return got

    read, read_rays = admissible.reading, admissible.Reading.rays
    monkeypatch.setattr(admissible, "_unfold", counted_unfold)
    monkeypatch.setattr(admissible, "reading", counted)
    monkeypatch.setattr(homgraph, "reading", counted)
    monkeypatch.setattr(admissible.Reading, "rays", counted_rays)
    sets = enumerate_adm(q, 6)
    ws = list(sets.strings) + list(sets.bands)
    for x in ws:
        for y in ws:
            kiss_census(q, fr, x, y)
    assert {kind for _, _, kind in unfolds} == {"bar", "hat"}
    assert sum(rays.values()) > 4 * len(unfolds)
    assert max(unfolds.values()) == 1
