"""The interned rays and the memoised ray order: ``ray_compare`` against the
unmemoised scan on every ray pair a census compares and against a
letter-by-letter reference scan on every pair of rays read, ``Ray.prefix``,
the kept hash of ``Ray``, one object per ray content, no scan repeated by
a census, and the ray labels against ``ray_compare`` on every pair of
interned rays, also when chains run out of labels or meet an equal ray."""

import os
import pickle
import subprocess
import sys
from collections import defaultdict
from math import gcd

import pytest

from sga import homgraph, words
from sga.admissible import doublebar_ray, enumerate_adm, hat_of, hat_ray
from sga.checks import KISS, Budget, verify
from sga.invariants import kiss_census
from sga.parsing import parse_quiver, print_quiver
from sga.quiver import Arrow, PolarizedQuiver, auto_fringe, hat_quiver
from sga.randquiver import random_skewed_gentle_quiver
from sga.words import (Letter, Ray, _ray_scan, compare_letters, invl, letter_target,
                       letter_valid, letters_at, ordl, ray_compare, ray_label, spel,
                       trivl)

MIRROR = {"<": ">", ">": "<", "=": "=", "incomparable": "incomparable"}


def length(r):
    """The number of letters of a finite ray, None for a periodic one."""
    return None if r.per else len(r.pre)


def reference_scan(q, v, w):
    """The earlier letter-by-letter comparison of two rays, kept as the
    reference: it reads each letter through ``Ray.__getitem__``, up to the
    same bound."""
    pv, pw = len(v.per), len(w.per)
    lcm = pv * pw // gcd(pv, pw) if pv and pw else max(pv, pw, 1)
    bound = len(v.pre) + len(w.pre) + 2 * lcm + 2
    lv, lw = length(v), length(w)
    for i in range(bound):
        av = v[i] if lv is None or i < lv else None
        aw = w[i] if lw is None or i < lw else None
        if av is None and aw is None:
            return ("=", None)
        if av is None or aw is None:
            return ("incomparable", None)
        if av == aw:
            continue
        c = compare_letters(q, av, aw)
        if c is None:
            return ("incomparable", None)
        return ("<" if c < 0 else ">", i)
    return ("=", None)


def valid_letters(q):
    """Every letter of q with a target slot: a direct and an inverse letter
    per ordinary arrow, a special letter per special loop, and a trivial
    letter per slot that takes one."""
    out = []
    for a in q.arrows:
        out += [spel(a.name)] if a.special else [ordl(a.name), invl(a.name)]
    return out + [trivl(v, sign) for v in q.vertices for sign in (1, -1)
                  if q.trivial_slot_ok((v, sign))]


@pytest.mark.parametrize("name", ["ex1", 9, 11, 42, "l4", "l6"])
def test_letter_order_is_total_on_each_slot(ex1, name):
    """Two distinct letters with one target slot compare as -1 or +1, never
    0, antisymmetrically and as ``letters_at`` lists them, on the quiver,
    its auto-fringing and their hat quivers."""
    if name in ("l4", "l6"):
        path = os.path.join(os.path.dirname(__file__), "data", f"{name}.quiver")
        with open(path, encoding="utf-8") as fh:
            base = parse_quiver(fh.read())
    else:
        base = ex1 if name == "ex1" else random_skewed_gentle_quiver(name)
    quivers = [base, auto_fringe(base).extended]
    pairs = 0
    for q in quivers + [hat_quiver(q) for q in quivers]:
        by_slot = defaultdict(list)
        for l in valid_letters(q):
            assert letter_valid(q, l), l
            by_slot[letter_target(q, l)].append(l)
        for slot, ls in by_slot.items():
            order = letters_at(q, slot)
            assert sorted(order) == sorted(ls), slot
            for a in ls:
                for b in ls:
                    if a == b:
                        continue
                    c = compare_letters(q, a, b)
                    assert c == (-1 if order.index(a) < order.index(b) else 1), (a, b)
                    assert compare_letters(q, b, a) == -c
                    pairs += 1
    assert pairs > 0


@pytest.mark.parametrize("seed", [None, 9, 11, 42])
def test_order_equals_reference_scan_on_all_ray_pairs(ex1, seed):
    """Every ordered pair of doublebar rays (over q) and of hat rays (over
    its companion quiver) of the max-len 6 words compares as the
    letter-by-letter reference does, through the scan and the memo."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    sets = enumerate_adm(q, 6)
    bars, hats = set(), set()
    for x in sets.strings + sets.bands:
        for i in homgraph.build_H(q, x).vertices:
            for rho in (-1, 1):
                bars.add(doublebar_ray(q, x, i, rho))
                hats.update(hat_ray(q, x, i, rho, delta) for delta in (-1, 1))
    seen = set()
    for over, rays in ((q, bars), (hat_of(q), hats)):
        assert len(rays) > 20
        for v in rays:
            for w in rays:
                rel = reference_scan(over, v, w)
                assert _ray_scan(over, v, w) == ray_compare(over, v, w) == rel, (v, w)
                seen.add(rel[0])
    assert seen == {"<", "=", ">", "incomparable"}


def test_ray_prefix():
    a, b, e = ordl("a"), invl("b"), spel("e")
    finite = Ray((a, b, trivl("1", 1)))
    assert finite.prefix(5) == finite.pre and finite.prefix(2) == (a, b)
    assert finite.prefix(0) == ()
    mixed = Ray((a, b, a), (e, b))
    assert mixed.prefix(2) == (a, b) and mixed.prefix(3) == mixed.pre
    assert mixed.prefix(6) == (a, b, a, e, b, e)
    assert mixed.prefix(7) == (a, b, a, e, b, e, b)
    periodic = Ray((), (a, e, b))
    assert periodic.prefix(7) == (a, e, b, a, e, b, a)
    assert periodic.prefix(3) == (a, e, b) and periodic.prefix(0) == ()
    # a preperiod that is no multiple of half the period: past it, index
    # i reads letter i - len(pre) of the period, not i + len(pre)
    odd = Ray((b,), (a, e, b))
    assert [odd[i] for i in range(6)] == [b, a, e, b, a, e]
    for r in (finite, mixed, periodic, odd):
        for n in range(9):
            k = n if length(r) is None else min(n, length(r))
            assert r.prefix(n) == tuple(r[i] for i in range(k))


def _census_pairs(q, max_len, monkeypatch):
    """Every (quiver, v, w) that an all-pairs census of q compares: in the
    labelling of its rays and in the ray checks."""
    seen = []
    compare = words.ray_compare

    def record(qq, v, w):
        seen.append((qq, v, w))
        return compare(qq, v, w)

    monkeypatch.setattr(words, "ray_compare", record)
    monkeypatch.setattr(homgraph, "ray_compare", record)
    fr = auto_fringe(q)
    sets = enumerate_adm(q, max_len)
    ws = list(sets.strings) + list(sets.bands)
    for x in ws:
        for y in ws:
            kiss_census(q, fr, x, y)
    return seen


@pytest.mark.parametrize("seed", [None, 11])
def test_memoised_order_equals_scan(ex1, seed, monkeypatch):
    """Every pair a census compares, each once as the rays are labelled,
    compares as the scan does, through the memo, as copies, reversed and
    over a re-parsed quiver."""
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=True)
    seen = _census_pairs(q, 6, monkeypatch)
    distinct = {(id(qq), v, w): (qq, v, w) for qq, v, w in seen}
    assert distinct and len(distinct) == len(seen)   # each pair compared once
    fresh = {}
    for qq, v, w in distinct.values():
        rel = ray_compare(qq, v, w)
        assert rel == _ray_scan(qq, v, w), (v, w)
        assert ray_compare(qq, Ray(v.pre, v.per), Ray(w.pre, w.per)) == rel
        back = ray_compare(qq, w, v)
        assert back == (MIRROR[rel[0]], rel[1]), (v, w, rel, back)
        if id(qq) not in fresh:
            fresh[id(qq)] = parse_quiver(print_quiver(qq))
        assert fresh[id(qq)] == qq and fresh[id(qq)] is not qq
        assert ray_compare(fresh[id(qq)], v, w) == rel
        assert ray_compare(fresh[id(qq)], w, v) == back


def test_scan_reaches_a_late_first_difference(ex1):
    """Two periodic rays that agree on the whole preperiod of w, the longer
    one, and first differ right after it: the scan's bound (both
    preperiods, two common periods and two letters) reaches the
    difference, where a bound that subtracted w's preperiod or the periods
    would call the rays equal.  a and b- both end at the slot (2,+)."""
    a, b_inv = ordl("a"), invl("b")
    v, w = Ray((), (a,)), Ray((a, a, a, a), (b_inv,))
    assert compare_letters(ex1, a, b_inv) == -1
    assert _ray_scan(ex1, v, w) == reference_scan(ex1, v, w) == ("<", 4)
    assert _ray_scan(ex1, w, v) == (">", 4)


def test_order_is_per_quiver():
    """The same two rays compare by the letter order of the quiver given."""
    def quiver(b_sign):
        return PolarizedQuiver(["1", "2", "3"], [Arrow("a", "1", 1, "2", 1),
                                                 Arrow("b", "2", b_sign, "3", 1)])

    v = Ray((ordl("a"), invl("a"), trivl("1", 1)))
    w = Ray((invl("b"), ordl("b"), trivl("2", 1)))
    assert ray_compare(quiver(1), v, w) == ("<", 0)
    assert ray_compare(quiver(-1), v, w) == ("incomparable", None)


def test_order_store_keeps_pairs_by_content(monkeypatch):
    """The store ``ray_compare`` is keyed by the kept hashes: rays forced to
    one hash still compare by content, in both orders and again; a
    content-equal copy that is not interned gets the kept order without a
    scan; and each quiver keeps its own order."""
    v = Ray((ordl("a"), invl("a"), trivl("1", 1)))
    w = Ray((invl("b"), ordl("b"), trivl("2", 1)))
    object.__setattr__(w, "_hash", v._hash)
    q, q_neg = (PolarizedQuiver(["1", "2", "3"], [Arrow("a", "1", 1, "2", 1),
                                                  Arrow("b", "2", sign, "3", 1)])
                for sign in (1, -1))
    for _ in range(2):
        assert ray_compare(q, v, w) == _ray_scan(q, v, w) == ("<", 0)
        assert ray_compare(q, w, v) == _ray_scan(q, w, v) == (">", 0)
        assert ray_compare(q, v, v) == ("=", None)
        assert ray_compare(q, w, w) == ("=", None)
    u, t = Ray(v.pre, (ordl("a"),)), Ray(w.pre)
    assert ray_compare(q, u, t) == ("<", 0)
    assert ray_compare(q_neg, u, t) == ("incomparable", None)

    def no_scan(*args):
        raise AssertionError("scanned a kept pair")

    monkeypatch.setattr(words, "_ray_scan", no_scan)
    copy_u, copy_t = Ray(u.pre, u.per), Ray(t.pre, t.per)
    assert copy_u is not u and copy_t is not t
    assert ray_compare(q, copy_u, t) == ray_compare(q, u, copy_t) == ("<", 0)
    assert ray_compare(q_neg, copy_u, copy_t) == ("incomparable", None)


def test_ray_hash_kept_fields_unchanged(monkeypatch):
    assert list(Ray.__annotations__) == ["pre", "per"]
    r = Ray((ordl("a"), spel("e")), (ordl("a"), spel("e")))
    s = Ray(r.pre, r.per)
    assert s == r and s is not r and hash(s) == hash(r)
    assert repr(s) == f"Ray(pre={r.pre!r}, per={r.per!r})"
    hashed = []

    def counted(self):
        hashed.append(self)
        return 0

    monkeypatch.setattr(Letter, "__hash__", counted)
    assert {r: 1}[s] == 1
    assert hashed == []        # no letter is hashed again


_PICKLE_RAYS = """
import pickle, sys
from sga.admissible import doublebar_ray, enumerate_adm
from sga.parsing import parse_quiver
q = parse_quiver(open(sys.argv[1]).read())
rays = [doublebar_ray(q, x, i, rho) for x in enumerate_adm(q, 6).strings
        for i in range(1, len(x.letters) - 1) for rho in (-1, 1)]
if sys.argv[2] == "dump":
    sys.stdout.buffer.write(pickle.dumps(rays))
else:
    index = {r: k for k, r in enumerate(rays)}
    loaded = pickle.loads(sys.stdin.buffer.read())
    print(sum(index.get(r) == index[rays[k]] for k, r in enumerate(loaded)),
          len(rays))
"""


def test_ray_pickle_across_hash_seeds():
    """A ray pickled under one hash seed is found in a dict built under
    another: the kept hash does not travel through pickle."""
    quiver = os.path.join(os.path.dirname(__file__), "data", "ex1.quiver")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", _PICKLE_RAYS, quiver, mode],
                              input=data, env=env, capture_output=True,
                              check=True).stdout

    found, total = run(2, "load", run(1, "dump")).split()
    assert int(total) > 0 and found == total
    r = Ray((ordl("a"),), (spel("e"),))
    assert pickle.loads(pickle.dumps(r)) == r


def test_equal_readings_are_one_object(ex1):
    q = auto_fringe(ex1).extended
    # doublebar rays are read over q, hat rays over its companion quiver
    h = hat_of(q)
    by_content = {q: defaultdict(set), h: defaultdict(set)}
    keys = 0
    sets = enumerate_adm(q, 6)
    for x in sets.strings + sets.bands:
        for i in homgraph.build_H(q, x).vertices:
            for rho in (-1, 1):
                r = doublebar_ray(q, x, i, rho)
                by_content[q][r].add(id(r))
                for delta in (-1, 1):
                    r = hat_ray(q, x, i, rho, delta)
                    by_content[h][r].add(id(r))
                keys += 3
    assert keys > 2 * (len(by_content[q]) + len(by_content[h]))
    for over, rays in by_content.items():
        assert all(len(ids) == 1 for ids in rays.values())
        assert all(over.store("rays")[r] is r for r in rays)


def test_repeated_census_scans_nothing(monkeypatch):
    """A census labels each ray once: repeated on emptied census stores, it
    makes no scan and no comparison, as every ray check reads the labels
    its windings keep."""
    q = random_skewed_gentle_quiver(11, forbid_pp=True)
    fr = auto_fringe(q)
    sets = enumerate_adm(q, 6)
    ws = list(sets.strings) + list(sets.bands)
    scans, calls = [], []
    scan, compare = words._ray_scan, words.ray_compare

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    def counted_compare(*args):
        calls.append(args)
        return compare(*args)

    monkeypatch.setattr(words, "_ray_scan", counted_scan)
    monkeypatch.setattr(words, "ray_compare", counted_compare)
    monkeypatch.setattr(homgraph, "ray_compare", counted_compare)

    def census():
        # empty the census stores so that the repeat checks its rays again
        fr.extended.store("census").clear()
        for x in ws:
            for y in ws:
                kiss_census(q, fr, x, y)

    census()
    first_scans, first_calls = len(scans), len(calls)
    assert 0 < first_scans <= first_calls
    census()
    assert len(calls) == first_calls
    assert len(scans) == first_scans


def test_rebuilt_quiver_reads_its_own_rays(monkeypatch):
    """A census on a rebuilt, content-equal quiver memoises in the new
    quiver's stores and never compares the two quivers."""
    q1 = random_skewed_gentle_quiver(11, forbid_pp=True)
    q2 = PolarizedQuiver(q1.vertices, q1.arrows)
    assert q2 == q1 and q2 is not q1

    def census(q):
        fr = auto_fringe(q)
        sets = enumerate_adm(q, 6)
        ws = list(sets.strings) + list(sets.bands)
        for x in ws:
            for y in ws:
                kiss_census(q, fr, x, y)
        return sets

    census(q1)
    cross = []
    eq = PolarizedQuiver.__eq__

    def counted(self, other):
        if self is not other and isinstance(other, PolarizedQuiver):
            cross.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(PolarizedQuiver, "__eq__", counted)
    sets = census(q2)
    assert cross == []
    for x in sets.strings + sets.bands:
        for i in homgraph.build_H(q2, x).vertices:
            r = doublebar_ray(q2, x, i, 1)
            assert q2.store("rays")[r] is r


def _quiver(name):
    """A fresh quiver: a file of ``tests/data`` or a random seed (seed 11
    without doubly punctured strings)."""
    if isinstance(name, str):
        path = os.path.join(os.path.dirname(__file__), "data", f"{name}.quiver")
        with open(path, encoding="utf-8") as fh:
            return parse_quiver(fh.read())
    return random_skewed_gentle_quiver(name, forbid_pp=name == 11)


def _read_labels(q, max_len):
    """Read the labels of every vertex of every winding of q's words."""
    sets = enumerate_adm(q, max_len)
    for x in sets.strings + sets.bands:
        h = homgraph.build_H(q, x)
        for v in h.vertices:
            for hat in (True, False):
                assert h.ray_labels(v, hat) == tuple(zip(*[
                    ray_label(hat_of(q) if hat else q, r)
                    for r in ([h.hat(v, rho, delta) for delta in (-1, 1) for rho in (-1, 1)]
                              if hat else h.doublebar(v))]))


def _labels_agree(over):
    """Every ordered pair of rays labelled over ``over``: within a chain the
    labels order the pair as ``ray_compare`` does; the relations of the
    pairs across chains, counted."""
    labels = over.store("ray_labels")
    for slot, chains in over.store("ray_chains").items():
        for cid, rays, marks in chains:
            assert marks == sorted(set(marks)) and len(rays) == len(marks)
            assert all(labels[r] == (cid, m) and letter_target(over, r.first()) == slot
                       for r, m in zip(rays, marks))
    across = defaultdict(int)
    for v, (cv, lv) in labels.items():
        for w, (cw, lw) in labels.items():
            rel = ray_compare(over, v, w)[0]
            if cv == cw:
                assert rel == ("<" if lv < lw else ">" if lv > lw else "="), (v, w)
            else:
                across[rel] += 1
    return across


@pytest.mark.parametrize("name", ["ex1", "l4", "l6", 9, 11, 42])
def test_labels_agree_with_ray_compare(name):
    """The labels of every interned ray, over the quiver (doublebar rays)
    and over its companion quiver (hat rays), order every pair of one chain
    as ``ray_compare`` does; each chain holds the rays of one start slot, so
    pairs across chains are incomparable here, and there are such pairs."""
    q = _quiver(name)
    _read_labels(q, 8)
    for over in (q, hat_of(q)):
        assert set(over.store("ray_labels")) == set(over.store("rays"))
        across = _labels_agree(over)
        assert set(across) == {"incomparable"} and across["incomparable"] > 0


def test_labels_survive_deep_insertions_and_equal_rays(monkeypatch):
    """With one free label between a chain's ends, rays inserted between
    neighbours with no free integer between their labels start further
    chains of their slot, and a ray equal to a labelled one of another
    content (a rotated period) starts a chain too: every label handed out
    stays unchanged, the labels still agree with ``ray_compare``, and the
    kiss route and ``classify_components`` pass their ray checks through
    the comparisons across chains."""
    monkeypatch.setattr(words, "LABEL_GAP", 2)
    q = random_skewed_gentle_quiver(42)
    handed = {}
    sets = enumerate_adm(q, 6)
    for x in sets.strings + sets.bands:
        h = homgraph.build_H(q, x)
        for v in h.vertices:
            for hat in (True, False):
                h.ray_labels(v, hat)
        for over in (q, hat_of(q)):
            for r, got in over.store("ray_labels").items():
                assert handed.setdefault((id(over), r), got) == got
    periodic = next(r for r in q.store("rays") if r.per)
    rotated = Ray(periodic.per[:1], periodic.per[1:] + periodic.per[:1])
    assert rotated != periodic and ray_compare(q, rotated, periodic)[0] == "="
    assert ray_label(q, rotated)[0] != ray_label(q, periodic)[0]
    for over, equal_pairs in ((q, 2), (hat_of(q), 0)):   # (rotated, periodic) both ways
        across = _labels_agree(over)
        assert across["<"] == across[">"] > 0 and across["="] == equal_pairs
        assert max(len(c) for c in over.store("ray_chains").values()) > 1
    assert verify(KISS, q, Budget(6)) > 0
