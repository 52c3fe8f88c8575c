"""The per-word record: ``build_H`` returns one frozen ``Winding`` per word
and quiver, and the tables it carries agree with the blueprint they index.

Covered: every admissible word at max-len 8 of ex1 and of the seed-7, 9,
11 (no doubly punctured strings) and 42 random quivers, and the fringed
translate of each word in the auto-fringed quiver.
"""

import pytest

from sga import admissible
from sga.admissible import doublebar_ray, enumerate_adm, hat_of, hat_ray, tau_adm
from sga.homgraph import _HAT_CHECKS, build_H, ray_long, ray_real
from sga.quiver import PolarizedQuiver, auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.words import ray_compare


@pytest.fixture(params=[None, 7, 9, 11, 42],
                ids=lambda s: "ex1" if s is None else f"seed{s}")
def word_pairs(request, ex1):
    seed = request.param
    q = ex1 if seed is None else random_skewed_gentle_quiver(seed, forbid_pp=seed == 11)
    fr = auto_fringe(q)
    sets = enumerate_adm(q, 8)
    words = sets.strings + sets.bands
    return [(q, x) for x in words] + [(fr.extended, tau_adm(fr.extended, x)) for x in words]


def _by(items, key) -> dict:
    out: dict = {}
    for it in items:
        out.setdefault(key(it), []).append(it)
    return {k: tuple(v) for k, v in out.items()}


def test_winding_tables_match_the_blueprint(word_pairs):
    for q, x in word_pairs:
        h = build_H(q, x)
        assert build_H(q, x) is h and q.store("build_H")[(x,)] is h
        assert h.word == x
        # by_label: ascending, and a partition of the vertices by label
        for lab, vs in h.by_label.items():
            assert list(vs) == sorted(vs) and all(h.vlabel[v] == lab for v in vs)
        assert sorted(v for vs in h.by_label.values() for v in vs) == list(h.vertices)
        # boundary: valency <= 1, an edge or a loop counting each vertex it touches once
        valency = {v: sum(1 for e in h.edges if v in (e.src, e.tgt))
                   + sum(1 for l in h.loops if l.vertex == v) for v in h.vertices}
        assert h.boundary == {v for v, k in valency.items() if k <= 1}
        # the by-image maps partition edges and loops, in order
        assert h.edges_by_image == _by(h.edges, lambda e: e.image)
        assert h.loops_by_image == _by(h.loops, lambda l: l.image)
        # the per-vertex rays are the interned ones of the reading memos
        ids = q.store("head_ids")
        for v in h.vertices:
            bars = h.doublebar(v)
            assert all(r is doublebar_ray(q, x, v, rho) for r, rho in zip(bars, (-1, 1)))
            assert all(r is q.store("rays")[r.key] for r in bars)
            for rho in (-1, 1):
                for delta in (-1, 1):
                    ray = h.hat(v, rho, delta)
                    assert ray is hat_ray(q, x, v, rho, delta)
                    assert ray is hat_of(q).store("rays")[ray.key]
            hid = h.head_id(v)
            assert ids[tuple(r.first() for r in bars)] == hid == h.head_ids[v]
        # per label, its vertices with their head ids, kept once read
        for lab, vs in h.by_label.items():
            heads = h.heads(lab)
            assert heads == tuple((v, h.head_id(v)) for v in vs) and h.label_heads[lab] is heads
        # the ids are interned: equal first-letter pairs, equal ids
        assert sorted(ids.values()) == list(range(len(ids)))


def test_winding_is_frozen(ex1):
    x = enumerate_adm(ex1, 4).strings[0]
    h = build_H(ex1, x)
    for name, value in (("shape", "A"), ("boundary", frozenset()),
                        ("head_ids", {}), ("label_heads", {}), ("hat_labels", {}),
                        ("bar_labels", {})):
        with pytest.raises(AttributeError):
            setattr(h, name, value)
    assert build_H(ex1, x) is h


def test_rays_are_read_on_first_use(ex1, monkeypatch):
    """A fresh winding holds nothing read; the first read of any kind
    (a head id, the head ids of a label, the hat or the doublebar labels
    of a vertex) reads both readings of the word once and fills every
    vertex and every label, without the per-position ray memos; a second
    read of any kind reads no ray."""
    reads = []
    rays = admissible.Reading.rays

    def counted(self, vertices):
        reads.append((self.over, tuple(vertices)))
        return rays(self, vertices)

    monkeypatch.setattr(admissible.Reading, "rays", counted)
    for first in ("head_id", "heads", "hat", "bar"):
        q = PolarizedQuiver(ex1.vertices, ex1.arrows)
        x = next(x for x in enumerate_adm(q, 6).strings if x.wtype == "up")
        h = build_H(q, x)
        assert h.head_ids == h.label_heads == h.hat_labels == h.bar_labels == {}
        reads.clear()
        v = h.vertices[-1]
        {"head_id": lambda: h.head_id(v), "heads": lambda: h.heads(h.vlabel[v]),
         "hat": lambda: h.ray_labels(v, True), "bar": lambda: h.ray_labels(v, False)}[first]()
        assert reads == [(q, h.vertices), (hat_of(q), h.vertices)], first
        assert set(h.head_ids) == set(h.hat_labels) == set(h.bar_labels) == set(h.vertices)
        assert set(h.label_heads) == set(h.by_label)
        assert q.store("doublebar_ray") == q.store("hat_ray") == {}
        for u in h.vertices:
            h.head_id(u)
            h.ray_labels(u, True)
            h.ray_labels(u, False)
        for lab in h.by_label:
            h.heads(lab)
        assert len(reads) == 2


def test_ray_checks_read_fresh_windings(ex1):
    """``ray_real`` and ``ray_long``, each called first on fresh windings,
    make their first-use pass and answer as ``ray_compare`` does on the
    hat rays (over the companion quiver) and the doublebar rays: every ray
    of y at or below the matching ray of x."""
    def at_most(over, ys, xs):
        return all(ray_compare(over, ry, rx)[0] in ("<", "=") for ry, rx in zip(ys, xs))

    for check in (ray_real, ray_long):
        q = PolarizedQuiver(ex1.vertices, ex1.arrows)
        words = enumerate_adm(q, 5).strings
        for x, y in zip(words, words[1:] + words[:1]):
            hx, hy = build_H(q, x), build_H(q, y)
            pairs = [(j, i) for j in hy.vertices for i in hx.by_label.get(hy.vlabel[j], ())]
            if not pairs:
                continue
            got = [check(hx, hy, v) for v in pairs]
            for (j, i), answer in zip(pairs, got):
                if check is ray_real:
                    want = at_most(hat_of(q), [hy.hat(j, *c) for c in _HAT_CHECKS],
                                   [hx.hat(i, *c) for c in _HAT_CHECKS])
                else:
                    want = at_most(q, hy.doublebar(j), hx.doublebar(i))
                assert answer == want, (check.__name__, str(x), str(y), j, i)
