"""Deterministic generation of small skewed-gentle test quivers."""

from __future__ import annotations

import random

from .admissible import enumerate_adm
from .quiver import Arrow, PolarizedQuiver, validate


def random_skewed_gentle_quiver(seed: int, n_vertices: int = 4,
                                forbid_pp: bool = False,
                                max_words: int = 70) -> PolarizedQuiver:
    """Search, seeded, for an admissible skewed-gentle quiver that carries at
    least one band (so band modules show up in the sweeps), or else a doubly
    punctured string, and not too many short admissible words (so the sweeps
    stay fast).

    With forbid_pp, quivers with short doubly punctured strings are skipped:
    their generic-parameter curves have a single isomorphism class over
    GF(5) (t and 1/t are identified and only 2, 3 remain), so an exhaustive
    minimum over that field provably cannot reach the generic E-invariant.
    """
    rng = random.Random(seed)
    attempt = 0
    while True:
        attempt += 1
        if attempt > 4000:
            raise RuntimeError("no suitable quiver found; change the seed")
        vertices = [f"v{i}" for i in range(1, n_vertices + 1)]
        n_special = rng.choice([1, 1, 2])
        special_at = rng.sample(vertices, n_special)
        arrows = [Arrow(f"e{i}", v, -1, v, -1, special=True)
                  for i, v in enumerate(special_at, start=1)]
        out_free = {(v, s) for v in vertices for s in (-1, 1)} - \
            {(v, -1) for v in special_at}
        in_free = set(out_free)
        n_arrows = rng.randint(3, 5)
        ok = True
        for i in range(1, n_arrows + 1):
            if not out_free or not in_free:
                ok = False
                break
            s_slot = rng.choice(sorted(out_free))
            t_slot = rng.choice(sorted(in_free - {s_slot}) or sorted(in_free))
            out_free.discard(s_slot)
            in_free.discard(t_slot)
            arrows.append(Arrow(f"a{i}", s_slot[0], s_slot[1],
                                t_slot[0], t_slot[1]))
        if not ok:
            continue
        q = PolarizedQuiver(vertices, arrows)
        rep = validate(q)
        if not rep.is_skewed_gentle:
            continue
        sets = enumerate_adm(q, 8)
        n_words = len(sets.strings) + len(sets.bands)
        if n_words > max_words or n_words < 10:
            continue
        has_pp = any(x.wtype == "pp" for x in sets.strings)
        if forbid_pp and has_pp:
            continue
        if not sets.bands and not (has_pp and not forbid_pp):
            continue
        return q
