import pathlib
import re

import pytest

from sga.errors import QuiverError
from sga.quiver import (Arrow, PolarizedQuiver, as_fringing, auto_fringe,
                        check_fringing, gabriel_presentation, hat_quiver,
                        per_quiver, special_pairing, tilde_vertices, validate)


def test_hat_quiver_idempotent(ex1):
    h = hat_quiver(ex1)
    assert not h.special_arrows
    assert hat_quiver(h) == h
    assert validate(h).is_gentle
    assert {a.name for a in h.arrows} == {a.name for a in ex1.arrows}


def test_quiver_views_are_computed_once(ex1):
    """The arrow views are tuples kept by the quiver, not rebuilt per call."""
    assert ex1.special_arrows is ex1.special_arrows
    assert ex1.ordinary_arrows is ex1.ordinary_arrows
    assert ex1.special_arrows == tuple(a for a in ex1.arrows if a.special)
    assert ex1.ordinary_arrows == tuple(a for a in ex1.arrows if not a.special)
    assert [v for v in ex1.vertices if ex1.is_special_vertex(v)] == ["2"]
    assert not ex1.is_special_vertex("f1")


def test_special_pairing_loop(ex1):
    assert special_pairing(ex1) == {"e": "e"}


def test_general_special_pair_validates():
    # a non-loop special pair passes validation, but is not skewed-gentle
    q = PolarizedQuiver(
        ["1", "2"],
        [Arrow("e", "1", -1, "2", -1, special=True),
         Arrow("f", "2", -1, "1", -1, special=True)])
    rep = validate(q)
    assert rep.is_polarized and rep.is_admissible and not rep.is_skewed_gentle


def test_broken_pairing_detected():
    q = PolarizedQuiver(
        ["1", "2"],
        [Arrow("e", "1", -1, "2", -1, special=True)])
    rep = validate(q)
    assert not rep.is_polarized
    assert any("pairing" in d for d in rep.diagnostics)


def test_gabriel_presentation_ex1(ex1):
    gp = gabriel_presentation(ex1)
    assert gp.vertices == (("1", "o"), ("2", "-"), ("2", "+"), ("3", "o"))
    assert len(gp.arrows) == 5  # a splits in two, b splits in two, g single
    by_base = {}
    for t in gp.arrows:
        by_base.setdefault(t.base, []).append(t)
    assert len(by_base["a"]) == 2 and len(by_base["b"]) == 2 and len(by_base["g"]) == 1
    # composable pairs with matching signed slots: (a,g) and (b,a)
    assert len(gp.relations) == 3
    lens = sorted(len(rel) for rel in gp.relations)
    assert lens == [1, 1, 2]  # the pair through the special vertex is a sum


def test_gabriel_relation_count_formula(ex1):
    gp = gabriel_presentation(ex1)
    count = 0
    for a in ex1.ordinary_arrows:
        for b in ex1.ordinary_arrows:
            if a.s_slot == b.t_slot:
                sa = 2 if ex1.is_special_vertex(a.target) else 1
                sb = 2 if ex1.is_special_vertex(b.source) else 1
                count += sa * sb
    assert len(gp.relations) == count


def test_gabriel_gentle_case(ex1):
    h = hat_quiver(ex1)
    gp = gabriel_presentation(h)
    assert all(len(rel) == 1 for rel in gp.relations)
    assert len(gp.vertices) == 3


def test_tilde_vertices_order(ex1):
    assert tilde_vertices(ex1) == (("1", "o"), ("2", "-"), ("2", "+"), ("3", "o"))


def test_auto_fringe_ex1(ex1):
    fr = auto_fringe(ex1)
    assert len(fr.extended.vertices) - len(ex1.vertices) == 4
    assert len(fr.extended.arrows) - len(ex1.arrows) == 4
    rep = validate(fr.extended)
    assert rep.is_skewed_gentle and rep.is_admissible
    for v in ex1.vertices:
        ends = sum(1 for a in fr.extended.arrows if a.source == v) + \
            sum(1 for a in fr.extended.arrows if a.target == v)
        assert ends == 4
    assert check_fringing(ex1, fr.extended)


def test_hand_fringing_valid(ex1, ex1_hand_fringing):
    assert check_fringing(ex1, ex1_hand_fringing)
    fr = as_fringing(ex1, ex1_hand_fringing)
    assert set(fr.extended.vertices) - set(ex1.vertices) == {"5", "6"}


def test_base_is_not_its_own_fringing(ex1):
    assert not check_fringing(ex1, ex1)
    with pytest.raises(QuiverError):
        as_fringing(ex1, ex1)


def test_fringe_idempotent_on_complete(ex1):
    fr = auto_fringe(ex1)
    # every slot of the fringed quiver restricted to old vertices is full;
    # fringing the fringed quiver adds slots only at fringe vertices
    fr2 = auto_fringe(fr.extended)
    assert set(fr.extended.vertices) <= set(fr2.extended.vertices)


def test_quiver_equality_ignores_arrow_order(ex1):
    permuted = PolarizedQuiver(reversed(ex1.vertices), reversed(ex1.arrows))
    assert permuted == ex1 and hash(permuted) == hash(ex1)
    a = ex1.arrows[0]
    flipped = PolarizedQuiver(ex1.vertices, (Arrow(a.name, a.source, -a.s_sign,
                                                   a.target, a.t_sign),)
                              + ex1.arrows[1:])
    assert flipped != ex1
    assert ex1 != "ex1"


def test_per_quiver_memoises_in_each_quivers_store(ex1):
    calls = []

    @per_quiver
    def arrow_names(q, prefix):
        """The arrow names of q, each with prefix."""
        calls.append(q)
        return [prefix + a.name for a in q.arrows]

    twin = PolarizedQuiver(ex1.vertices, ex1.arrows)
    assert twin == ex1 and twin is not ex1
    first = arrow_names(ex1, "x")
    assert arrow_names(ex1, "x") is first
    assert arrow_names(twin, "x") is not first
    assert arrow_names(twin, "x") == first
    arrow_names(ex1, "y")
    assert [id(q) for q in calls] == [id(ex1), id(twin), id(ex1)]
    assert ex1.store("arrow_names")[("x",)] is first
    assert twin.store("arrow_names") is not ex1.store("arrow_names")
    info = arrow_names.cache_info()
    assert info.hits + info.misses == 5     # calls above
    assert info.currsize == info.misses == 3
    assert arrow_names.__name__ == "arrow_names"
    assert arrow_names.__doc__ == "The arrow names of q, each with prefix."
    assert arrow_names.__wrapped__.__name__ == "arrow_names"


def test_per_quiver_memoises_none(ex1):
    calls = []

    @per_quiver
    def nothing(q, key):
        calls.append(key)
        return None

    q = PolarizedQuiver(ex1.vertices, ex1.arrows)
    assert nothing(q, 1) is None and nothing(q, 1) is None
    assert calls == [1] and q.store("nothing") == {(1,): None}
    assert nothing.cache_info().hits == 1


def test_quiver_stores_are_the_only_caches():
    """Memos live in the stores of ``quiver.py``: no module-level function
    cache and no store reached around ``PolarizedQuiver.store``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "sga"
    stray = []
    for path in sorted(src.glob("*.py")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(r"lru_cache|functools\.cache\b|@cache\b", line) or (
                    path.name != "quiver.py" and re.search(r"\._cache\b", line)):
                stray.append(f"{path.name}:{n}: {line.strip()}")
    assert stray == []


def test_readme_lists_every_store():
    """The stores named in ``src/sga`` (``store("...")`` literals and the
    functions memoised by ``per_quiver``) are exactly the names of README's
    list "The stores:", where each name is in backticks before a colon or a
    comma."""
    root = pathlib.Path(__file__).resolve().parent.parent
    in_src = set()
    for path in sorted((root / "src" / "sga").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        in_src.update(re.findall(r'\.store\("(\w+)"\)', text))
        in_src.update(re.findall(r"@per_quiver\s+def (\w+)", text))
        in_src.update(re.findall(r"= per_quiver\((\w+)\)", text))
    readme = (root / "README.md").read_text(encoding="utf-8")
    listed = readme.split("The stores:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`[:,]", listed)) == in_src
    assert "build_H" in in_src and "word_table" not in in_src


def test_readme_layout_names_every_module():
    """README's "Library layout" names every module of ``src/sga`` as
    ``sga.<name>`` in backticks."""
    root = pathlib.Path(__file__).resolve().parent.parent
    modules = {p.stem for p in (root / "src" / "sga").glob("*.py")} - {"__init__"}
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`sga\.(\w+)`", layout)) >= modules
    assert "kisses" in modules
