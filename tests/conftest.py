import pytest

from sga.admissible import classify
from sga.quiver import Arrow, PolarizedQuiver
from sga.words import invl, ordl, tinvl, trivl


@pytest.fixture(scope="session")
def ex1():
    """Triangle quiver with one special loop at vertex 2."""
    return PolarizedQuiver(
        ["1", "2", "3"],
        [
            Arrow("a", "1", 1, "2", 1),
            Arrow("b", "2", 1, "3", -1),
            Arrow("g", "3", 1, "1", 1),
            Arrow("e", "2", -1, "2", -1, special=True),
        ],
    )


@pytest.fixture(scope="session")
def ex1_hand_fringing(ex1):
    """The hand fringing with two shared fringe vertices 5 and 6."""
    return PolarizedQuiver(
        list(ex1.vertices) + ["5", "6"],
        list(ex1.arrows) + [
            Arrow("p35", "3", -1, "5", 1),
            Arrow("p51", "5", 1, "1", -1),
            Arrow("p16", "1", -1, "6", 1),
            Arrow("p63", "6", 1, "3", 1),
        ],
    )


@pytest.fixture(scope="session")
def loop_quiver():
    """One vertex, ordinary loop polarized (+,+) plus a special loop.

    Not admissible (infinitely many strings), but fine for word-level and
    hom-graph computations.
    """
    return PolarizedQuiver(
        ["1"],
        [
            Arrow("a", "1", 1, "1", 1),
            Arrow("e", "1", -1, "1", -1, special=True),
        ],
    )


@pytest.fixture(scope="session")
def loopq_words(loop_quiver):
    """Two strings of the loop quiver: the worked pair whose product quiver
    has the pinned colour matrix."""
    q = loop_quiver
    x = classify(q, (tinvl("1", 1), ordl("e"), ordl("a"), ordl("e"), invl("a"),
                     trivl("1", -1)))
    y = classify(q, (tinvl("1", -1), ordl("a"), ordl("e"), ordl("a"), ordl("e"),
                     invl("a"), trivl("1", -1)))
    return x, y
