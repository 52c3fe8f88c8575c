"""The two quivers of ``tests/data`` with a bounded ordinary loop (an
arrow from a vertex's plus slot to that same slot): l4, with a special
loop, and l6, gentle.  No random quiver has one."""

import os

import pytest

from sga.checks import CHECKS, Budget, checked_adm, verify
from sga.parsing import parse_quiver
from sga.quiver import validate

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name", ["l4", "l6"])
def test_every_check_holds_on_a_loop_quiver(name):
    with open(os.path.join(DATA, f"{name}.quiver"), encoding="utf-8") as fh:
        q = parse_quiver(fh.read())
    rep = validate(q)
    assert rep.is_skewed_gentle and rep.is_gentle == (name == "l6")
    assert any(a.source == a.target and not a.special for a in q.arrows)
    checked_adm(q, 4)
    for check in CHECKS:
        assert verify(check, q, Budget(4)) > 0, check.name
