"""The translate of a band module through an odd number of special letters.

A band module V(m, t) lies in a homogeneous tube, so tau V(m, t) = V(m, t):
the translate keeps the parameter. The sign twist of the strings must not
be applied to it, or E comes out as 2 against V(1, -t) and 0 against
V(1, t) itself.
"""

import pytest

from sga.admissible import enumerate_adm
from sga.cli import main
from sga.parsing import print_quiver
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import E_formula, E_oracle, module_Vband

P = 7


@pytest.mark.parametrize("Y, want", [("V(1,2)", 2), ("V(1,5)", 0)])
def test_seed9_witness_through_cli(tmp_path, capsys, Y, want):
    path = tmp_path / "s9.quiver"
    path.write_text(print_quiver(random_skewed_gentle_quiver(9)))
    band = "band: a1- a3 e1 a4"
    rc = main(["einv", str(path), "--x", band, "--y", band, "--tag-x", "*",
               "--tag-y", "*", "--X", "V(1,2)", "--Y", Y, "--field", str(P)])
    assert rc == 0
    assert f"E_oracle: {want}\n" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [9, 11])
def test_formula_equals_oracle_on_odd_bands(seed):
    q = random_skewed_gentle_quiver(seed)
    fr = auto_fringe(q)
    odd = [b for b in enumerate_adm(q, 8).bands
           if sum(q.by_name[l.name].special for l in b.letters) % 2]
    assert odd
    for x in odd:
        for y in odd:
            for t in range(1, P):
                for u in range(1, P):
                    X, Y = module_Vband(1, t, P), module_Vband(1, u, P)
                    e = E_oracle(q, x, X, y, Y)
                    assert E_formula(q, fr, x, X, y, Y) == e, (str(x), str(y), t, u)
                    if x == y:
                        assert e == (2 if t == u else 0), (str(x), t, u)
