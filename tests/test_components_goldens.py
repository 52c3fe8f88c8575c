"""`sga components --max-len 8` prints exactly the benchmark's golden
tables, so the row order of the labels (by word, then tag in
``TAG_ORDER``) is guarded outside the benchmark too."""

import os

import pytest

from sga.cli import main
from sga.parsing import parse_quiver, print_quiver
from sga.randquiver import random_skewed_gentle_quiver

HERE = os.path.dirname(__file__)
EX1 = os.path.join(HERE, "data", "ex1.quiver")
GOLDENS = os.path.join(HERE, os.pardir, "perfbench", "goldens")


@pytest.mark.parametrize("label, seed", [("ex1", None), ("seed9", 9),
                                         ("seed11", 11), ("seed42", 42)])
def test_components_match_golden(label, seed, tmp_path, capsys):
    # the quiver files are written as the components-cli workload writes them
    if seed is None:
        with open(EX1, encoding="utf-8") as fh:
            q = parse_quiver(fh.read())
    else:
        q = random_skewed_gentle_quiver(seed, forbid_pp=(seed == 11))
    path = tmp_path / f"{label}.quiver"
    path.write_text(print_quiver(q), encoding="utf-8")
    assert main(["components", str(path), "--max-len", "8"]) == 0
    with open(os.path.join(GOLDENS, f"components-{label}.tsv"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
