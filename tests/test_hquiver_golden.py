"""Byte-exact pin of `sga hquiver` over every ordered pair of short words.

The digest covers the component flags (`real`, `kiss`, ...,
`generalized_diagonal`) of all 576 ordered pairs of the admissible strings
of ex1 up to length 6, so any change to how components are built or
classified that alters a single line of output fails here.
"""

import hashlib
import os

from sga.admissible import enumerate_adm
from sga.cli import main

EX1 = os.path.join(os.path.dirname(__file__), "data", "ex1.quiver")

DIGEST = "3ae0c802629a7530a32e9b08913d65a4c6f45188724e71da47e1cd52e0328ca8"


def test_hquiver_all_pairs_digest(ex1, capsys):
    words = enumerate_adm(ex1, 6).strings
    assert len(words) == 24
    out = []
    for x in words:
        for y in words:
            assert main(["hquiver", EX1, "--x", str(x), "--y", str(y)]) == 0
            out.append(capsys.readouterr().out)
    text = "".join(out)
    assert len(text.splitlines()) == 1080
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
