import os

import pytest

from sga.cli import main
from sga.errors import ParseError
from sga.parsing import (parse_module, parse_quiver, parse_tag, parse_word,
                         print_quiver)
from sga.words import format_word, invl, ordl, spel, tinvl, trivl

DATA = os.path.join(os.path.dirname(__file__), "data")
EX1 = os.path.join(DATA, "ex1.quiver")
EX1F = os.path.join(DATA, "ex1_fringing.quiver")
UNB = os.path.join(DATA, "unbounded.quiver")


def test_parse_quiver_roundtrip(ex1):
    with open(EX1) as fh:
        q = parse_quiver(fh.read())
    assert q == ex1
    assert parse_quiver(print_quiver(q)) == q


def test_parse_quiver_errors():
    with pytest.raises(ParseError):
        parse_quiver("vertex 1\narrow a 1:+ -> 2:+\n")  # unknown vertex
    with pytest.raises(ParseError, match="^3:1: duplicate special at vertex 1$"):
        parse_quiver("vertex 1\nspecial e 1\nspecial f 1\n")
    with pytest.raises(ParseError):
        parse_quiver("flurb 1\n")
    try:
        parse_quiver("vertex 1\nflurb\n")
    except ParseError as exc:
        assert exc.line == 2


def test_parse_word_roundtrip(ex1):
    text = "1(1,-)- a- e* a 1(1,-)"
    letters, band = parse_word(ex1, text)
    assert not band
    assert letters == (tinvl("1", -1), invl("a"), spel("e"), ordl("a"),
                       trivl("1", -1))
    assert format_word(letters) == text
    w2, band2 = parse_word(ex1, "band: a b- g")
    assert band2


def test_parse_tag_and_module():
    assert parse_tag("**") == "**"
    assert parse_tag("*") == "*"
    assert parse_tag(" +- ") == "+-"
    with pytest.raises(ParseError):
        parse_tag("+*")
    m = parse_module("V(2,3)", 5)
    assert m.dim == 2 and m.T == (((0, 3),), ((0, 1), (1, 3)))
    assert parse_module("Vo", 5).dim == 1
    assert parse_module("W(2,-)", 5).dim == 2
    assert parse_module("Wchi(1,+)", 5).T == (((0, 4),),)
    assert parse_module("Vt(1,2)", 5).dim == 2


def test_cli_check(capsys):
    assert main(["check", EX1]) == 0
    out = capsys.readouterr().out
    assert "skewed-gentle: True" in out
    assert main(["check", UNB]) == 0
    out = capsys.readouterr().out
    assert "admissible:    False" in out


def test_cli_strings_golden(capsys):
    assert main(["strings", EX1, "--at", "1,-"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 10
    assert lines[0].startswith("1(1,-)- a- e* b- g- 1(1,-)")
    assert "p(1,-1)" in lines[0]
    assert lines[4].startswith("1(1,-)- 1(1,+)")
    assert "s(1)" in lines[4]


def test_cli_tau_modes(capsys):
    assert main(["tau", EX1, "--word", "1(1,-)- a- e* a 1(1,-)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1(2,+)- e* 1(2,+)"
    assert main(["tau", EX1F, "--adm", "1(1,-)- g b e b- 1(3,+)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "uu: 1(6,-)- p16 g b e b- g- p51 1(5,-)"


def test_cli_adm_single_and_enum(capsys):
    assert main(["adm", EX1, "--word", "1(1,-)- g b e b- 1(3,+)"]) == 0
    out = capsys.readouterr().out
    assert "admissible: True" in out and "type: uu" in out
    assert main(["adm", UNB, "--allow-nonadmissible",
                 "--word", "1(1,+)- e a e a- 1(1,-)"]) == 0
    out = capsys.readouterr().out
    assert "admissible: True" in out and "type: up" in out


def test_cli_hom_both(capsys):
    rc = main(["hom", EX1, "--x", "1(1,-)- g b e b- 1(3,+)", "--X", "Vo",
               "--y", "1(2,-)- a 1(1,-)", "--Y", "V+", "--mode", "both"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formula:" in out and "oracle:" in out


def test_cli_gvec(capsys):
    rc = main(["gvec", EX1, "--x", "1(1,-)- g b e b- 1(3,+)", "--tag", "++",
               "--module", "Vo", "--fringe", EX1F])
    assert rc == 0
    out = capsys.readouterr().out
    assert "comb: (-1,1,1,0)" in out and "oracle: (-1,1,1,0)" in out
    rc = main(["gvec", EX1, "--x", "1(2,-)- a 1(1,-)", "--tag=-+",
               "--module", "V-", "--fringe", "auto"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "comb: (1,0,-1,0)" in out and "oracle: (1,0,-1,0)" in out


def test_cli_einv(capsys):
    rc = main(["einv", EX1, "--x", "1(1,-)- g b e b- 1(3,+)",
               "--y", "1(2,-)- a 1(1,-)", "--tag-x", "++", "--tag-y=-+",
               "--X", "Vo", "--Y", "V-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "e_comb:" in out and "E_oracle:" in out


def test_cli_fringe_roundtrip(tmp_path, capsys):
    assert main(["fringe", EX1]) == 0
    text = capsys.readouterr().out
    f = tmp_path / "auto.quiver"
    f.write_text(text)
    assert main(["fringe", EX1, "--check", str(f)]) == 0
    assert main(["fringe", EX1, "--check", EX1F]) == 0
    assert main(["fringe", EX1, "--check", EX1]) == 3


def test_cli_components_stable(capsys):
    assert main(["components", EX1, "--max-len", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["components", EX1, "--max-len", "6"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("id\tword\ttag\ttype")


def test_cli_selftest(capsys):
    assert main(["selftest", EX1, "--max-len", "5"]) == 0
    out = capsys.readouterr().out
    assert "kiss dual route ok on 400 translate pairs" in out
    assert "hom theorem ok" in out


def test_cli_parse_error_exit(tmp_path):
    f = tmp_path / "broken.quiver"
    f.write_text("vertex 1\nnonsense\n")
    assert main(["check", str(f)]) == 2


def test_cli_nonadmissible_guard():
    assert main(["adm", UNB, "--max-len", "4"]) == 3
