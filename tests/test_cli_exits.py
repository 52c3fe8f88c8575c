"""Every CLI refusal path exits with its documented code (2 parse error,
3 precondition violation, 4 a verified identity failed), never with a
traceback."""

import os
import subprocess
import sys

import pytest

import sga.checks
import sga.cli
import sga.repmod
from sga import gf
from sga.checks import CHECKS
from sga.cli import main
from sga.errors import SgaError

DATA = os.path.join(os.path.dirname(__file__), "data")
EX1 = os.path.join(DATA, "ex1.quiver")
UNP = os.path.join(DATA, "unpolarized.quiver")   # two arrows end at 2:+
X = "1(1,-)- g b e b- 1(3,+)"   # a uu word
Y = "1(2,-)- a 1(1,-)"
S = "1(1,-)- a- e* a 1(1,-)"    # a string, not a band
N = "1(1,-)- g b e- b- 1(3,+)"  # a string, not an admissible word


def _hom(*extra):
    return ["hom", EX1, "--x", X, "--X", "Vo", "--y", Y, "--Y", "V+", *extra]


@pytest.mark.parametrize("argv, code", [
    (["strings", EX1, "--at", "1"], 2),
    (["check", os.path.join(DATA, "nonexistent.quiver")], 3),
    (["tau", EX1], 2),
    (_hom("--field", "9"), 3),
    (_hom("--field", "1048583"), 3),
    (["hom", EX1, "--x", X, "--X", "Q", "--y", Y, "--Y", "V+"], 2),
    (["hom", EX1, "--x", X, "--X", "V(1,2)", "--y", Y, "--Y", "V+"], 3),
    (["einv", EX1, "--x", X, "--y", Y, "--tag-x", "+x", "--tag-y=-+"], 2),
    (["components", EX1, "--max-len", "4", "--fringe", EX1], 3),
    (["tau", EX1, "--adm", "a b"], 3),
    (["hquiver", EX1, "--x", "zz"], 2),
    (["einv", EX1, "--x", X, "--y", Y, "--tag-x", "++"], 2),
    (["einv", EX1, "--x", X, "--y", Y, "--tag-y", "++"], 2),
    (["einv", EX1, "--x", X, "--y", Y, "--X", "Vo"], 2),
    (["einv", EX1, "--x", X, "--y", Y, "--Y", "V+"], 2),
    (["einv", EX1, "--x", X, "--y", Y, "--tag-x", "++", "--tag-y", "++",
      "--X", "Vo"], 2),
    (["einv", EX1, "--x", X, "--y", Y], 2),
    (["gvec", EX1, "--x", X], 2),
    (["components", EX1, "--max-len", "-3"], 2),
    (["selftest", EX1, "--max-len", "0"], 2),
    (["adm", EX1, "--max-len", "-1"], 2),
    (["adm", EX1, "--max-len", "0", "--word", X], 2),
    (["strings", EX1, "--at", "1,-", "--max-len", "0"], 2),
    (["bands", EX1, "--max-len", "-2"], 2),
    (["tau", EX1, "--word", "band: " + S], 3),
    (["tau", EX1, "--word", "1(1,-)- a- e* 1(2,+) 1(2,+)"], 3),
    (["hom", EX1, "--x", N, "--X", "Vo", "--y", Y, "--Y", "V+"], 3),
    (["einv", EX1, "--x", N, "--y", Y, "--tag-x", "++", "--tag-y", "++"], 3),
    (["gvec", EX1, "--x", N, "--tag", "++"], 3),
    (["tau", EX1, "--adm", N], 3),
    (["hquiver", EX1, "--x", N], 3),
    (["adm", UNP, "--allow-nonadmissible"], 3),
    (["hquiver", UNP, "--allow-nonadmissible", "--x", "1(1,-)- a 1(2,+)"], 3),
    (["bands", UNP], 3),
    (["adm", EX1, "--max-len", "1"], 0),
])
def test_cli_exit_codes(argv, code, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:   # argparse refusals
        rc = exc.code
    assert rc == code
    assert "Traceback" not in capsys.readouterr().err


def test_tau_word_refuses_a_band_that_is_a_string(capsys):
    assert main(["tau", EX1, "--word", "band: " + S]) == 3
    assert capsys.readouterr().err == f"error: not a band of the quiver: {S}\n"


def test_commands_refuse_a_word_that_is_not_admissible(capsys):
    """A word that ``sga adm --word`` calls not admissible is refused as
    input (3) with the reason ``adm`` gives, not reported as a failed
    theorem (4) by ``tau --adm``'s two routes."""
    assert main(["tau", EX1, "--adm", N]) == 3
    assert capsys.readouterr().err == ("error: not an admissible word (letter 3 "
                                       f"oriented against the order): {N}\n")


def test_unpolarized_quiver_refused(capsys):
    """Two arrows into one slot: refused before any route runs, even under
    --allow-nonadmissible, naming the collision."""
    assert main(["adm", UNP, "--allow-nonadmissible"]) == 3
    assert capsys.readouterr().err == \
        "error: quiver is not polarized: arrows a and b both end at ('2', 1)\n"


def test_field_cap():
    gf.check_prime(1048573)          # the largest prime below 2^20
    with pytest.raises(SgaError):
        gf.check_prime(1048583)      # the smallest prime above it
    assert main(_hom("--field", "1048573")) == 0


def test_duplicate_vertex_line(tmp_path, capsys):
    """A repeated ``vertex`` line is refused, not merged (exit 2)."""
    with open(EX1, encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "dup.quiver"
    path.write_text(text + "vertex 1\n", encoding="utf-8")
    assert main(["check", EX1]) == 0
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    line = len(text.splitlines()) + 1
    assert f"parse error: {line}:1: duplicate vertex 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    lambda bad: ["check", bad],
    lambda bad: ["components", EX1, "--max-len", "4", "--fringe", bad],
    lambda bad: ["fringe", EX1, "--check", bad]], ids=["quiver", "fringe", "fringe-check"])
def test_quiver_file_that_is_not_utf8(tmp_path, capsys, argv):
    """A quiver file holding a byte that is not UTF-8 is a parse error
    (2) naming the byte and its offset, as the quiver, as ``--fringe`` and
    as ``fringe --check``, never a traceback."""
    with open(EX1, "rb") as fh:
        data = fh.read()
    bad = tmp_path / "bad.quiver"
    bad.write_bytes(data + b"# \xff\n")
    assert main(argv(str(bad))) == 2
    assert capsys.readouterr().err == \
        f"parse error: {bad} is not UTF-8: byte 0xff at offset {len(data) + 2}\n"


def test_closed_stdout_exits_3():
    """A reader that closes the pipe after one line, as ``sga ... | head -1``
    does: sga exits 3 with one line on stderr, no traceback.  The output,
    about 1 MB, is more than the pipe holds, so sga is still writing when
    the pipe closes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "sga.cli", "strings",
                             os.path.join(DATA, "l6.quiver"), "--at", "1,-", "--max-len", "26"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 3
    assert first.startswith(b"1(1,-)- ")
    assert err == b"error: standard output closed\n"


def _einv(*extra):
    return ["einv", EX1, "--x", X, "--y", Y, "--X", "Vo", "--Y", "V-", *extra]


def test_einv_prints_both_routes(capsys):
    assert main(_einv()) == 0
    assert capsys.readouterr().out == "E_formula: 2\nE_oracle: 2\n"


def test_einv_route_mismatch(monkeypatch, capsys):
    from sga import repmod
    formula = repmod.E_formula
    monkeypatch.setattr(repmod, "E_formula", lambda *a, **k: formula(*a, **k) + 1)
    assert main(_einv()) == 4
    assert "E MISMATCH" in capsys.readouterr().err


def test_hom_route_mismatch(monkeypatch, capsys):
    """A route that disagrees makes ``hom`` exit 4, naming both routes and
    their values; stdout still shows both."""
    from sga import repmod
    formula = repmod.hom_dim_formula
    monkeypatch.setattr(repmod, "hom_dim_formula", lambda *a: formula(*a) + 1)
    assert main(_hom()) == 4
    out, err = capsys.readouterr()
    f, o = (int(line.split(": ")[1]) for line in out.splitlines())
    assert out.startswith("formula: ") and f == o + 1
    assert f"theorem violation: HOM MISMATCH: formula {f}, oracle {o}" in err


def test_tau_route_mismatch(monkeypatch, capsys):
    """Two translates that differ make ``tau --adm`` exit 4, naming both."""
    x = sga.cli._adm_word(sga.cli._load_quiver(EX1), X)
    monkeypatch.setattr(sga.checks, "tau_adm_via_successors", lambda q, w: x)
    assert main(["tau", EX1, "--adm", X]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert f", tau_adm_via_successors {x}" in err and "TAU ROUTE MISMATCH: tau_adm " in err


def _one_more_kiss(half):
    """A change to ``kiss_sites`` that adds a kiss to one half of every pair
    of distinct translates."""
    def change(args, halves):
        if args[1] == args[2]:
            return halves
        return tuple(h + (("A", (0, 0)),) if k == half else h for k, h in enumerate(halves))
    return change


def _real_arrows(change):
    """A change to ``classify_components`` that changes the arrows of every
    real plus component."""
    return lambda args, rep: rep._replace(
        plus=[c._replace(arrows=change(c.arrows)) if c.real else c for c in rep.plus])


W = "1(1,-)- a- e- 1(2,+)"                      # the first word of ex1 at max-len 4
U, V = "1(f2,-)- f2 a- e- b- f3 1(f3,-)", "1(f2,-)- f2 g f4- 1(f4,-)"
# per check: the second route as sga.checks binds it, a change to its
# answer (given the arguments), and the message of the first case it breaks;
# (U, V) is the first pair of distinct translates that the kiss check meets
PERTURBED = {
    "adm": ("enumerate_adm_direct", lambda a, s: s._replace(strings=s.strings[1:]),
            "DUAL-ROUTE MISMATCH: enumerate_adm and enumerate_adm_direct differ"),
    "real-long": ("classify_components", lambda a, r: r._replace(
        plus=[c._replace(real=False) for c in r.plus]),
                  "long h-line without a real h-line"),
    "kiss": ("kiss_sites", _one_more_kiss(0), f"KISS DUAL-ROUTE MISMATCH {U} {V}"),
    "kiss-reverse": ("kiss_sites", _one_more_kiss(1), f"KISS DUAL-ROUTE MISMATCH {V} {U}"),
    "hom": ("hom_dim_oracle", lambda a, d: d + 1, f"HOM MISMATCH {W} Vo {W} Vo"),
    "tau-generic": ("simplified_check", lambda a, ok: not ok, "TAU-GENERIC MISMATCH"),
    "a-image": ("a_image_of_completion", lambda a, x: x.inverse(),
                f"A-IMAGE MISMATCH: a_image_of_completion 1(2,+)- e a 1(1,-), word {W}"),
    "tau-inverse": ("tau_string_inverse", lambda a, w: a[1],
                    "TAU INVERSE MISMATCH: string 1(1,-)- a- e* 1(2,+), "
                    "tau_string_inverse of its translate 1(2,+)- e* b- 1(3,+)"),
    "tau-routes": ("tau_adm_via_successors", lambda a, x: a[1],
                   "TAU ROUTE MISMATCH: tau_adm 1(2,+)- e- b- 1(3,+), "
                   f"tau_adm_via_successors {W}"),
    "h-triples": ("classify_components", _real_arrows(lambda arrows: ()),
                  "real h-line fails property (q)"),
    "h-triples-s": ("classify_components", _real_arrows(
        lambda arrows: tuple(a._replace(ypart=None) for a in arrows)),
        "real h-line fails property (s)"),
    "kiss-transport": ("is_projective_adm", lambda a, proj: True,
                       f"kisses against a projective translate 1(1,-)- g 1(3,-) {W}"),
}


@pytest.mark.parametrize("name", ["adm"] + [c.name for c in CHECKS] +
                         ["kiss-reverse", "h-triples", "h-triples-s"])
def test_selftest_negative_control(name, monkeypatch, capsys):
    """Every check of ``sga selftest`` is live: a changed answer of its
    second route makes the selftest exit 4 with the check's message, which
    names the first case that differs (for the kiss check, the ordered pair
    of either changed half)."""
    target, change, message = PERTURBED[name]
    owner = sga.repmod if target == "hom_dim_oracle" else sga.checks
    route = getattr(owner, target)
    monkeypatch.setattr(owner, target, lambda *a: change(a, route(*a)))
    assert main(["selftest", EX1, "--max-len", "4"]) == 4
    assert capsys.readouterr().err.endswith(f"theorem violation: {message}\n")


@pytest.mark.parametrize("cmd", ["components", "adm", "selftest"])
def test_truncation_notice(cmd, capsys):
    assert main([cmd, EX1, "--max-len", "3"]) == 0
    assert "# truncated at max-len" in capsys.readouterr().err


def test_no_truncation_notice_when_complete(capsys):
    assert main(["components", EX1, "--max-len", "8"]) == 0
    assert capsys.readouterr().err == ""


BAND9 = "band: a1- a3 e1 a4"                # an odd band of the seed-9 quiver
PP42 = "1(v1,-)- a4 a3 1(v4,-)"             # a (p,p) word of the seed-42 quiver


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    from sga.parsing import print_quiver
    from sga.randquiver import random_skewed_gentle_quiver
    paths = {}
    for seed in (9, 42):
        path = tmp_path_factory.mktemp("quivers") / f"s{seed}.quiver"
        path.write_text(print_quiver(random_skewed_gentle_quiver(seed)), encoding="utf-8")
        paths[seed] = str(path)
    return paths


def _gvec(seed, x, module, tag, code):
    return pytest.param(seed, ["gvec", "--x", x, "--module", module, "--tag", tag],
                        code, id=f"s{seed}-gvec-{module}-{tag}")


@pytest.mark.parametrize("seed, args, code", [
    # a module literal of size 0 is a parse error, not a zero module
    _gvec(9, BAND9, "V(0,2)", "*", 2),
    pytest.param(9, ["hom", "--x", BAND9, "--X", "V(0,1)", "--y", BAND9, "--Y", "V(1,1)"],
                 2, id="s9-hom-V(0,1)"),
    _gvec(42, PP42, "W(0,+)", "++", 2),
    _gvec(42, PP42, "Wchi(0,-)", "++", 2),
    _gvec(42, PP42, "Vt(0,2)", "**", 2),
    # V and Vt take an integer parameter, W and Wchi a sign
    _gvec(42, PP42, "V(1,+)", "++", 2),
    _gvec(42, PP42, "Vt(1,-)", "**", 2),
    _gvec(42, PP42, "W(1,5)", "++", 2),
    _gvec(42, PP42, "Wchi(2,7)", "++", 2),
    # gvec compares only a module of the tag's family
    _gvec(42, PP42, "W(1,+)", "+-", 3),
    _gvec(42, PP42, "W(1,+)", "**", 3),
    _gvec(9, BAND9, "V(2,2)", "*", 3),
    _gvec(42, PP42, "W(1,+)", "++", 0),
    _gvec(42, PP42, "Vt(1,2)", "**", 0),
    _gvec(9, BAND9, "V(1,2)", "*", 0),
])
def test_module_refusals(seeded, seed, args, code, capsys):
    assert main([args[0], seeded[seed], *args[1:], "--field", "7"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "MISMATCH" not in err


UU = "1(1,-)- g 1(3,-)"                     # ex1 words of type (u,u) and (u,p)
UP = "1(2,+)- 1(2,-)"


def _wrong_kind(cmd, word, module, *extra):
    if cmd == "gvec":
        args = ["gvec", EX1, "--x", word, "--module", module]
    elif cmd == "einv":
        args = ["einv", EX1, "--x", word, "--X", module, "--y", word, "--Y", module]
    else:
        args = ["hom", EX1, "--x", word, "--X", module, "--y", word, "--Y", module,
                "--mode", cmd.split("-")[1]]
    return pytest.param(args + list(extra), id="-".join([cmd, module, *extra]))


@pytest.mark.parametrize("argv", [
    _wrong_kind(cmd, word, module) for cmd in
    ("hom-formula", "hom-oracle", "hom-both", "einv", "gvec")
    for word, module in ((UU, "W(2,+)"), (UP, "V(1,2)"), (UP, "Vo"))
] + [
    _wrong_kind("einv", UU, "V+", "--tag-x", "++", "--tag-y", "++"),
    _wrong_kind("gvec", UP, "W(1,-)", "--tag", "++"),
])
def test_module_of_the_wrong_kind_is_refused(argv, capsys):
    """Each command that takes a module literal refuses one that does not
    live over the word's algebra before any route runs: exit 3 and nothing
    on stdout."""
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "does not live over" in err


@pytest.mark.parametrize("make", ["module_Vband", "module_W", "module_Vt"])
def test_module_constructors_refuse_size_zero(make):
    from sga import repmod
    with pytest.raises(SgaError, match="at least 1"):
        getattr(repmod, make)(0, 2, 7)


UP42 = "1(v1,+)- 1(v1,-)"                   # a (u,p) word of the seed-42 quiver


def test_tag_minus_minus_on_the_command_line(seeded, capsys):
    """argparse drops the value of ``--tag=--``; the tag options read it as
    the tag ``--`` instead of no tag."""
    argv = ["gvec", seeded[42], "--x", PP42, "--tag=--", "--field", "7"]
    assert main(argv + ["--module", "Wchi(1,+)"]) == 0
    assert capsys.readouterr().out == "comb: (0,-1,0,0,1,0)\noracle: (0,-1,0,0,1,0)\n"
    assert main(argv + ["--module", "W(1,+)"]) == 3
    assert "not in the family of tag --" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == "comb: (0,-1,0,0,1,0)\n"
    assert main(["einv", seeded[42], "--x", PP42, "--y", PP42,
                 "--tag-x=--", "--tag-y=++"]) == 0
    assert capsys.readouterr().out.startswith("e_comb: ")


def test_family_check_compares_modules_by_content(seeded, capsys):
    """``V(1,1)`` over GF(7) has the matrices of ``V+``, the member of tag
    ``++`` on a (u,p) word, so gvec compares them although the labels differ."""
    assert main(["gvec", seeded[42], "--x", UP42, "--tag", "++",
                 "--module", "V(1,1)", "--field", "7"]) == 0
    comb, oracle = capsys.readouterr().out.splitlines()
    assert comb.startswith("comb: ") and oracle == "oracle: " + comb[len("comb: "):]


def test_gvec_route_mismatch(seeded, monkeypatch, capsys):
    """A route that disagrees makes ``gvec`` exit 4, naming both routes and
    their vectors."""
    comb = sga.cli.g_comb
    monkeypatch.setattr(sga.cli, "g_comb",
                        lambda *a: {k: v + 1 for k, v in comb(*a).items()})
    assert main(["gvec", seeded[42], "--x", PP42, "--tag=--", "--field", "7",
                 "--module", "Wchi(1,+)"]) == 4
    out, err = capsys.readouterr()
    assert out == "comb: (1,0,1,1,2,1)\noracle: (0,-1,0,0,1,0)\n"
    assert ("theorem violation: GVEC MISMATCH: comb (1,0,1,1,2,1), "
            "oracle (0,-1,0,0,1,0)") in err
