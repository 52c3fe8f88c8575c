"""The GF(p) oracle (``sga.gf``, ``sga.homalg``, ``sga.repmod``) loads only when something
uses it: importing the package or the command line and running a
word-level command leave it unloaded, while the package still offers every
oracle name. The checked identities (``sga.checks``) load only for the
commands that check a second route, never for ``components``. The oracle
is pure Python: no command loads numpy. The records are tuples and plain
classes, so no step loads ``dataclasses`` or the ``inspect`` module it
imports. The ray labels load ``fractions`` only once two neighbours have
no free integer label between them, which no step here reaches."""

import json
import os
import subprocess
import sys

import pytest

import sga

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
EX1 = os.path.join(ROOT, "tests", "data", "ex1.quiver")
ORACLE = ("sga.gf", "sga.homalg", "sga.repmod")
CHECKS = ("sga.checks",)
WATCHED = ("dataclasses", "fractions", "inspect", "numpy") + CHECKS + ORACLE
X, Y = "1(1,-)- g b e b- 1(3,+)", "1(2,-)- a 1(1,-)"

_PROBE = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in %r if m in sys.modules)
seen, rc = {}, {}
import sga
seen["import sga"] = loaded()
import sga.cli
seen["import sga.cli"] = loaded()
out = io.StringIO()
for name, argv in %r:
    with contextlib.redirect_stdout(out):
        rc[name] = sga.cli.main(argv)
    seen[name] = loaded()
print(json.dumps({"seen": seen, "rc": rc, "out": out.getvalue()}))
""" % (WATCHED, [
    ("components", ["components", EX1, "--max-len", "6"]),
    ("einv tags", ["einv", EX1, "--x", X, "--y", Y, "--tag-x", "++", "--tag-y", "++"]),
    ("adm", ["adm", EX1, "--max-len", "6"]),
    ("tau adm", ["tau", EX1, "--adm", X]),
    ("hom", ["hom", EX1, "--x", X, "--X", "Vo", "--y", Y, "--Y", "V+"]),
    ("einv modules", ["einv", EX1, "--x", X, "--y", Y, "--X", "Vo", "--Y", "V+"]),
    ("gvec module", ["gvec", EX1, "--x", X, "--module", "Vo"]),
    ("selftest", ["selftest", EX1, "--max-len", "4"]),
])


def test_word_commands_leave_the_oracle_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = json.loads(subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True).stdout)
    seen = res["seen"]
    for step in ("import sga", "import sga.cli", "components", "einv tags"):
        assert seen[step] == [], step
    for step in ("adm", "tau adm"):
        assert seen[step] == list(CHECKS), step
    for step in ("hom", "einv modules", "gvec module", "selftest"):
        assert seen[step] == sorted(CHECKS + ORACLE), step
    assert set(res["rc"].values()) == {0}
    assert "formula: 1\noracle: 1\n" in res["out"]
    assert "oracle: (-1,1,1,0)\n" in res["out"]


PUBLIC = [
    "AdmWord", "Arrow", "AxModule", "E_oracle", "Fringing", "GabrielPresentation",
    "HomGraph", "Letter", "PolarizedQuiver", "Rep", "Winding", "Word", "a_of_w",
    "admissible", "auto_fringe", "build_H", "build_HQ", "build_module",
    "check_fringing", "classify", "classify_components", "completion", "e_comb",
    "enumerate_adm", "enumerate_bands", "enumerate_components",
    "enumerate_strings_at", "errors", "format_word", "g_comb", "g_oracle",
    "gabriel_presentation", "gf", "hat_quiver", "hom_basis_oracle",
    "hom_basis_structured", "hom_dim_formula", "hom_dim_oracle", "homalg", "homgraph",
    "indecomposables_Ax", "invariants", "is_admissible", "is_tau_generic",
    "iso_witness", "kiss_census", "kisses", "lex_compare", "quiver", "real_long_bijection",
    "repmod", "simplified_check", "successor", "tags_for", "tau_adm", "tau_module",
    "tau_string", "validate", "words",
]


def test_public_names():
    assert sorted(sga.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(sga, name) is not None, name
    star: dict = {}
    exec("from sga import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC)
    assert star["build_module"] is sga.repmod.build_module
    assert sga.build_module is sga.repmod.build_module
    assert sga.AxModule is sga.repmod.AxModule
    assert sga.Rep is sga.homalg.Rep
    assert sga.iso_witness is sga.homalg.iso_witness
    with pytest.raises(AttributeError, match="no_such_name"):
        sga.no_such_name


_FAMILY_PROBE = """
import json, sys
from sga.invariants import Family, enumerate_components
from sga.parsing import parse_quiver
from sga.quiver import auto_fringe
from sga.randquiver import random_skewed_gentle_quiver
labels = []
for q in (parse_quiver(open(%r, encoding="utf-8").read()),
          random_skewed_gentle_quiver(42)):
    labels += enumerate_components(q, auto_fringe(q), 6)[0]
params = [Family(l.word, l.tag).params for l in labels]
print(json.dumps({"params": params, "tags": [l.tag for l in labels],
                  "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (EX1, ORACLE)


def test_family_params_leave_the_oracle_unloaded():
    """A label's parameter count is read from its ``Family`` without
    building a module, so it loads no oracle module."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = json.loads(subprocess.run(
        [sys.executable, "-c", _FAMILY_PROBE], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True).stdout)
    assert res["loaded"] == []
    assert res["params"] == [int("*" in s) for s in res["tags"]]
    assert 1 in res["params"] and 0 in res["params"]
