"""Single-site mutation run of the math modules against tier-1.

    python3 tools/mutate.py [MODULE ...]

Run it from the repository root; it needs only the standard library, git
and pytest.  MODULE names a module of ``src/sga`` (``words``, ``kisses``,
...); with none it runs all of ``MODULES`` and rewrites ``tools/mutants.json``,
otherwise it replaces the entries of the named modules only.

A mutant changes one site inside a function body: an arithmetic operator
(``+`` and ``-`` swap, ``*`` and ``//`` swap, ...), a comparison (``<`` to
``<=``, ``==`` to ``!=``, ``in`` to ``not in``, ...), a boolean operator
(``and`` and ``or`` swap), or an int constant of absolute value at most 4,
which gains 1.  The edit is made in the source text at the node's token, so
every other byte of the file stays as it is.

First a control run: tier-1 (``pytest -x -p no:cacheprovider``) on an
unmutated copy of the tree must pass, and three times its wall time is the
timeout of each mutant.  Then each mutant runs the same command in its own
temporary copy, ``os.cpu_count()`` at a time.  A mutant whose run fails or
times out (a hang) is killed; one that passes survives.

``tools/mutants.json`` holds, per module, the killed count, each killed
mutant with the first test that failed, and each survivor with a verdict:
``gap`` (a missing test or check; the reason names the test that would close
it) or ``equivalent`` (no input the program accepts can tell it apart), and
a one-line reason.  The verdicts are written by hand into the file; a rerun
carries each over to the survivor with the same module, function, text of
the mutated line and operator.  The exit status is 1 while any survivor has
no verdict, 2 when the control run fails.
"""

from __future__ import annotations

import ast
import bisect
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tools" / "mutants.json"
MODULES = ("homgraph", "kisses", "invariants", "admissible", "words", "repmod",
           "homalg", "gf")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]

SWAP = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
    ast.FloorDiv: ("//", "*"), ast.Div: ("/", "*"), ast.Mod: ("%", "//"),
    ast.Pow: ("**", "*"), ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"),
    ast.BitOr: ("|", "&"), ast.BitAnd: ("&", "|"), ast.BitXor: ("^", "|"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
}


class Mutant(NamedTuple):
    module: str
    function: str
    line: int
    start: int      # offsets of the replaced text in the source
    end: int
    op: str         # e.g. "< -> <=", "2 -> 3", "+ -> - #2" (its second on the line)
    text: str       # the mutated line as it reads unmutated, stripped

    @property
    def key(self) -> str:
        return f"{self.function} | {self.text} | {self.op}"


def _tokens(source: str, starts: list[int]) -> list[tuple[str, int, int]]:
    """(string, start, end) of every operator and name token, as offsets
    into ``source``, whose lines begin at ``starts``."""
    return [(t.string, starts[t.start[0] - 1] + t.start[1], starts[t.end[0] - 1] + t.end[1])
            for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type in (tokenize.OP, tokenize.NAME)]


def mutants(module: str, source: str) -> list[Mutant]:
    """Every single-site mutant inside the function bodies of ``source``."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    toks = _tokens(source, starts)
    out: list[Mutant] = []

    def offset(line: int, col: int) -> int:
        """The offset in ``source`` of an ast position (col counts bytes)."""
        return starts[line - 1] + len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))

    def between(a: ast.AST, b: ast.AST, word: str) -> tuple[int, int]:
        """The span of operator ``word`` (one or two tokens) between the
        end of node a and the start of node b."""
        lo, hi = offset(a.end_lineno, a.end_col_offset), offset(b.lineno, b.col_offset)
        parts = word.split()
        for k, (s, i, _) in enumerate(toks):
            if lo <= i < hi and [t[0] for t in toks[k:k + len(parts)]] == parts:
                return i, toks[k + len(parts) - 1][2]
        raise ValueError(f"{module}: no {word!r} at line {a.end_lineno}")

    def add(function: str, node: ast.AST, span: tuple[int, int], old: str, new: str) -> None:
        line = bisect.bisect_right(starts, span[0])
        text, op = lines[line - 1].strip(), f"{old} -> {new}"
        seen = sum(m.function == function and m.text == text and m.op.startswith(op)
                   for m in out)
        out.append(Mutant(module, function, line, *span,
                          op + (f" #{seen + 1}" if seen else ""), text))

    def visit(node: ast.AST, scope: str | None, in_def: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name if scope is None else f"{scope}.{node.name}"
            for child in node.body:
                visit(child, name, in_def or not isinstance(node, ast.ClassDef))
            return
        if isinstance(node, ast.JoinedStr):
            return                      # the text of a message
        if in_def:
            if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
                add(scope, node, between(node.left, node.right, SWAP[type(node.op)][0]),
                    *SWAP[type(node.op)])
            elif isinstance(node, ast.AugAssign) and type(node.op) in SWAP:
                old, new = SWAP[type(node.op)]
                add(scope, node, between(node.target, node.value, old + "="),
                    old + "=", new + "=")
            elif isinstance(node, ast.Compare):
                for a, op, b in zip([node.left] + node.comparators, node.ops,
                                    node.comparators):
                    add(scope, node, between(a, b, SWAP[type(op)][0]), *SWAP[type(op)])
            elif isinstance(node, ast.BoolOp):
                for a, b in zip(node.values, node.values[1:]):
                    add(scope, node, between(a, b, SWAP[type(node.op)][0]),
                        *SWAP[type(node.op)])
            elif isinstance(node, ast.Constant) and type(node.value) is int \
                    and abs(node.value) <= 4:
                span = (offset(node.lineno, node.col_offset),
                        offset(node.end_lineno, node.end_col_offset))
                add(scope, node, span, str(node.value), str(node.value + 1))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_def)

    visit(ast.parse(source), None, False)
    return out


def apply(source: str, m: Mutant) -> str:
    return source[:m.start] + m.op.split(" -> ")[1].split(" #")[0] + source[m.end:]


def copy_tree(dst: Path) -> None:
    """The files of the working tree that git tracks or does not ignore."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        src = ROOT / name
        if src.is_file():
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst / name)


def run_tests(tree: Path, timeout: float | None = None) -> tuple[str, str]:
    """("pass" | "fail" | "timeout", the first failed test) of tier-1 in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        res = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    failed = [line.split()[1] for line in res.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return ("pass" if res.returncode == 0 else "fail"), (failed[0] if failed else "")


def run_mutant(base: Path, source: str, m: Mutant, timeout: float) -> tuple[str, str]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(base, tree)
        (tree / "src" / "sga" / f"{m.module}.py").write_text(apply(source, m),
                                                             encoding="utf-8")
        status, failed = run_tests(tree, timeout)
    if status == "pass":
        print(f"survives: {m.module}.py:{m.line}: {m.key}", flush=True)
    return status, failed


def main(argv: list[str]) -> int:
    chosen = argv or list(MODULES)
    unknown = [m for m in chosen if m not in MODULES]
    if unknown:
        print(f"unknown module(s): {' '.join(unknown)}; choose from {' '.join(MODULES)}",
              file=sys.stderr)
        return 2
    old = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {"modules": {}}
    verdicts = {(mod, s["key"]): (s["verdict"], s["reason"])
                for mod, entry in old["modules"].items() for s in entry["survivors"]
                if s.get("verdict")}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        t0 = time.monotonic()
        status, failed = run_tests(base)
        control = time.monotonic() - t0
        if status != "pass":
            print(f"control run failed ({failed}): tier-1 must pass unmutated",
                  file=sys.stderr)
            return 2
        timeout = 3 * control
        print(f"control run passed in {control:.1f} s; timeout {timeout:.1f} s", flush=True)
        sources = {mod: (base / "src" / "sga" / f"{mod}.py").read_text(encoding="utf-8")
                   for mod in chosen}
        todo = [m for mod in chosen for m in mutants(mod, sources[mod])]
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            results = list(pool.map(
                lambda m: run_mutant(base, sources[m.module], m, timeout), todo))
    modules = old["modules"]
    for mod in chosen:
        modules[mod] = {"sha256": hashlib.sha256(sources[mod].encode()).hexdigest(),
                        "mutants": 0, "killed": 0, "timeouts": 0,
                        "killed_by": [], "survivors": []}
    for m, (status, failed) in zip(todo, results):
        entry = modules[m.module]
        entry["mutants"] += 1
        if status == "pass":
            verdict, reason = verdicts.get((m.module, m.key), (None, None))
            entry["survivors"].append({"key": m.key, "line": m.line, "verdict": verdict,
                                       "reason": reason})
        else:
            entry["killed"] += 1
            entry["timeouts"] += status == "timeout"
            entry["killed_by"].append(f"{m.line}: {m.op} in {m.function}: "
                                      f"{failed or status}")
    out = {"command": "python3 tools/mutate.py", "control_s": round(control, 1),
           "timeout_s": round(timeout, 1), "modules": dict(sorted(modules.items()))}
    OUT.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    open_ = [(mod, s["line"], s["key"]) for mod, entry in out["modules"].items()
             for s in entry["survivors"] if not s["verdict"]]
    for mod, entry in out["modules"].items():
        print(f"{mod}: {entry['killed']}/{entry['mutants']} killed, "
              f"{len(entry['survivors'])} survive")
    for mod, line, key in open_:
        print(f"no verdict: {mod}.py:{line}: {key}")
    return 1 if open_ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
