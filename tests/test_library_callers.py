"""Every function, class and method of ``sga`` has a caller in ``sga``:
code that only the tests call is a test helper or a registry check in
``sga.checks``, not library code.  The public API that no module calls yet
is listed, each name with its reason."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sga"

UNCALLED = {
    "hom_system": "perfbench's tracer wraps it and BENCHMARK.json declares its counters "
                  "(ROADMAP item 5 deletes it)",
    "direct_sum": "public oracle API (ROADMAP items 1 and 2)",
    "Rep.dim_vector": "public oracle API (ROADMAP items 13 and 16)",
    "Family.params": "public catalogue API (ROADMAP items 7 and 16)",
    "Family.points": "public catalogue API (ROADMAP items 7 and 16)",
    "hom_basis_structured": "public oracle API (ROADMAP item 14)",
    "iso_witness": "public oracle API (ROADMAP items 1 and 14)",
    "random_skewed_gentle_quiver": "tooling: the random quivers of the tests and benchmark",
    "__getattr__": "PEP 562: Python calls a module's __getattr__",
}


def _reads(tree, module):
    """The names, attributes and imported names in tree; the re-exports of
    ``__init__`` are not callers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and module != "__init__":
            yield from (alias.name for alias in node.names)


def _definitions(tree):
    """Each module-level function and class, and each method other than
    the dunders the language calls, by qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"))


def uncalled():
    """The definitions whose name is read nowhere in ``sga`` but inside
    their own body."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    reads = Counter(name for module, tree in trees.items() for name in _reads(tree, module))
    return {qual for module, tree in trees.items() for qual, node in _definitions(tree)
            if reads[node.name] == Counter(_reads(node, module))[node.name]}


def test_every_definition_has_a_caller_in_the_library():
    assert uncalled() == set(UNCALLED)
