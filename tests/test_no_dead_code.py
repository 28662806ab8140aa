"""Every function, class and method of minorbit has a caller.

A definition counts as called when its name is read somewhere in src/ (as
a name or as an attribute), when perfbench/tracing.py wraps it, when the
acceptance tests or the benchmark workloads read it, or when ALLOWED names
it with the reason it has no caller in the source.  Names are matched
without their owner, so a method counts as called when any attribute of
that name is read.
"""

import ast

from conftest import REPO_ROOT
from test_benchmark_targets import _load_tracing

SRC = REPO_ROOT / "src" / "minorbit"
READERS = (REPO_ROOT / "tests" / "test_acceptance.py", REPO_ROOT / "perfbench" / "workloads.py")

ALLOWED = {
    "cli._Parser.error": "argparse calls it when it rejects the command line",
    "sphver.ActionOperator": "the float pi_chi generators, until the exact action replaces them",
    "sphver.ActionOperator.apply": "as sphver.ActionOperator",
}


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definitions(tree: ast.Module, module: str):
    """(qualified name, name) of the module-level functions and classes of a
    module and of the non-dunder methods of its classes."""
    for node in tree.body:
        if not _is_def(node):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_def(item) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def names_read(tree: ast.AST) -> set:
    """Every identifier the code reads, as a name or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unreferenced(sources: dict, read_elsewhere=frozenset(), covered=frozenset()) -> list:
    """The qualified names of the definitions in sources ({module: text})
    whose name neither the sources nor read_elsewhere read, leaving out
    those in covered."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set(read_elsewhere).union(*(names_read(t) for t in trees.values()))
    return sorted(qual for module, tree in trees.items()
                  for qual, name in definitions(tree, module)
                  if name not in read and qual not in covered)


def _minorbit_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _traced() -> set:
    return {f"{layer}.{attr}" for layer, names in _load_tracing().TARGETS.items()
            for attr in names}


def _read_by_readers() -> set:
    return set().union(*(names_read(ast.parse(path.read_text())) for path in READERS))


def test_every_definition_has_a_caller():
    dead = unreferenced(_minorbit_sources(), _read_by_readers(), _traced() | set(ALLOWED))
    assert not dead, dead


def test_every_allowed_name_is_a_definition_without_a_caller():
    # an entry whose definition is gone or has gained a caller is stale
    assert set(ALLOWED) <= set(unreferenced(_minorbit_sources(), _read_by_readers(), _traced()))


def test_the_scan_flags_an_unreferenced_definition():
    source = (
        "def used():\n    return helper\n\n"
        "def helper():\n    pass\n\n"
        "def unused():\n    used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.orphan = 1\n\n"
        "    def opened(self):\n        pass\n\n"
        "    def orphan(self):\n        pass\n\n"
        "Box().opened\n"
    )
    assert unreferenced({"mod": source}) == ["mod.Box.orphan", "mod.unused"]
    assert unreferenced({"mod": source}, read_elsewhere={"unused"}) == ["mod.Box.orphan"]
    assert unreferenced({"mod": source}, covered={"mod.Box.orphan", "mod.unused"}) == []
