"""Every public top-level function, and every public method of a public
class, of the package is used by the program.

A function that only tests call is a second, unexercised path beside the
one the commands run (the layer functions `forward` once duplicated were
such a path). This guard parses every module of `src/mvclda/` and asserts
that each public function and method is referenced, as a name or an
attribute, somewhere in `src/` or `bench/` other than its own definition,
or named by a string constant in `bench/tracer.py`: the benchmark's tracer
wraps some methods by name. Other string constants (check names, labels)
do not count, so a check named "ancestors" keeps no `ancestors` method alive.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
GUARDED = sorted(p.name for p in (ROOT / "src" / "mvclda").glob("*.py"))


def _references() -> set[str]:
    names = set()
    for top in ("src", "bench"):
        for path in ROOT.glob(f"{top}/**/*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (path == TRACER and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    names.add(node.value)
    return names


def _public(tree: ast.Module) -> list[str]:
    """Public top-level functions, and public methods as `Class.method`."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


@pytest.mark.parametrize("module", GUARDED)
def test_public_functions_are_reachable(module):
    tree = ast.parse((ROOT / "src" / "mvclda" / module).read_text(encoding="utf-8"))
    public = _public(tree)
    assert public or module == "__init__.py"
    used = _references()
    assert [name for name in public if name.rpartition(".")[2] not in used] == []
