"""Every public top-level function of the package is used by the program.

A function that only tests call is a second, unexercised path beside the
one the commands run (the layer functions `forward` once duplicated were
such a path). This guard parses every module of `src/mvclda/` and asserts
that each public top-level function is referenced, as a name or an
attribute, somewhere in `src/` or `bench/` other than its own definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GUARDED = sorted(p.name for p in (ROOT / "src" / "mvclda").glob("*.py"))


def _references() -> set[str]:
    names = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/**/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", GUARDED)
def test_public_functions_are_reachable(module):
    tree = ast.parse((ROOT / "src" / "mvclda" / module).read_text(encoding="utf-8"))
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public or module == "__init__.py"
    used = _references()
    assert [name for name in public if name not in used] == []
