"""Every function of the package is used by the program.

A function that only tests call is a second, unexercised path beside the
one the commands run (per-layer functions kept beside the fused forward
pass, or a helper's mode that only one test took, were such paths). Two
guards:

- The public one runs the command flow of `tools/same_outputs.py` in
  process under `sys.setprofile`, recording the code object of every
  call, and asserts that each public top-level function, and each public
  method of a public class, of `src/mvclda/` was called, or is named in
  `bench/`: as an attribute `owner.name` whose owner is its module or
  class, or by a string constant in `bench/tracer.py`, whose tracer wraps
  some methods by name. Calls count by code object, so `bytes.decode`
  keeps no `Vocabulary.decode` alive, and a check named "ancestors" keeps
  no `LabelSpace.ancestors` alive.
- The private one asserts that each single-underscore top-level function
  and method of `src/mvclda/` is referenced by name (a bare name or an
  attribute) somewhere in `src/mvclda/` outside its own `def`. Only the
  package reaches a private helper, so one it never names is reached by
  tests alone.

A third guard asks the same of parameter defaults: each defaulted
parameter of a function the package calls is left out by at least one of
those calls. A default that every call overrides is a second value beside
the one the commands pass, and the path it keeps (a random table, an
unchecked load) is taken by tests alone.
"""

import ast
import importlib
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from mvclda import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # the tools import their sibling `revision`
TRACER = ROOT / "bench" / "tracer.py"
GUARDED = sorted(p.name for p in (ROOT / "src" / "mvclda").glob("*.py"))


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """The code objects of every call the command flow makes."""
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    run_dir = tmp_path_factory.mktemp("flow")
    (run_dir / "cfg").mkdir()
    for name, text in tool.CONFIGS.items():
        (run_dir / "cfg" / name).write_text(text)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(run_dir)
        for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
            mp.delenv(key)
        sys.setprofile(profile)
        try:
            exits = [cli.main(argv) for argv in tool.FLOW]
        finally:
            sys.setprofile(None)
    assert exits == [cli.EXIT_OK] * len(tool.FLOW)
    return codes


def _bench_names() -> set[str]:
    """`owner.name` for every attribute in `bench/` taken on a name or an
    attribute (`embed.initial_tables`, `model.GradientSet.add_` gives
    `GradientSet.add_`), and every string constant of `bench/tracer.py`."""
    names = set()
    for path in ROOT.glob("bench/**/*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name):
                    names.add(f"{owner.id}.{node.attr}")
                elif isinstance(owner, ast.Attribute):
                    names.add(f"{owner.attr}.{node.attr}")
            elif (path == TRACER and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def _public(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(class or None, name) for each public top-level function and each
    public method of a public class."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            names.append((None, node.name))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [(node.name, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def _code(obj):
    """The code object behind a function, method, classmethod or property."""
    obj = obj.fget if isinstance(obj, property) else obj
    return getattr(obj, "__func__", obj).__code__


@pytest.mark.parametrize("module", GUARDED)
def test_public_functions_are_reachable(module, called):
    tree = ast.parse((ROOT / "src" / "mvclda" / module).read_text(encoding="utf-8"))
    public = _public(tree)
    assert public or module == "__init__.py"
    mod = importlib.import_module(f"mvclda.{Path(module).stem}")
    bench = _bench_names()
    unused = []
    for owner, name in public:
        obj = vars(getattr(mod, owner))[name] if owner else getattr(mod, name)
        qualified = f"{owner or Path(module).stem}.{name}"
        # a bare name in `bench` is one of the tracer's strings
        if _code(obj) not in called and qualified not in bench and name not in bench:
            unused.append(qualified)
    assert unused == []


def _functions(tree: ast.Module) -> list[tuple[ast.ClassDef | None, ast.FunctionDef]]:
    """(class or None, def) for each top-level function and method."""
    defs = []
    for node in tree.body:
        owner = node if isinstance(node, ast.ClassDef) else None
        defs += [(owner, item) for item in (node.body if owner else [node])
                 if isinstance(item, ast.FunctionDef)]
    return defs


def _private(tree: ast.Module) -> list[ast.FunctionDef]:
    """Each single-underscore (not dunder) top-level function and method."""
    return [func for _, func in _functions(tree)
            if func.name.startswith("_") and not func.name.startswith("__")]


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced under `node`, as a bare name or as
    an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_private_functions_are_referenced_in_the_package():
    trees = {module: ast.parse((ROOT / "src" / "mvclda" / module).read_text(encoding="utf-8"))
             for module in GUARDED}
    references = sum(map(_references, trees.values()), Counter())
    private = [(module, node) for module, tree in trees.items() for node in _private(tree)]
    assert private
    unreferenced = [f"{module}:{node.name}" for module, node in private
                    if references[node.name] == _references(node)[node.name]]
    assert unreferenced == []


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in `trees` by the name it calls, a bare name or an
    attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted(owner: ast.ClassDef | None, func: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position among a call's positional arguments) of each
    defaulted parameter of `func`; None for a keyword-only one. A method's
    receiver (its first parameter) takes no position."""
    args = func.args
    positional = args.posonlyargs + args.args
    receiver = owner is not None
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i - receiver) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _supplies(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether `call` passes the parameter `name`: by keyword, by a `**`
    splat, or at `position` by a positional argument or a `*` splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_parameter_defaults_are_used_in_the_package():
    trees = {module: ast.parse((ROOT / "src" / "mvclda" / module).read_text(encoding="utf-8"))
             for module in GUARDED}
    calls = _calls(trees.values())
    overridden = []
    for module, tree in trees.items():
        for owner, func in _functions(tree):
            for name, position in _defaulted(owner, func) if func.name in calls else ():
                if all(_supplies(call, name, position) for call in calls[func.name]):
                    where = f"{owner.name}.{func.name}" if owner else func.name
                    overridden.append(f"{module}:{where}({name})")
    assert overridden == []
