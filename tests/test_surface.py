"""The public surface of ``src/`` holds only what a run reaches.

Every name in a toolkit module's ``__all__`` must be used in code by
another module or function of the toolkit, by the benchmark under
``perfbench/``, or by the acceptance suite. A helper that only its own unit
tests call belongs in ``tests/``, next to them. The rule covers every
module, since the package ``__init__`` exports nothing. Every error class
of ``errors.py`` must be raised or caught by another toolkit module: a
class that only tests raise tells a user about a failure that cannot
happen, so it lives in those tests.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twoscale"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def used_names(nodes) -> set[str]:
    """Names read, attribute names and string call arguments in ``nodes``.

    String arguments count because the benchmark wraps functions by
    attribute name. Docstrings, ``__all__`` entries, imports and
    assignment targets do not count.
    """
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Call):
                out.update(a.value for a in node.args
                           if isinstance(a, ast.Constant)
                           and isinstance(a.value, str))
    return out


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def defines(node: ast.stmt, name: str) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name == name)


def test_every_export_is_reached_outside_the_unit_tests():
    trees = {path: parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = sorted((ROOT / "perfbench").glob("*.py")) \
        + [ROOT / "tests" / "test_acceptance.py"]
    reached = used_names(parse(path) for path in outside)
    unreached = []
    for path, tree in trees.items():
        others = used_names(t for p, t in trees.items() if p != path)
        for name in exports(tree):
            own = used_names(n for n in tree.body if not defines(n, name))
            if name not in reached | others | own:
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, (
        "exported but called only by unit tests; move an oracle into "
        f"tests/, delete the rest: {', '.join(unreached)}")


def raised_or_caught(tree: ast.Module) -> set[str]:
    """Names of the classes that ``raise`` and ``except`` clauses name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out |= used_names([exc])
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            out |= used_names([node.type])
    return out


def test_every_error_class_is_raised_or_caught_in_src():
    errors = SRC / "errors.py"
    classes = [node.name for node in parse(errors).body
               if isinstance(node, ast.ClassDef)]
    handled = set().union(*(raised_or_caught(parse(path))
                            for path in SRC.glob("*.py") if path != errors))
    unhandled = [name for name in classes if name not in handled]
    assert not unhandled, (
        "error classes that src/ never raises or catches; move each into "
        f"the tests that raise it: {', '.join(unhandled)}")
