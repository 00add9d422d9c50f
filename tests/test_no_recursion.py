"""No function in the package calls itself by name.

Trees and terms may nest to any depth, so every walk over them keeps an
explicit stack; a recursive helper would raise RecursionError on deep
enough input. Each module under src/sldtree is parsed, and a function
whose body reads its own name, as a name or as an attribute, counts as
recursive: it calls itself, or hands itself on, as in map(f, args). An
attribute of super() is excepted: super().<name> is another class's.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sldtree"


def _is_super(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def self_references(source: str) -> list[tuple[str, int]]:
    """(function name, line) of each place a function reads its own name."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id == fn.name
                    or isinstance(node, ast.Attribute)
                    and node.attr == fn.name and not _is_super(node.value)):
                found.append((fn.name, node.lineno))
    return found


def test_the_check_finds_a_recursive_function():
    assert self_references("def f(n):\n    return f(n - 1)\n") == [("f", 2)]
    assert self_references(
        "def depth(t):\n    return 1 + max(map(depth, t), default=0)\n"
    ) == [("depth", 2)]
    assert self_references(
        "class A:\n    def g(self):\n        self.g()\n") == [("g", 3)]
    assert self_references(
        "class B(A):\n    def g(self):\n        super().g()\n") == []


def test_no_function_calls_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = {m.name: self_references(m.read_text(encoding="utf-8"))
             for m in modules}
    assert {name: refs for name, refs in found.items() if refs} == {}
