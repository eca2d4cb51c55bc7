"""Kernels in `src/lidarmix` read boxes as columns of a `BoxSet`.

A comprehension or `for` loop that reads a per-box field (`b.cx`,
`b.score`, ...) walks the boxes one Python object at a time, which is the
cost a BoxSet's (K, 9) array removes. This test keeps such loops out of the
package, except where a sequence of Box3Ds becomes the array.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lidarmix"
FIELDS = {"cx", "cy", "cz", "w", "l", "h", "yaw", "score", "class_id"}
ALLOWED = {("geometry.py", "BoxSet.of")}
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def field_loops(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every outermost comprehension or for
    loop that reads a per-box field; a method is named Class.method."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, LOOPS) and any(
            isinstance(n, ast.Attribute) and n.attr in FIELDS and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
        ):
            found.append((scope, node.lineno))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(bs):\n    return [b.cx for b in bs]\n", [("f", 2)]),
        ("def f(bs):\n    for b in bs:\n        print(b.score)\n", [("f", 2)]),
        ("class C:\n    def m(self, bs):\n        return sum(b.w for b in bs)\n", [("C.m", 3)]),
        ("ys = {b.yaw for b in bs}\n", [("<module>", 1)]),
        ("def f(bs):\n    return {b.class_id: b for b in bs}\n", [("f", 2)]),
        ("def f(bs):\n    for b in bs:\n        for c in bs:\n            x = c.h\n", [("f", 2)]),
        ("def f(b):\n    return b.cx + b.cy\n", []),
        ("def f(rows):\n    return [math.hypot(cx, cy) for cx, cy in rows]\n", []),
        ("def f(bs):\n    return [bs.data[:, 6] for _ in range(3)]\n", []),
        ("def f(bs):\n    for b in bs:\n        b.score = 1.0\n", []),
    ],
)
def test_scanner_finds_field_loops(source, expected):
    assert field_loops(source) == expected


def test_boxes_read_as_columns():
    seen = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for scope, line in field_loops(module.read_text(encoding="utf-8")):
            seen.add((module.name, scope))
            assert (module.name, scope) in ALLOWED, (
                f"{module.name}:{line} ({scope}) reads box fields one box at a time; "
                "read the columns of a BoxSet instead"
            )
    assert seen == ALLOWED
