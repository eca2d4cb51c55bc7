"""Every scene order in the library comes from `pipeline._slot_pairs`.

Both pipeline stages walk their two scene sets the same way: each scene
owns one slot per epoch, in a seeded permutation order, paired with a
scene drawn from the other set. A second place that permutes scenes can
drift from that rule; this test keeps such places out of `src/lidarmix`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lidarmix"
ALLOWED = {("pipeline.py", "_slot_pairs")}


def permutation_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call of a `.permutation` method."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "permutation"
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(rng, n):\n    return rng.permutation(n)\n", [("f", 2)]),
        ("def f(n):\n    return np.random.permutation(n)\n", [("f", 2)]),
        ("def f(rng, n):\n    for i in rng.permutation(n).tolist():\n        pass\n", [("f", 2)]),
        ("order = rng.permutation(5)\n", [("<module>", 1)]),
        ("def f(rng, n):\n    def g():\n        return rng.permutation(n)\n", [("g", 3)]),
        ("def f(rng, xs):\n    rng.shuffle(xs)\n    return rng.integers(3)\n", []),
        ("def permutation(n):\n    return list(range(n))\n", []),
    ],
)
def test_scanner_finds_permutation_calls(source, expected):
    assert permutation_calls(source) == expected


def test_one_slot_walk():
    seen = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for function, line in permutation_calls(module.read_text(encoding="utf-8")):
            seen.add((module.name, function))
            assert (module.name, function) in ALLOWED, (
                f"{module.name}:{line} ({function}) permutes scenes; "
                "walk them with pipeline._slot_pairs instead"
            )
    assert seen == ALLOWED
