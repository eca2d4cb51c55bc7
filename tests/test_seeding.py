"""Every random stream in the library starts at `pipeline.seeded_rng`.

A second place that builds a generator from a seed can disagree with it on
which seeds are valid (a negative seed is valid only once masked to 64 bits)
or on which stream a seed selects; this test keeps such places out of
`src/lidarmix`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lidarmix"
ALLOWED = {("pipeline.py", "seeded_rng")}
SEEDERS = {"default_rng", "SeedSequence"}


def seeder_uses(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every reference to a numpy seeder."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            (isinstance(node, ast.Attribute) and node.attr in SEEDERS)
            or (isinstance(node, ast.Name) and node.id in SEEDERS)
            or (isinstance(node, ast.alias) and node.name in SEEDERS)
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(s):\n    return np.random.default_rng(s)\n", [("f", 2)]),
        ("def f(s):\n    return np.random.SeedSequence(s)\n", [("f", 2)]),
        ("def f(s):\n    return default_rng(s)\n", [("f", 2)]),
        ("from numpy.random import default_rng\n", [("<module>", 1)]),
        ("make = np.random.default_rng\n", [("<module>", 1)]),
        ("def f(rng: np.random.Generator):\n    return rng.integers(3)\n", []),
    ],
)
def test_scanner_finds_seeders(source, expected):
    assert seeder_uses(source) == expected


def test_one_seeding_path():
    seen = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for function, line in seeder_uses(module.read_text(encoding="utf-8")):
            seen.add((module.name, function))
            assert (module.name, function) in ALLOWED, (
                f"{module.name}:{line} ({function}) seeds a generator; "
                "call pipeline.seeded_rng instead"
            )
    assert seen == ALLOWED
