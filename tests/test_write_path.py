"""Every file the library writes goes through `io._replace_file`.

A writer that truncates an existing output in place (`Path.write_bytes`,
`Path.write_text`, `open(..., "w")`) waits on the disk whenever it rewrites a
file it wrote recently; this test keeps such writers out of `src/lidarmix`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lidarmix"
ALLOWED = {("io.py", "_replace_file")}
WRITE_METHODS = {"write_bytes", "write_text", "tofile"}


def _opens_for_writing(call: ast.Call) -> bool:
    # builtins.open(path, mode) or Path.open(mode); a mode that is not a
    # literal counts as a write
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def file_writers(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call that writes a file."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Attribute) and node.func.attr in WRITE_METHODS)
            or _opens_for_writing(node)
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(p):\n    p.write_bytes(b'')\n", [("f", 2)]),
        ("def f(p):\n    p.write_text('')\n", [("f", 2)]),
        ("def f(a, p):\n    a.tofile(p)\n", [("f", 2)]),
        ("def f(p):\n    open(p, 'w')\n", [("f", 2)]),
        ("def f(p):\n    open(p, mode='ab')\n", [("f", 2)]),
        ("def f(p):\n    open(p, 'r+')\n", [("f", 2)]),
        ("def f(p, m):\n    open(p, m)\n", [("f", 2)]),
        ("def f(p):\n    p.open('xb')\n", [("f", 2)]),
        ("open('out', 'w')\n", [("<module>", 1)]),
        ("def f(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n    p.read_bytes()\n", []),
    ],
)
def test_scanner_finds_writers(source, expected):
    assert file_writers(source) == expected


def test_one_write_path():
    seen = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for function, line in file_writers(module.read_text(encoding="utf-8")):
            seen.add((module.name, function))
            assert (module.name, function) in ALLOWED, (
                f"{module.name}:{line} ({function}) writes a file; "
                "go through io._replace_file instead"
            )
    assert seen == ALLOWED
