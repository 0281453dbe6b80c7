"""The package's surface: no library code that only tests call.

Every module-level function, class and constant in src/shapcf is either
exported in shapcf.__all__ or referenced by library code. A reference is an
AST name, attribute or imported name anywhere in the package, outside the
top-level statement that defines it; click commands are reached through
their group and are exempt, as are dunder names such as __version__.
"""

from __future__ import annotations

import ast
from pathlib import Path

import shapcf

PACKAGE = Path(shapcf.__file__).parent


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def referenced_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def is_click_command(stmt: ast.stmt) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in getattr(stmt, "decorator_list", ())
    )


def unreferenced(package: Path, exported: set[str]) -> list[str]:
    """module.name of each top-level definition that nothing but itself refers to."""
    statements = [
        (path.stem, stmt) for path in sorted(package.glob("*.py")) for stmt in ast.parse(path.read_text()).body
    ]
    users: dict[str, set[int]] = {}
    for _, stmt in statements:
        for name in referenced_names(stmt):
            users.setdefault(name, set()).add(id(stmt))
    return [
        f"{module}.{name}"
        for module, stmt in statements
        for name in defined_names(stmt)
        if not (name.startswith("__") or name in exported or is_click_command(stmt))
        and not users.get(name, set()) - {id(stmt)}
    ]


def test_every_definition_is_used_or_exported():
    assert unreferenced(PACKAGE, set(shapcf.__all__)) == []


def test_an_unused_definition_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "LIMIT = 3\n"
        "_UNUSED = 4\n"
        "def used(x):\n    return x + LIMIT\n"
        "def leftover(x):\n    return leftover(x - 1) if x else used(x)\n"
        "@main.command()\ndef cmd():\n    pass\n"
    )
    (tmp_path / "other.py").write_text("from .mod import used\n")
    assert unreferenced(tmp_path, {"public"}) == ["mod._UNUSED", "mod.leftover"]
