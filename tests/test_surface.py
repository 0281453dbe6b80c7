"""The package's surface: no library code that only tests call, no knob that only tests set.

Every module-level function, class and constant in src/shapcf is either
exported in shapcf.__all__ or referenced by library code. A reference is an
AST name, attribute or imported name anywhere in the package, outside the
top-level statement that defines it; click commands are reached through
their group and are exempt, as are dunder names such as __version__.

An exported name is itself referenced by library code outside __init__.py,
or is on USER_API. Every ExplainConfig field is set by the CLI or by a
benchmark workload. No module imports an underscore name from another
module of the package: a private name stays with the module that owns it.
"""

from __future__ import annotations

import ast
import re
import types
from dataclasses import fields
from pathlib import Path

import shapcf
from shapcf.explain import ExplainConfig

PACKAGE = Path(shapcf.__file__).parent
ROOT = Path(__file__).parents[1]

# Exported names no library code calls, each kept for users of the package.
USER_API = {
    "apply_transfer": "builds the partition after a transfer, to inspect or re-value an explanation's outcome",
    "diff_shapley_mc": "the paper's Monte Carlo estimator of a pair's differential, documented in README",
    "power_mc": "the paper's Monte Carlo estimator of an entry's power, documented in README",
    "power_exact": "the paper's exact entry power, documented in README",
}


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


def private_imports(package: Path) -> list[str]:
    """module: name of each underscore name that a module imports from a shapcf module, dunders aside."""
    return [
        f"{path.stem}: {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "shapcf")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(PACKAGE) == []


def test_a_private_import_is_caught(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .other import _hidden, shown\n"
        "from . import __version__\n"
        "from numpy import _private\n"
        "def f():\n    from shapcf.core import _rule\n"
    )
    assert private_imports(tmp_path) == ["mod: _hidden", "mod: _rule"]


def library_references(package: Path) -> set[str]:
    """Every name referenced by a top-level statement of a module other than __init__.py, but not its own."""
    return {
        name
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text()).body
        for name in set(referenced_names(stmt)) - set(defined_names(stmt))
    }


def test_every_export_is_used_by_the_library_or_is_user_api():
    exported = {name for name in shapcf.__all__ if not isinstance(getattr(shapcf, name), types.ModuleType)}
    assert sorted(exported - library_references(PACKAGE) - set(USER_API)) == []
    assert set(USER_API) <= exported


def keywords_passed(path: Path, callee: str) -> set[str]:
    """The keyword names of every call to `callee` in the module at `path`."""
    return {
        kw.arg
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == callee
        for kw in node.keywords
    }


def dict_keys(path: Path, name: str) -> set[str]:
    """The string keys of the dict literal assigned to the top-level `name` of the module at `path`."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
            return {key.value for key in stmt.value.keys if isinstance(key, ast.Constant)}
    raise AssertionError(f"{path} assigns no {name}")


def test_every_explain_config_field_is_set_outside_the_tests():
    cli = keywords_passed(PACKAGE / "cli.py", "ExplainConfig")
    workloads = dict_keys(ROOT / "perfbench" / "workloads.py", "SAMPLING")
    assert cli and workloads
    assert sorted({f.name for f in fields(ExplainConfig)} - cli - workloads) == []


def test_readme_names_no_private_library_name():
    # README is a user guide: mechanism behind private names lives in their
    # docstrings. The exceptions are the two hooks a custom oracle implements.
    readme = (ROOT / "README.md").read_text()
    named = {name for span in re.findall(r"`([^`\n]+)`", readme) for name in re.findall(r"[\w.]+", span)}
    private = {name for name in named if name.startswith("_") or "._" in name}
    assert sorted(private - {"_score", "_score_many"}) == []
