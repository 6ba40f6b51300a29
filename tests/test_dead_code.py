"""Dead code in the package source, found with `ast` alone.

Three checks over `src/affectpipe/*.py`:
- every name a module imports is used in that module, except in
  `__init__.py`, whose imports are the package's re-exports, and the
  `__future__` imports;
- every private module-level name (one leading underscore, not a dunder)
  is referenced somewhere in the package, its own module included, other
  than where it is defined;
- the float format `%.17g` is spelled once, in `timeline.FLOAT_FMT`: no
  other string but a docstring holds it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "affectpipe"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads: bare names, attribute names (a
    `module._name` reference) and names imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names the module defines at its top level."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _strings_holding(tree: ast.Module, text: str) -> list[int]:
    """The lines of the string constants holding `text`, docstrings left out."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and text in node.value and id(node) not in docstrings]


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line}: {bound}" for bound, line in _imported(tree).items()
                   if bound not in used]
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    modules = _modules()
    referenced = set().union(*map(_loaded_names, modules.values()))
    unreferenced = [f"{name}:{line}: {private}" for name, tree in modules.items()
                    for private, line in _private_definitions(tree).items()
                    if private not in referenced]
    assert unreferenced == []


def test_the_float_format_is_spelled_once():
    modules = _modules()
    [definition] = [node.lineno for node in modules["timeline.py"].body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["FLOAT_FMT"]]
    spelled = [f"{name}:{line}" for name, tree in modules.items()
               for line in _strings_holding(tree, "%.17g")]
    assert spelled == [f"timeline.py:{definition}"]


def test_the_checks_find_what_they_look_for():
    tree = ast.parse("from __future__ import annotations\nimport csv\n"
                     "from .timeline import csv_row_format, FLOAT_FMT\n"
                     "def _unused():\n    return FLOAT_FMT\n_KEPT = 1\nprint(_KEPT)\n")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == ["csv", "csv_row_format"]
    assert sorted(set(_private_definitions(tree)) - _loaded_names(tree)) == ["_unused"]
    tree = ast.parse('"""%.17g"""\nA = "%.17g"\ndef f():\n    """%.17g"""\n'
                     '    return f"{A},%.17g,%d"\n')
    assert _strings_holding(tree, "%.17g") == [2, 5]
