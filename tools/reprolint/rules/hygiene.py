"""Hygiene rule pack.

An import nothing reads is dead weight that survives refactors: it
keeps a module coupled to one it no longer uses, and tells the next
reader a dependency exists that does not.  Re-exports must say so.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..engine import Finding, LintModule, Rule
from ._util import dotted_name

# -- unused-import ---------------------------------------------------------


def _is_type_checking(test: ast.expr) -> bool:
    return dotted_name(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _module_imports(
    body: list[ast.stmt],
) -> Iterator[tuple[ast.stmt, str]]:
    """``(import statement, bound name)`` for every module-level import,
    looking into ``if``/``try`` blocks but not ``if TYPE_CHECKING:``."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname != alias.name:  # ``import X as X`` re-exports
                    yield stmt, alias.asname or alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*" and alias.asname != alias.name:
                    yield stmt, alias.asname or alias.name
        elif isinstance(stmt, ast.If):
            if not _is_type_checking(stmt.test):
                yield from _module_imports(stmt.body)
                yield from _module_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _module_imports(block)
            for handler in stmt.handlers:
                yield from _module_imports(handler.body)


def _string_annotation_names(node: ast.expr | None) -> Iterator[str]:
    """Names read by quoted annotations (``x: "Foo"``) inside *node*."""
    if node is None:
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def _names_read(tree: ast.Module) -> set[str]:
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None:
                    read.update(_string_annotation_names(arg.annotation))
            read.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            read.update(_string_annotation_names(node.annotation))
    return read


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if not any(dotted_name(t) == "__all__" for t in targets):
                continue
            if isinstance(stmt.value, (ast.List, ast.Tuple)):
                names.update(
                    elt.value
                    for elt in stmt.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    return names


class UnusedImportRule(Rule):
    id = "unused-import"
    pack = "hygiene"
    description = (
        "a module-level import nothing in the module reads; delete it, or "
        "mark a re-export with `import X as X` or an `__all__` entry"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        if Path(module.relpath).name == "__init__.py":
            return  # a package's __init__ exists to re-export
        used = _names_read(module.tree) | _exported(module.tree)
        for stmt, name in _module_imports(module.tree.body):
            if name not in used:
                yield self.make(
                    module,
                    stmt,
                    f"{name!r} is imported but never read in this module",
                )


HYGIENE_RULES: list[Rule] = [UnusedImportRule()]
