"""Every module-level import is used.

A stdlib-only AST scan of ``src/repro`` and ``tests``: an imported name
counts as used when its module names it anywhere (code, annotations,
string annotations), lists it in ``__all__``, or another scanned module
imports it from there (a re-export).  ``from __future__`` imports are
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
TREES = (ROOT / "src", ROOT)
PACKAGES = (ROOT / "src" / "repro", ROOT / "tests")


def _module_name(path: Path) -> str:
    base = TREES[0] if TREES[0] in path.parents else TREES[1]
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _top_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements of the module body, also under a top-level
    ``if`` or ``try``."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body


def _bindings(node: ast.stmt) -> Iterator[Tuple[str, str]]:
    """``(bound name, "module:name" origin)`` pairs of one import."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield (alias.asname or alias.name.split(".")[0]), alias.name
    elif node.module != "__future__":
        for alias in node.names:
            yield (alias.asname or alias.name), f"{node.module}:{alias.name}"


def _names_used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # Quoted annotations ("BaseRouter", "Optional[Flit]") name types too.
    for annotation in annotations:
        if annotation is None:
            continue
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed)
                         if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports() -> List[str]:
    modules: Dict[str, Tuple[Path, ast.Module]] = {}
    for package in PACKAGES:
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            modules[_module_name(path)] = (path, tree)
    reexported: Set[str] = set()
    for _, tree in modules.values():
        for node in _top_level_imports(tree):
            for _, origin in _bindings(node):
                reexported.add(origin)
    problems = []
    for name, (path, tree) in modules.items():
        used = _names_used(tree) | _exported(tree)
        for node in _top_level_imports(tree):
            for bound, _ in _bindings(node):
                if bound in used or f"{name}:{bound}" in reexported:
                    continue
                problems.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    return problems


def test_no_unused_module_level_imports():
    assert unused_imports() == []


if __name__ == "__main__":  # pragma: no cover - manual listing
    print("\n".join(unused_imports()))
