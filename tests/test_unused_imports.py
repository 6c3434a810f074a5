"""Every name a module under ``src/`` imports is used there.

No linter ships with the project, so this stdlib-``ast`` scan is the
gate.  A name counts as used when the module loads it (``Name`` or the
base of an ``Attribute``), names it in a string annotation, lists it in
``__all__``, or lists it in a lazy export table
(:func:`repro._lazy.lazy_exports`).  ``from __future__`` imports are
directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Bound name -> line of every import in the module."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg, args.kwarg
            ]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _strings(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            for arg in node.args[2:]:
                used.update(_strings(arg))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                used.update(_strings(node.value))
    for annotation in _annotations(tree):
        for text in _strings(annotation):
            try:
                parsed = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used.update(
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
            )
    return used


def unused_imports(path: Path) -> Iterator[Tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used(tree)
    for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1]):
        if name not in used:
            yield line, name


def test_every_module_uses_its_imports():
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path)
    ]
    assert MODULES and not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_sees_the_cases_it_exempts():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as _json\n"
        "from typing import Dict, List, Optional\n"
        "from .sub import exported, lazy_name, unused_name\n"
        "from ._lazy import lazy_exports\n"
        "__all__ = ['exported']\n"
        "__getattr__ = lazy_exports(__name__, globals(), "
        "{'m': ('lazy_name',)})\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return os.path.join(x)\n"
    )
    used = _used(tree)
    unused = {n for n in _imported(tree) if n not in used}
    assert unused == {"_json", "List", "unused_name"}
