"""Every module under ``src/repro`` has a user.

Walks ``import`` and ``from ... import`` statements (at any depth, so
the command line's lazy imports count) from the user roots: the command
line (``repro.cli``), the benchmark (``perfbench/*.py``), the tools and
the examples.  A module only tests import has no user; it goes with its
tests rather than onto an exception list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module_file(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imported_names(path):
    """Dotted names an import statement in ``path`` may load: each
    ``import a.b``, and each ``from a import b`` as ``a`` and ``a.b``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _reached(paths, seen):
    """``seen`` plus every module under ``src`` that ``paths`` load."""
    todo = list(paths)
    while todo:
        for name in _imported_names(todo.pop()):
            parts = name.split(".")
            for k in range(1, len(parts) + 1):  # parents load first
                module = ".".join(parts[:k])
                path = _module_file(module)
                if path is not None and module not in seen:
                    seen.add(module)
                    todo.append(path)
    return seen


def test_every_module_is_reached_from_a_user_path():
    cli = ["repro", "repro.cli"]  # what ``python -m repro.cli`` loads
    roots = [_module_file(m) for m in cli] + [
        p for d in ("perfbench", "tools", "examples") for p in (ROOT / d).glob("*.py")
    ]
    reached = _reached(roots, set(cli))
    modules = {
        ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for p in (SRC / "repro").rglob("*.py")
    }
    unreached = sorted(modules - reached)
    assert not unreached, f"only tests import: {', '.join(unreached)}"
