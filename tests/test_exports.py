"""Every exported name is read by the library, the benchmark or the
acceptance criteria, so neither ``kolmotk.__all__`` nor the ``__all__`` of
any ``kolmotk`` module holds anything that only its own unit tests call."""

import ast
import importlib
from pathlib import Path

import kolmotk

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "kolmotk").glob("*.py") if p.name != "__init__.py")
# independent references that the unit tests check the library against
ORACLES = {"gramian_quadrature", "third_difference"}


def _names_read(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_read_outside_its_unit_tests():
    files = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_names_read, files))
    modules = [kolmotk] + [importlib.import_module(f"kolmotk.{p.stem}") for p in MODULES]
    unread = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
              if name not in read | ORACLES]
    assert unread == []
