"""Every exported name is read by the library, the benchmark or the
acceptance criteria, so neither ``kolmotk.__all__`` nor the ``__all__`` of
any ``kolmotk`` module holds anything that only its own unit tests call,
and every defaulted parameter of an exported function is set by one of
them."""

import ast
import importlib
import inspect
from pathlib import Path

import kolmotk

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "kolmotk").glob("*.py") if p.name != "__init__.py")
MODULE_OBJECTS = [kolmotk] + [importlib.import_module(f"kolmotk.{p.stem}") for p in MODULES]
# the files whose reads and calls count: the library, the benchmark, the acceptance criteria
FILES = (MODULES + sorted((ROOT / "perfbench").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])
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
    read = set().union(*map(_names_read, FILES))
    unread = [f"{m.__name__}.{name}" for m in MODULE_OBJECTS for name in getattr(m, "__all__", ())
              if name not in read | ORACLES]
    assert unread == []


def _bare(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(path):
    """(callee, positional args, keyword names) of every call in ``path``, the
    keyword None standing for ``**``.  A function handed on as an argument,
    as in ``timed(out, label, fn, *args, **kw)``, is called with the
    arguments after it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            keywords = {kw.arg for kw in node.keywords}
            yield _bare(node.func), node.args, keywords
            for i, arg in enumerate(node.args):
                if _bare(arg):
                    yield _bare(arg), node.args[i + 1:], keywords


def _sets(args, keywords, i, name):
    """Whether a call with these arguments sets parameter ``name`` at
    position i; a ``*`` argument may reach any position."""
    return (i < len(args) or any(isinstance(a, ast.Starred) for a in args)
            or name in keywords or None in keywords)


def test_every_default_is_set_outside_its_unit_tests():
    """A defaulted parameter of an exported function, classmethod or
    staticmethod must be set by a call in the library, the benchmark or the
    acceptance criteria.  Callees are matched by bare name, so a call of
    another function of the same name also counts: the check errs toward
    passing."""
    calls = {}
    for path in FILES:
        for callee, args, keywords in _calls(path):
            calls.setdefault(callee, []).append((args, keywords))
    functions = {}
    for m in MODULE_OBJECTS:
        for name in getattr(m, "__all__", ()):
            obj = getattr(m, name)
            if inspect.isfunction(obj):
                functions[obj] = name
            elif inspect.isclass(obj):
                functions.update((getattr(obj, a), a) for a, v in vars(obj).items()
                                 if isinstance(v, (classmethod, staticmethod)))
    unset = [f"{fn.__qualname__}({p.name})" for fn, name in functions.items()
             for i, p in enumerate(inspect.signature(fn).parameters.values())
             if p.default is not p.empty
             and not any(_sets(args, kws, i, p.name) for args, kws in calls.get(name, ()))]
    assert unset == []
