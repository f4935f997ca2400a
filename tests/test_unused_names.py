"""Every module-level function and class of ``src/dualpart`` is used by name there,
every method and property of its classes is read as an attribute there, and
every defaulted parameter of its functions is passed by some call.

Code that only tests call belongs in ``tests/``. A name counts as used when it
appears in the package outside its own definition: as a name, an attribute or
an imported name, the package exports included. A class member counts as used
when the package reads it as an attribute (``x.name``) outside the member's own
body; dunders, which Python calls by protocol, and overrides of an attribute of
a base class, which the base calls, are exempt. Docstrings, comments and other
strings do not count.

A parameter whose default no call in the package, the tests or the scripts
overrides takes one value, so it is a constant. ``max_size``, the element
guard every public entry point takes, is exempt.

Every name a module imports is used in that module, except in ``__init__.py``,
whose imports are the package's exports.
"""

import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

import dualpart

SRC = Path(dualpart.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
CALLERS = (SRC, ROOT / "tests", ROOT / "scripts")


def names_in(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def unreferenced_definitions(src=SRC):
    """``module:line name`` of each module-level def or class used only inside itself."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in names_in(tree))
    return [f"{module}:{node.lineno} {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and used[node.name] == Counter(names_in(node))[node.name]]


def test_every_module_level_definition_is_used_in_the_package():
    assert unreferenced_definitions() == []


def test_a_definition_used_only_by_itself_or_in_a_docstring_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Mentions lonely and ``Alone``."""\n'
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "class Alone:\n    pass\n\n"
        "def used():\n    return 1\n\n"
        "def exported():\n    return 2\n")
    (tmp_path / "b.py").write_text("from .a import exported\n\nX = used()\n")
    assert unreferenced_definitions(tmp_path) == ["a.py:2 lonely", "a.py:5 Alone"]


def attributes(node):
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unread_members(src=SRC):
    """``module:line Class.member`` of each method or property of a module-level class
    that the package reads as an attribute only inside the member itself.

    The package is imported as ``src.name`` to see each class's bases.
    """
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = sum(map(attributes, trees.values()), Counter())
    found = []
    for path, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            module = importlib.import_module(f"{src.name}.{path.stem}")
            bases = getattr(module, cls.name).__mro__[1:]
            found += [f"{path.name}:{fn.lineno} {cls.name}.{fn.name}" for fn in cls.body
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (fn.name.startswith("__") and fn.name.endswith("__"))
                      and not any(hasattr(base, fn.name) for base in bases)
                      and read[fn.name] == attributes(fn)[fn.name]]
    return found


def test_every_class_member_is_read_in_the_package():
    assert unread_members() == []


def test_a_member_read_only_by_itself_or_in_a_docstring_is_found(tmp_path, monkeypatch):
    src = tmp_path / "unread_members_case"
    src.mkdir()
    (src / "__init__.py").write_text("")
    (src / "a.py").write_text(
        '"""Mentions ``K.alone`` and ``K().lonely()``."""\n'
        "class K(dict):\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def copy(self):\n        return K()\n\n"
        "    def lonely(self, n):\n        return self.lonely(n - 1) if n else 0\n\n"
        "    @property\n    def alone(self):\n        return 1\n\n"
        "    def used(self):\n        return 2\n")
    (src / "b.py").write_text("from .a import K\n\nX = K().used()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unread_members(src) == ["a.py:9 K.lonely", "a.py:13 K.alone"]


def defaulted_parameters(fn, method):
    """(position, name) of each parameter with a default; keyword-only ones have no position.

    A method's positions count from the argument after ``self`` or ``cls``, as a call
    through an instance or the class passes them.
    """
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    shift = 1 if method else 0
    return ([(i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def passed_arguments(trees):
    """Called name -> the positions and keywords its calls pass; ``*`` or ``**`` pass all."""
    passed = defaultdict(set)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords = {k.arg for k in call.keywords}
            passed[name] |= keywords | set(range(len(call.args)))
            if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
                passed[name].add("*")
    return passed


def defaults_never_passed(src=SRC, callers=CALLERS):
    """``module:line function(parameter)`` of each defaulted parameter no call passes."""
    passed = passed_arguments(ast.parse(path.read_text())
                              for folder in callers for path in sorted(folder.rglob("*.py")))
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = passed.get(fn.name, set())
                found += [f"{path.name}:{fn.lineno} {fn.name}({name})"
                          for position, name in defaulted_parameters(fn, id(fn) in methods)
                          if name != "max_size" and "*" not in calls
                          and position not in calls and name not in calls]
    return found


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert defaults_never_passed() == []


def test_a_parameter_no_call_passes_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, *, c=2, max_size=9):\n    return a\n\n"
        "def outer():\n    def inner(flag=True):\n        return flag\n    return inner()\n\n"
        "class K:\n    def m(self, k=0):\n        return k\n\n"
        "def h(x=1, y=2):\n    return x\n")
    (tmp_path / "b.py").write_text(
        '"""Mentions f(c=3) and inner(flag=False)."""\n'
        "from .a import K, f, h\n\nf(0, 5)\nK().m(1)\nh(**{})\n")
    assert defaults_never_passed(tmp_path, [tmp_path]) == ["a.py:1 f(c)", "a.py:5 inner(flag)"]


def unused_imports(src=SRC):
    """``module:line name`` of each name a module other than ``__init__.py`` imports
    and never reads; ``from __future__`` imports are not names."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (name := (alias.asname or alias.name).split(".")[0]) not in read]
    return found


def test_every_imported_name_is_used_in_its_module():
    assert unused_imports() == []


def test_an_import_its_module_never_reads_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        '"""Mentions Mapping."""\n'
        "from __future__ import annotations\n"
        "import os, os.path, sys\n"
        "from typing import Iterable, Mapping\n"
        "from .b import helper as renamed, helper\n\n"
        "def exported(xs: Iterable) -> None:\n    return renamed(sys.argv, xs)\n")
    assert unused_imports(tmp_path) == ["a.py:3 os", "a.py:3 os", "a.py:4 Mapping",
                                        "a.py:5 helper"]
