"""Every module-level function and class of ``src/dualpart`` is used by name there.

Code that only tests call belongs in ``tests/``. A name counts as used when it
appears in the package outside its own definition: as a name, an attribute or
an imported name, the package exports included. Docstrings, comments and other
strings do not count.
"""

import ast
from collections import Counter
from pathlib import Path

import dualpart

SRC = Path(dualpart.__file__).parent


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
