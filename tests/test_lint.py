"""Dead-code lint: what a module imports it uses, and every private name is used somewhere.

Each module of ``src/noncolliding`` but ``__init__.py`` is parsed with
``ast``.  A name bound by an import must be read in that module, and a
private module-level name (``_x``) must be read, imported or reached as an
attribute somewhere in ``src/noncolliding`` besides its definition.  Every
key of ``DEFAULTS`` must be read as ``DEFAULTS["key"]`` somewhere in it,
every exception class of ``exceptions.py`` must be raised somewhere in it,
and every contour kind that ``make_contour`` compares ``kind`` with must be
passed to it as a literal somewhere in it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "noncolliding"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _read_names(tree):
    """Every name the tree reads: loaded names, attributes and the names it imports from."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = TREES[path]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [name for name in imported if name not in loaded] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_used(path):
    defined = []
    for node in TREES[path].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    assert [name for name in private if name not in read] == []


def test_every_default_is_read():
    declared = next(node.value for node in TREES[SRC / "defaults.py"].body
                    if isinstance(node, ast.Assign) and node.targets[0].id == "DEFAULTS")
    keys = [key.value for key in declared.keys]
    read = {node.slice.value for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "DEFAULTS" and isinstance(node.slice, ast.Constant)}
    assert [key for key in keys if key not in read] == []


def test_every_exception_is_raised():
    defined = [node.name for node in TREES[SRC / "exceptions.py"].body
               if isinstance(node, ast.ClassDef)]
    raised = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert [name for name in defined if name not in raised] == []


def test_every_contour_kind_is_drawn():
    make = next(node for node in TREES[SRC / "contours.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "make_contour")
    kinds = {c.value for node in ast.walk(make) if isinstance(node, ast.Compare)
             and isinstance(node.left, ast.Name) and node.left.id == "kind"
             for c in node.comparators if isinstance(c, ast.Constant)}
    drawn = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "make_contour"):
                drawn.add(node.args[0].value)
    assert kinds and [kind for kind in sorted(kinds) if kind not in drawn] == []
