"""Dead-surface guards over the library's functions, classes and
methods, against the code in ``src/`` and ``fvbench/``.

Dead names: every public name, and every private module-level function
and private method (dunders aside), is named somewhere outside its own
definition. A name that only the tests use is surface no program runs;
delete it or give it a caller. An import, a listing in ``__all__`` and a
listing in ``fvbench``'s ``TAPE_OPS`` (which it wraps by name) count as
uses.

Unset parameters: every defaulted parameter of a public function or
method is set, by keyword or by position, by some call. A knob that no
program sets is a constant; make it one. Calls are matched by the name
they call, and a constructor call counts as a call of ``__init__``.

Unused imports: every name a library module binds by import is read in
that module, an annotation included, or listed in its ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "fractalvit"
CALLERS = (ROOT / "src", ROOT / "fvbench")
NAME_LISTS = ("__all__", "TAPE_OPS")


def public_definitions(tree):
    """Public top-level functions and classes, and the public methods of
    top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield item


def private_definitions(tree):
    """Private top-level functions, and the private methods of top-level
    classes; dunders are called by the language, not by name."""
    def private(node):
        return isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
            and not (node.name.startswith("__") and node.name.endswith("__"))

    for node in tree.body:
        if private(node):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if private(item))


def mentions(tree):
    """(name, line) for each identifier, attribute, imported name, and
    string listed in a NAME_LISTS assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in NAME_LISTS for t in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value, item.lineno


def unused_names(root_library, callers, definitions=public_definitions):
    uses: dict[str, list[tuple[Path, int]]] = {}
    for directory in callers:
        for path in sorted(directory.rglob("*.py")):
            for name, line in mentions(ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(root_library.glob("*.py")):
        for node in definitions(ast.parse(path.read_text())):
            outside = [
                (where, line) for where, line in uses.get(node.name, [])
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_names(LIBRARY, CALLERS) == []


def test_every_private_function_and_method_is_named_outside_its_definition():
    assert unused_names(LIBRARY, CALLERS, private_definitions) == []


def test_private_name_guard_skips_dunders_and_finds_dead_helpers(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used():\n"
        "    return 1\n"
        "def _dead():\n"
        "    return _dead()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.v = _used()\n"
        "    def _orphan(self):\n"
        "        return 0\n"
    )
    assert unused_names(tmp_path, [tmp_path], private_definitions) == [
        "mod.py:3 _dead", "mod.py:8 _orphan"]


# Defaulted parameters that no call sets but that stay, each with its reason.
UNSET_EXEMPT = {
    "main(argv)": "the console entry point reads sys.argv; tests pass argv",
    "masked_softmax(scale)": "a test-reference op; the attention tests pass the scale",
}


def defaulted_parameters(node, method):
    """(name, position) of each defaulted parameter of a function node; the
    position counts from the first argument a call passes, and is None for
    a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method else 0  # self
    for i in range(first, len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def public_callables(tree):
    """(called name, definition, is_method) of each public function and
    method; an ``__init__`` is called by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, item, True
                elif not item.name.startswith("_"):
                    yield item.name, item, True


def call_sites(tree):
    """(called name, positional count, keywords) of each call; a ``*args``
    counts as setting every position, and a ``**kwargs`` every keyword
    (keywords None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) \
            else func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        count = float("inf") if starred else len(node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, count, None if None in keywords else keywords


def unset_parameters(root_library, callers):
    calls: dict[str, list[tuple[float, set | None]]] = {}
    for directory in callers:
        for path in sorted(directory.rglob("*.py")):
            for name, count, keywords in call_sites(ast.parse(path.read_text())):
                calls.setdefault(name, []).append((count, keywords))
    unset = []
    for path in sorted(root_library.glob("*.py")):
        for called, node, method in public_callables(ast.parse(path.read_text())):
            for param, position in defaulted_parameters(node, method):
                if not any(
                    keywords is None or param in keywords
                    or (position is not None and count > position)
                    for count, keywords in calls.get(called, [])
                ):
                    unset.append((f"{path.name}:{node.lineno}", f"{node.name}({param})"))
    return unset


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = unset_parameters(LIBRARY, CALLERS)
    assert [f"{where} {name}" for where, name in unset if name not in UNSET_EXEMPT] == []
    # an exemption that no longer applies is deleted
    assert set(UNSET_EXEMPT) <= {name for _, name in unset}


# Names a library module imports without reading them, each with its reason.
IMPORT_EXEMPT = {
    "harness.forward": "fvbench's tracer test wraps and restores harness.forward",
}


def imported_names(tree):
    """Each name an import binds; ``__future__`` imports bind no name the
    module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def read_names(tree):
    """Every identifier the module loads, annotations included, and every
    string listed in its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant))
    return names


def unused_imports(root_library):
    unused = []
    for path in sorted(root_library.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = read_names(tree)
        unused += [f"{path.stem}.{name}" for name in imported_names(tree)
                   if name not in read]
    return unused


def test_every_imported_name_is_read_or_exported():
    unused = unused_imports(LIBRARY)
    assert [name for name in unused if name not in IMPORT_EXEMPT] == []
    # an exemption that no longer applies is deleted
    assert set(IMPORT_EXEMPT) <= set(unused)


def test_unused_import_guard_counts_annotations_and_all(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from typing import Callable\n"
        "from .errors import ConfigError\n"
        "__all__ = ['ConfigError']\n"
        "def f(x: Callable) -> None:\n"
        "    xml.dom\n"
    )
    assert unused_imports(tmp_path) == ["mod.os", "mod.osp"]
