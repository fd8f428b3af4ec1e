"""Dead-name guard: every public function, class and method of the library
is named somewhere in ``src/`` or ``fvbench/`` outside its own definition.

A name that only the tests use is surface no program runs; delete it or
give it a caller. An import, a listing in ``__all__`` and a listing in
``fvbench``'s ``TAPE_OPS`` (which it wraps by name) count as uses.
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


def unused_public_names(root_library, callers):
    uses: dict[str, list[tuple[Path, int]]] = {}
    for directory in callers:
        for path in sorted(directory.rglob("*.py")):
            for name, line in mentions(ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(root_library.glob("*.py")):
        for node in public_definitions(ast.parse(path.read_text())):
            outside = [
                (where, line) for where, line in uses.get(node.name, [])
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names(LIBRARY, CALLERS) == []
