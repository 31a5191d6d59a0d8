"""The package defines nothing that nothing uses.

A public top-level function or class of ``src/rbls`` must be referenced
somewhere in the package outside its own definition, be exported through
``rbls.__all__``, or be the console entry point ``cli.main``.  A private
top-level function, class or module constant (a name with one leading
underscore) must be referenced in the package outside its own definition.
References from tests do not count: only the package's files are read.
"""

import ast
from collections import defaultdict
from pathlib import Path

import rbls

SRC = Path(rbls.__file__).parent


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions(tree):
    """(name, statement) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _unused(checked):
    """module.name of each definition that ``checked(module, name, statement)``
    selects and that nothing in the package references outside it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    references = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            references[_referenced_name(node)].append(id(node))
    unused = []
    for module, tree in sorted(trees.items()):
        for name, definition in _definitions(tree):
            if not checked(module, name, definition):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if all(ref in inside for ref in references[name]):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_definition_is_used_or_exported():
    def public(module, name, definition):
        return (
            isinstance(definition, (ast.FunctionDef, ast.ClassDef))
            and not name.startswith("_")
            and name not in rbls.__all__
            and (module, name) != ("cli", "main")
        )

    assert _unused(public) == []


def test_every_private_definition_is_used():
    def private(module, name, definition):
        return name.startswith("_") and not name.startswith("__")

    assert _unused(private) == []
