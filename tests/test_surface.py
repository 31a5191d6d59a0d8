"""The package defines no public function or class that nothing uses.

A public top-level function or class of ``src/rbls`` must be referenced
somewhere in the package outside its own definition, be exported through
``rbls.__all__``, or be the console entry point ``cli.main``.
"""

import ast
from pathlib import Path

import rbls

SRC = Path(rbls.__file__).parent


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_public_definition_is_used_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    references = [
        (_referenced_name(node), node) for tree in trees.values() for node in ast.walk(tree)
    ]
    unused = []
    for module, tree in sorted(trees.items()):
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name.startswith("_") or name in rbls.__all__ or (module, name) == ("cli", "main"):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in inside for ref, node in references):
                unused.append(f"{module}.{name}")
    assert unused == []
