"""The engine's public names are ones the package itself uses or exports."""

import ast
from pathlib import Path

import solvlab

SRC = Path(solvlab.__file__).resolve().parent


def _module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_public_api_that_only_tests_call():
    """A public function or class must be named somewhere in solvlab or be
    exported; a public method of a public class that is not exported must
    be named as an attribute somewhere in solvlab."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = []
    for module, tree in trees.items():
        exported = _module_all(tree) | set(solvlab.__all__)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if name not in named:
                unused.append(f"{module}.{name}")
            if isinstance(node, ast.ClassDef):
                unused.extend(
                    f"{module}.{name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and method.name not in attributes
                )
    assert not unused, f"public names nothing in solvlab uses or exports: {unused}"
