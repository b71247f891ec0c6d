"""The engine's public names are ones the package itself uses or exports."""

import ast
from pathlib import Path

import solvlab

SRC = Path(solvlab.__file__).resolve().parent

# Methods a public method can share a name with; a use of one of them on a
# list, dict or set is not a use of the method.
BUILTIN_METHODS = {
    name
    for kind in (list, dict, set, str)
    for name in dir(kind)
    if not name.startswith("_")
}

CONTAINER_CALLS = {"list", "dict", "set", "sorted"}


def _module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _is_container(value):
    """A list, dict or set display, a comprehension, or a list, dict, set or
    sorted call."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in CONTAINER_CALLS
    )


def _container_method_uses(tree):
    """Attribute nodes that call a builtin-named method on a name the same
    function binds to a container."""
    out = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        containers = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_container(node.value):
                containers.update(t.id for t in targets if isinstance(t, ast.Name))
        out.update(
            id(node)
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and node.attr in BUILTIN_METHODS
            and isinstance(node.value, ast.Name)
            and node.value.id in containers
        )
    return out


def _unused_public_names(trees, exported_everywhere):
    """A public function or class must be named somewhere in the trees or be
    exported; a public method of a public class that is not exported must
    be named as an attribute somewhere in the trees, other than as a method
    of a list, dict or set."""
    named = set()
    attributes = set()
    for tree in trees.values():
        skip = _container_method_uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Attribute) and id(node) not in skip:
                attributes.add(node.attr)
    unused = []
    for module, tree in trees.items():
        exported = _module_all(tree) | exported_everywhere
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
    return unused


def test_no_public_api_that_only_tests_call():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = _unused_public_names(trees, set(solvlab.__all__))
    assert not unused, f"public names nothing in solvlab uses or exports: {unused}"


SYNTHETIC = '''
class Chain:
    def extend(self, t):
        pass

    def add(self, t):
        pass


def _build(field: Chain):
    out = []
    out.extend([1])
    seen = {t for t in out}
    seen.add(2)
    field.add(3)
    return out, seen
'''


def test_a_method_named_like_a_list_method_is_not_used_by_list_calls():
    # Chain.extend is only named by out.extend, a list method; Chain.add is
    # called on a Chain as well as on a set, like GF.add in families.py
    unused = _unused_public_names({"m": ast.parse(SYNTHETIC)}, set())
    assert unused == ["m.Chain.extend"]
