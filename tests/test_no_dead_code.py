"""Dead-code guard: every public top-level function and class of the
package, and every public method of those classes, is used somewhere in
``src/`` or ``tests/`` (as a name, an attribute or an import alias).  A
function passed to a registering decorator defined in its own module, such
as ``@check(...)`` in ``verify``, counts as used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conelab"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """(qualified name, bare name) of each public definition in the package."""
    for path, tree in _trees(PACKAGE):
        local = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in local
                for d in node.decorator_list
            ):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _used_names():
    used = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_public_name_is_used():
    used = _used_names()
    unused = sorted(qual for qual, name in _public_definitions() if name not in used)
    assert not unused, "never used in src/ or tests/: " + ", ".join(unused)
