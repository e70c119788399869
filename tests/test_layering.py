"""Import layering: the ground truth must not depend on the routes it checks.

Each module may import only the package modules listed for it.  The walk
covers the whole syntax tree, so imports deferred inside functions count too.
"""

import ast
from pathlib import Path

import hypermaps

ALLOWED = {
    "polynomial": set(),
    "closed_form": {"polynomial"},
    "recursion": {"polynomial", "closed_form"},
    "enumeration": {"polynomial"},
    "two_face": {"polynomial", "closed_form", "enumeration"},
}


def package_imports(source: str):
    """Names of the hypermaps modules that the given source imports, anywhere."""
    targets = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:  # absolute: only imports of this package count
                if name.split(".")[0] != "hypermaps":
                    continue
                name = name[len("hypermaps."):]
            if name:  # from .x import y
                targets.append(name)
            else:  # from . import x, y
                targets.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            targets.extend(
                alias.name[len("hypermaps."):]
                for alias in node.names
                if alias.name.startswith("hypermaps.")
            )
    return {target.split(".")[0] for target in targets}


def test_modules_import_only_lower_layers():
    for module, allowed in ALLOWED.items():
        source = Path(hypermaps.__file__).with_name(f"{module}.py").read_text()
        assert package_imports(source) <= allowed, module


def test_layering_walk_sees_nested_and_absolute_imports():
    source = (
        "import math\n"
        "from .polynomial import BivarPoly\n"
        "import hypermaps.recursion\n"
        "def f():\n"
        "    from . import two_face\n"
        "    from hypermaps.closed_form import one_face_poly\n"
    )
    assert package_imports(source) == {"polynomial", "recursion", "two_face", "closed_form"}
