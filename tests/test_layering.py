"""Import layering: the ground truth must not depend on the routes it checks.

Each module may import only the package modules listed for it.  The walk
covers the whole syntax tree, so imports deferred inside functions count too.
Importing the CLI must also leave out the standard-library machinery that
only some runs use, so that every short run starts without paying for it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: Loaded on first use only: statistics by bench, argparse by build_parser,
#: json by JSON output, fractions (and decimal, which it imports) by the mean
#: trace powers; concurrent.futures.process, multiprocessing, dataclasses and
#: inspect by nothing in the package, pooled enumeration included.
DEFERRED = (
    "concurrent.futures.process", "multiprocessing", "dataclasses", "inspect", "statistics",
    "argparse", "json", "fractions", "decimal",
)
#: The directory that holds the package, for fresh interpreters started with -S.
SRC = str(Path(hypermaps.__file__).parent.parent)


def deferred_modules_loaded_by(statement):
    """The DEFERRED modules loaded after running statement in a fresh interpreter."""
    # -S skips site, whose .pth files may import any of these on their own
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); {statement}; "
        f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_leaves_out_deferred_modules():
    assert deferred_modules_loaded_by("import hypermaps.cli") == []


def test_a_pooled_enumeration_loads_no_multiprocessing():
    # 8! permutations with two workers: the call forks its workers itself
    assert deferred_modules_loaded_by("from hypermaps.enumeration import one_face_poly; one_face_poly(8, workers=2)") == []


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["avg-trace", "--m", "2", "--n", "2", "--r", "2"], "4/5\n"),
        (
            ["poly", "--r", "3", "--format", "json"],
            '{"r": 3, "terms": [{"e": 3, "v": 1, "c": "1"}, {"e": 2, "v": 2, "c": "3"}, '
            '{"e": 1, "v": 3, "c": "1"}, {"e": 1, "v": 1, "c": "1"}]}\n',
        ),
    ],
    ids=["fractions", "json"],
)
def test_deferred_modules_load_on_first_use(argv, expected):
    # pytest has already loaded these modules, so only a fresh interpreter runs the first-use import
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "hypermaps", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
