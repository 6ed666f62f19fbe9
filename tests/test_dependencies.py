"""The package imports nothing at run time but the standard library and numpy.

Other packages (scipy among them) may be installed where the tests run, so
an import of one would pass every other test and fail only on a clean
install of the declared dependencies.  Every file must also parse under the
oldest Python that the package declares.
"""

import ast
import sys
from pathlib import Path

import pytest

import accessopt

SOURCES = sorted(Path(accessopt.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def imported_modules(path):
    """The top-level names of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_numpy(path):
    outside = {name for name in imported_modules(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"cli.py", "optimizer.py", "routing.py"}


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_python_3_10_grammar(path):
    """Every source and test file parses under the grammar of Python 3.10,
    the oldest version ``requires-python`` admits.  This checks grammar
    only: a library function or argument new in a later version passes."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
