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


def parse_3_10(source: str, filename: str = "<snippet>") -> None:
    """Parse ``source`` under the grammar of Python 3.10, or raise ``SyntaxError``.

    ``feature_version`` is best-effort: on 3.11 it accepts PEP 646's stars,
    so the tree is searched for the two places 3.10 refuses one: the
    annotation of ``*args``, and an unparenthesized subscript tuple.
    """
    tree = ast.parse(source, filename=filename, feature_version=(3, 10))
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments) and node.vararg is not None \
                and isinstance(node.vararg.annotation, ast.Starred):
            raise SyntaxError(f"{filename}:{node.vararg.lineno}: starred *args annotation")
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) \
                and any(isinstance(item, ast.Starred) for item in node.slice.elts):
            # ``a[(*b,)]`` is a 3.10 tuple; a ")" follows its last item
            index = ast.get_source_segment(source, node.slice)
            last = ast.get_source_segment(source, node.slice.elts[-1])
            if ")" not in index[index.rindex(last) + len(last):]:
                raise SyntaxError(f"{filename}:{node.lineno}: starred subscript")


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_python_3_10_grammar(path):
    """Every source and test file parses under the grammar of Python 3.10,
    the oldest version ``requires-python`` admits.  This checks grammar
    only: a library function or argument new in a later version passes."""
    parse_3_10(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("source", [
    "def f(*a: *Ts): ...",
    "x = a[*b]",
    "x: tuple[*Ts]",
    "x = a[b, *c,]",
    "try:\n    pass\nexcept* ValueError:\n    pass",
])
def test_python_3_10_grammar_refuses(source):
    """Forms that Python 3.11 added, and 3.10 refuses."""
    with pytest.raises(SyntaxError):
        parse_3_10(source)


@pytest.mark.parametrize("source", [
    "def f(*a: tuple[int, ...]): ...",
    "x = a[(*b,)]",
    "x = a[(*b, c)]",
    "x = a[b, f(*c)]",
    "x = [*a, *b]",
])
def test_python_3_10_grammar_accepts(source):
    parse_3_10(source)
