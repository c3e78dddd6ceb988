"""The runtime is pure standard library: mpmath, scipy and hypothesis stay test-only."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hhaudit"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path: pathlib.Path) -> set[str]:
    """Top-level names of every absolute import in ``path`` (relative ones are the package's own)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "oracle.py", "special_fns.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert absolute_imports(path) - sys.stdlib_module_names == set()


def test_a_third_party_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nfrom mpmath import mp\nfrom . import core\n")
    assert absolute_imports(probe) == {"math", "mpmath"}
