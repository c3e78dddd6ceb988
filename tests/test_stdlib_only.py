"""The runtime is pure standard library: mpmath, scipy and hypothesis stay test-only.
Each module, test and script also reads every name it imports, apart from a few bindings of the
package kept for other readers."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hhaudit"
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


def unused_imports(path: pathlib.Path) -> set[str]:
    """Names that ``path`` binds by an import (``__future__`` aside) but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


# imported for other modules to read: hhbench's self-tests read the sample_convexity bindings
# of hh_bounds and quadrature
UNREAD_IMPORTS = {PACKAGE / "hh_bounds.py": {"sample_convexity"}, PACKAGE / "quadrature.py": {"sample_convexity"}}


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "oracle.py", "special_fns.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert absolute_imports(path) - sys.stdlib_module_names == set()


def test_a_third_party_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nfrom mpmath import mp\nfrom . import core\n")
    assert absolute_imports(probe) == {"math", "mpmath"}


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"] + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else str(p.relative_to(ROOT)),
)
def test_reads_every_name_it_imports(path):
    assert unused_imports(path) == UNREAD_IMPORTS.get(path, set())


def test_an_unused_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nimport math as m\n"
                     "from dataclasses import dataclass, field\n\nx: field = m.pi\n")
    assert unused_imports(probe) == {"os", "dataclass"}
