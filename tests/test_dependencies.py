"""The library imports only the standard library, numpy and click; scipy and
the other test tools stay test dependencies."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qsteer"
ALLOWED = {"numpy", "click", "qsteer"}


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("qsteer" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_stdlib_numpy_click_only(path):
    foreign = imported_roots(path) - ALLOWED - set(sys.stdlib_module_names)
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
