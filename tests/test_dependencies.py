"""The library's shape: it imports only the standard library, numpy and
click (scipy and the other test tools stay test dependencies), its package
root imports nothing, and each public name it defines has a caller outside
the tests."""

import ast
import dataclasses
import importlib
import pkgutil
import re
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


def test_package_root_binds_only_the_version():
    """Every public name has one home, its submodule; the package root
    imports nothing."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(tree))
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert len(body) == 1 and isinstance(body[0], ast.Assign)
    assert [ast.unparse(t) for t in body[0].targets] == ["__version__"]


# Public names that no command, script or benchmark reaches, kept on purpose.
KEEP = {
    # the paper's generators, the reference the closed-form cycle U is held to
    "build_qubit_hamiltonian": "steering.py",
    "build_qutrit_hamiltonian": "steering.py",
    # the averaged channel's spectrum, the base of the channel diagnostics
    "channel_spectrum": "protocol.py",
}
CALLERS = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "scripts").glob("*.py")) + sorted(
    (SRC.parents[1] / "benchmarks").glob("*.py")
)


def public_definitions():
    """(file, node) for each public module-level function and class of the
    library, click commands aside: ``@main.command`` registers those."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if any(ast.unparse(d).startswith("main.command") for d in node.decorator_list):
                continue
            yield path, node


def test_every_public_name_has_a_caller():
    """Each public function and class is named, as a whole word, on some line
    of the library, the scripts or the benchmark outside its own definition;
    what only tests call lives in the tests."""
    texts = {path: path.read_text().splitlines() for path in CALLERS}
    defined = set()
    unreached = set()
    for path, node in public_definitions():
        defined.add((node.name, path.name))
        word = re.compile(rf"\b{node.name}\b")
        own = range(node.lineno - 1 - len(node.decorator_list), node.end_lineno)
        if not any(
            word.search(line)
            for caller, lines in texts.items()
            for i, line in enumerate(lines)
            if not (caller == path and i in own)
        ):
            unreached.add((node.name, path.name))
    assert set(KEEP.items()) <= defined
    assert unreached <= set(KEEP.items())


def test_dataclasses_are_the_two_the_benchmark_pins():
    """Records are named tuples, whose classes take about a tenth of a
    frozen dataclass's time to create, and every command pays for creating
    them at import.  The two dataclasses left are pinned by the benchmark:
    ``benchmarks/tracing.py`` traces DensityState by wrapping its
    ``__post_init__``, and ``benchmarks/test_benchmark.py`` reads
    ``dataclasses.fields`` of a TrajectoryBatch."""
    import qsteer

    found = set()
    for info in pkgutil.iter_modules(qsteer.__path__):
        module = importlib.import_module(f"qsteer.{info.name}")
        found |= {name for name, cls in vars(module).items()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and dataclasses.is_dataclass(cls)}
    assert found == {"DensityState", "TrajectoryBatch"}
