"""The package root exports every name that the bench, the scripts and the
README example read from it, and nothing that is not an object; every name
the bench reads from a submodule exists, and so does the operator key its
tracer reads; the bottom layer, exactalg, imports
nothing from the package; every public function of the package has a reader
outside the tests; no module reads the environment; and every library
refusal of a value is a ValueError, which the CLI never names."""

import ast
import importlib
import pkgutil
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import hermiteforge

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {m.name for m in pkgutil.iter_modules(hermiteforge.__path__)}


def _bench_names() -> set[str]:
    """Every hf.<name> in perfbench/, where hf is the imported package."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names.update(re.findall(r"\bhf\.(\w+)", path.read_text()))
    return names


def _imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for each `from hermiteforge[.x] import name`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hermiteforge"):
            out.extend((node.module, a.name) for a in node.names)
    return out


def _readme_python() -> str:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README has no python example"
    return "\n".join(blocks)


def _script_imports() -> list[tuple[str, str]]:
    out = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        out.extend(_imports(path.read_text()))
    return out


def test_all_is_explicit_and_resolves():
    names = hermiteforge.__all__
    assert type(names) is list and len(names) == len(set(names))
    for name in names:
        obj = getattr(hermiteforge, name)
        assert not isinstance(obj, types.ModuleType), name


def test_bench_reads_only_exported_names():
    names = _bench_names()
    assert {"LaurentPoly", "synthesize", "cli"} <= names
    for name in sorted(names):
        if name in SUBMODULES:
            # A submodule (hf.cli, hf.factor) is an attribute once imported.
            importlib.import_module(f"hermiteforge.{name}")
            continue
        assert name in hermiteforge.__all__, name
        getattr(hermiteforge, name)


def test_bench_submodule_reads_resolve():
    # perfbench/test_perfbench.py is outside the tier-1 suite, so a renamed
    # name in a submodule would break it unnoticed.
    reads = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reads.update(re.findall(r"\bhf\.(\w+)\.(\w+)", path.read_text()))
    reads = {(module, name) for module, name in reads if module in SUBMODULES}
    assert {("factor", "eigen_check"), ("cli", "run"), ("cli", "json")} <= reads
    for module, name in sorted(reads):
        assert hasattr(importlib.import_module(f"hermiteforge.{module}"), name), name


def test_bench_operator_key_resolves():
    # perfbench/tracer.py keys each operator on (op.w, op.complete), and only
    # a traced run reads that key, outside the tier-1 suite.
    assert "(op.w, op.complete)" in (ROOT / "perfbench" / "tracer.py").read_text()
    fresh = hermiteforge.TaylorOperator(((1,), (Fraction(1, 2), 1)))
    for op in (fresh, hermiteforge.classical_operator(2)):
        assert op.complete is True
        assert {(op.w, op.complete)} == {(op.w, True)}


@pytest.mark.parametrize("where", ["scripts", "README"])
def test_examples_import_only_exported_names(where):
    pairs = _script_imports() if where == "scripts" else _imports(_readme_python())
    assert pairs
    for module, name in pairs:
        if module == "hermiteforge":
            assert name in hermiteforge.__all__, name
        getattr(importlib.import_module(module), name)


def test_exactalg_imports_nothing_from_the_package():
    # The bottom layer: not even a TYPE_CHECKING block reaches up.
    tree = ast.parse((ROOT / "src" / "hermiteforge" / "exactalg.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("hermiteforge"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("hermiteforge") for a in node.names)


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, including names inside quoted
    annotations such as -> "Chain"."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for ann in filter(None, annotations):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= _read_names(ast.parse(n.value, mode="eval"))
    return names


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - _read_names(tree))


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted((ROOT / "src" / "hermiteforge").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    unused = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert not unused
    assert _unused_imports("from x import a, b\nfrom y import c as d\nb(d)") == ["a"]


def _unread_defs(defining: dict[str, str], readers: list[str]) -> list[str]:
    """module.name for each public module-level def in the defining sources
    that no reader source names (as a name, an attribute or an import)."""
    read = set().union(*map(_named, readers))
    return sorted(
        f"{module}.{node.name}"
        for module, source in defining.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
    )


def test_every_public_function_has_a_reader():
    # A reader is the library itself (not the package root, which only
    # re-exports), a script, the bench or the README example; a function
    # that only the tests call lives in tests/reference_kernels.py.
    package = {
        path.stem: path.read_text()
        for path in sorted((ROOT / "src" / "hermiteforge").glob("*.py"))
        if path.name != "__init__.py"
    }
    readers = [*package.values(), _readme_python()]
    for folder in ("scripts", "perfbench"):
        readers += [path.read_text() for path in sorted((ROOT / folder).glob("*.py"))]
    assert not _unread_defs(package, readers)
    probe = {"m": "def used(): pass\ndef unused(): pass\ndef _private(): pass"}
    assert _unread_defs(probe, ["m.used()"]) == ["m.unused"]


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_reads(source: str) -> list[str]:
    """Each os.<name> and `from os import <name>` of the process environment."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in _ENVIRONMENT
        ):
            out.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out.extend(f"os.{a.name}" for a in node.names if a.name in _ENVIRONMENT)
    return sorted(out)


def test_no_module_reads_the_environment():
    # Every setting is a command-line flag, so the output depends on argv
    # and input files alone.
    reads = {
        path.name: found
        for path in sorted((ROOT / "src" / "hermiteforge").glob("*.py"))
        if (found := _environment_reads(path.read_text()))
    }
    assert not reads
    probe = "import os\nfrom os import getenv, sep\nos.environ.get('X')\nos.path.exists('y')"
    assert _environment_reads(probe) == ["os.environ", "os.getenv"]


# The library exceptions that refuse a caller's value.
_REFUSALS = (
    "NotInVd",
    "InvalidOperator",
    "NotAChain",
    "BadOrder",
    "BadSeed",
    "WindowTooSmall",
    "DeltaMissesWindow",
)


@pytest.mark.parametrize("name", _REFUSALS)
def test_each_refusal_is_a_value_error(name):
    # So the CLI's one ValueError clause turns each into exit 2.
    assert issubclass(getattr(hermiteforge, name), ValueError)


def _named(source: str) -> set[str]:
    """Every name, attribute and imported name in a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name for a in node.names)
    return out


def test_cli_names_no_library_refusal():
    # A refusal reaches run's single exit-2 clause as a ValueError; a
    # per-command wrapper or a longer except tuple would name it.
    named = _named((ROOT / "src" / "hermiteforge" / "cli.py").read_text())
    assert not named & set(_REFUSALS)
    assert _named("from a import B\nc.D\ne") == {"B", "c", "D", "e"}
