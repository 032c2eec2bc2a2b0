"""The package's public surface, read from the source: the names the
package root exports, no public module-level function or class, and no
public method or property of a class, that only the tests use, the
parameters the benchmark's hooks read by position, the hot spans the
benchmark requires, the private names and attributes each module keeps to
itself, the one way the command line writes files, and the only packages
it imports."""

import ast
import importlib
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import corrvec
from corrvec import circuits, store, vqe

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "corrvec"

# what the command line's callers in bench/ and tools/ import
EXPORTS = {
    "AnsatzSpec", "GreensOracle", "MolecularIntegrals", "build_hea", "cli",
    "exact_ground", "hubbard_dimer", "hubbard_dimer_energy", "materialize",
    "read_fcidump", "run_pure",
}


def test_package_exports_the_agreed_names():
    assert set(corrvec.__all__) == EXPORTS
    assert len(corrvec.__all__) == len(EXPORTS)
    for name in corrvec.__all__:
        assert getattr(corrvec, name, None) is not None, name


def test_every_public_name_is_used_outside_the_tests():
    """Each public function or class of a package module is read as a name
    or an attribute, and each public method or property of a class there
    as an attribute, in the code of the package, bench/*.py or tools/*.py:
    a docstring or comment that names it does not count."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    users = (modules + sorted((ROOT / "bench").glob("*.py"))
             + sorted((ROOT / "tools").glob("*.py")))
    names, attributes = Counter(), Counter()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                attributes[node.attr] += 1
    unused = []
    for module in modules:
        for node in ast.parse(module.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not (node.name.startswith("_") or names[node.name]
                    or attributes[node.name]):
                unused.append(f"{module.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{module.name}:{node.name}.{member.name}"
                           for member in node.body
                           if isinstance(member, ast.FunctionDef)
                           and not member.name.startswith("_")
                           and not attributes[member.name]]
    assert unused == []


@pytest.mark.parametrize("function, position, name", [
    (circuits.run_pure, 0, "circ"),
    (circuits.run_density, 0, "circ"),
    (circuits.sample_pauli_expectation, 2, "op"),
    (circuits.sample_pauli_expectation, 3, "settings"),
    (circuits.sample_pauli_expectation, 4, "noise"),
    (circuits.OverlapEngine.estimate_sum, 2, "op"),  # counting self
    (vqe.rotosolve_sweep, 0, "cost"),
    (store.write_text_atomic, 1, "text"),
])
def test_benchmark_hooks_find_their_arguments_by_position(function, position, name):
    """``bench/spans.py`` reads these arguments by position when they are
    passed positionally, so each parameter keeps its place."""
    assert list(inspect.signature(function).parameters)[position] == name


def test_benchmark_hot_spans_name_public_functions():
    """Each name in a ``hot`` tuple of ``bench/workloads.py`` is a public
    function of a package module, or a public method of a public class
    there, which the benchmark's tracer wraps: a renamed or inlined hot
    function fails here, not only in a traced benchmark run."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    names = [name for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "hot" for t in node.targets)
             for name in ast.literal_eval(node.value)]
    assert len(names) >= 3
    assert [name for name in names if _traced_function(name) is None] == []


def _traced_function(name: str):
    """The function or method a span name ``layer.function`` or
    ``layer.Class.method`` resolves to, or None unless every part is public
    and the function or class is defined in that layer's module."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"corrvec.{layer}")
    if len(path) not in (1, 2) or any(part.startswith("_") for part in path):
        return None
    obj = vars(module).get(path[0])
    if getattr(obj, "__module__", None) != module.__name__:
        return None
    if len(path) == 2:
        obj = vars(obj).get(path[1]) if inspect.isclass(obj) else None
    return obj if inspect.isfunction(obj) else None


def test_no_module_imports_a_private_name_of_another():
    """Each module keeps its underscore names to itself."""
    offenders = [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom)
                 and (node.level > 0 or (node.module or "").startswith("corrvec"))
                 for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_only_pauli_reads_private_attributes_of_other_objects():
    """The Pauli string format stays behind ``pauli``: no other module
    reads a single-underscore attribute of an object but ``self`` or
    ``cls``, so a sum's terms, compiled forms and parts are read only
    there."""
    offenders = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "pauli.py"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and re.match(r"_(?!_)", node.attr)
                 and not (isinstance(node.value, ast.Name)
                          and node.value.id in ("self", "cls"))]
    assert offenders == []


def test_no_module_checks_with_an_assert_statement():
    """Every check in the package raises an exception with a message: an
    ``assert`` statement vanishes under ``python -O``."""
    offenders = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_cli_writes_files_only_through_the_manifest_and_the_log():
    """Every file a command writes goes through ``ManifestWriter.write``,
    which pins it, or ``store.append_lines``, the checkpoint log: the command
    line itself opens nothing for writing."""
    offenders = []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text_atomic", "write_text", "write_bytes"):
            offenders.append(f"line {node.lineno}: {name}")
        elif name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt"))
                   for m in modes):
                offenders.append(f"line {node.lineno}: open for writing")
    assert offenders == []


def test_no_module_reads_the_environment():
    """No module of the package reads an environment variable, so every
    setting is a config field or a command-line option: no ``os.environ``,
    ``os.getenv`` or their bytes forms, by attribute or by import."""
    names = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names:
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                              for alias in node.names if alias.name in names]
    assert offenders == []


def test_package_imports_only_numpy_and_the_standard_library():
    """Every import in the package is relative, of ``corrvec``, of the
    standard library or of a dependency ``pyproject.toml`` declares, which
    is numpy alone: no scipy, for one, in the package."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert declared == {"numpy"}
    allowed = set(sys.stdlib_module_names) | declared | {"corrvec"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name.partition(".")[0] not in allowed]
    assert offenders == []
