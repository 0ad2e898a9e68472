"""Source-wide guards: netgap depends on the Python standard library alone,
no function in it calls itself, the tests use only the CLI's public names,
and every function the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "netgap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_no_function_in_the_package_calls_itself():
    # every search runs on an explicit stack, so no input is too deep for it
    recursive = []
    for path in sorted((ROOT / "src" / "netgap").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Name):
                    name = callee.id
                elif (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")
                ):
                    name = callee.attr  # a method calling itself
                else:
                    continue
                if name == fn.name:
                    recursive.append(f"{path.name}:{node.lineno} {fn.name}")
    assert recursive == []


def test_certs_imports_nothing_from_netgap_but_gf():
    # the replayer must not depend on the solvers whose output it checks
    path = ROOT / "src" / "netgap" / "certs.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"gf"}
    assert [name for name in absolute if name.split(".")[0] == "netgap"] == []


def test_no_test_module_imports_a_private_name_from_the_cli():
    # the CLI only parses arguments and writes what the library made; a test
    # that needs one of its helpers is testing something the library owns
    private = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "netgap.cli":
                private += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def test_only_errors_reads_the_deadline():
    # every search and walk spends on an `errors.Budget`, the one reader of
    # the wall-clock deadline: no other module knows the checkpoint cadence
    # or reads the monotonic clock
    cadence = {"check_deadline", "check_deadline_over", "CHECKPOINT_MASK", "monotonic"}
    readers = []
    for path in sorted((ROOT / "src" / "netgap").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name.lstrip("_") in cadence:
                readers.append(f"{path.name}:{node.lineno} {name}")
    assert readers == []


def test_only_networks_reads_the_edge_index():
    # a network's edge index and its layer pass are private to `networks`:
    # every other module reads a network through its methods (`out_slice`,
    # `in_slice`, `middle_layer`, ...)
    readers = []
    for path in sorted((ROOT / "src" / "netgap").glob("*.py")):
        if path.name == "networks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in {"_index", "_node_of", "_layers"}:
                readers.append(f"{path.name}:{node.lineno} {node.attr}")
    assert readers == []


def test_every_traced_boundary_is_a_package_function():
    # the tracer looks each boundary up with no default, so a deleted or
    # renamed one would break every traced bench pass
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.BOUNDARIES.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"netgap.{mod}"), fn, None))
    ]
    assert missing == []

