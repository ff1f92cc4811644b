"""cycres declares no dependencies (pyproject.toml): its modules import
only the standard library and each other."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

from test_trace_hooks import tracing_tables

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_modules_import_only_the_standard_library_and_each_other():
    files = sorted((ROOT / "src" / "cycres").glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"


def test_every_imported_name_is_read_in_its_module():
    # a name that a package module imports is read in that module, so a
    # name that goes takes its import with it
    unread, count = [], 0
    for path in sorted((ROOT / "src" / "cycres").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    count += 1
                    if (alias.asname or alias.name.split(".")[0]) not in read:
                        unread.append(f"{path.name}: {alias.name}")
    assert count > 50
    assert unread == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes, so starting the CLI pulls in none of
    # the modules behind dataclasses (inspect, ast, dis, tokenize, ...)
    probe = "import sys, cycres.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_every_definition_is_used_by_the_package():
    # ROADMAP: keep no helper that only its own test calls.  Every function,
    # class and method of the package is read somewhere in the package
    # outside its own body, or is wrapped by name by the benchmark's tracer,
    # or is the console entry point; dunders are called by Python itself.
    # A method counts as read only as an attribute (obj.name): a local
    # variable or a function of the same name does not keep it
    tables = tracing_tables()
    traced = {attr.split(".")[-1] for _, attr in tables["LAYER_FUNCTIONS"]}
    traced |= set(tables["CHECK_FUNCTIONS"].values())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def reads(tree):
        """The Counters of the names and of the attributes read in tree."""
        names, attributes = Counter(), Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes[node.attr] += 1
        return names, attributes

    def definitions(node, prefix):
        """(qualname, definition, whether it is a method) for every
        definition below node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kinds):
                yield f"{prefix}{child.name}", child, isinstance(node, ast.ClassDef)
                yield from definitions(child, f"{prefix}{child.name}.")
            else:
                yield from definitions(child, prefix)

    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "cycres").glob("*.py"))
    }
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = reads(tree)
        names += tree_names
        attributes += tree_attributes
    unused, count, methods = [], 0, 0
    for stem, tree in trees.items():
        for qualname, node, method in definitions(tree, f"{stem}."):
            count += 1
            methods += method
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in traced or qualname == "cli.main":
                continue
            own_names, own_attributes = reads(node)
            outside = attributes[name] - own_attributes[name]
            if not method:
                outside += names[name] - own_names[name]
            if outside <= 0:
                unused.append(qualname)
    assert count > 100 and methods > 10
    assert unused == []


def test_every_raise_builds_the_error_of_one_exit_code():
    # the CLI maps each error class to one exit code (ValidationError 2,
    # NotIrreducibleError 3, InternalError 1), so every raise in the package
    # builds one of those three, or re-raises
    allowed = {"ValidationError", "NotIrreducibleError", "InternalError"}
    wrong, count = [], 0
    for path in sorted((ROOT / "src" / "cycres").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            count += 1
            exc = node.exc
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id in allowed):
                wrong.append(f"{path.name}:{node.lineno}")
    assert count > 40
    assert wrong == []
    errors = ast.parse((ROOT / "src" / "cycres" / "errors.py").read_text())
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == sorted({"CycresError", *allowed})
