"""The traced benchmark run wraps package functions by name; every name it
lists must still resolve to a callable, or a refactor breaks tracing
silently.  The tracer's tables are read from its source, not executed."""

import ast
import importlib
import pathlib

import cycres

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing_tables():
    """The literal MODULES, LAYER_FUNCTIONS and CHECK_FUNCTIONS of tracing.py."""
    wanted = {"MODULES", "LAYER_FUNCTIONS", "CHECK_FUNCTIONS"}
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in wanted
    }


def test_traced_layer_and_check_functions_exist():
    tables = tracing_tables()
    assert tables["LAYER_FUNCTIONS"] and tables["CHECK_FUNCTIONS"]
    for mod_name in tables["MODULES"]:
        importlib.import_module(f"cycres.{mod_name}")
    for mod_name, attr in tables["LAYER_FUNCTIONS"]:
        owner = getattr(cycres, mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"
    for check, fn_name in tables["CHECK_FUNCTIONS"].items():
        assert callable(getattr(cycres.resolution_verify, fn_name)), check
