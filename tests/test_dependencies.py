"""cycres declares no dependencies (pyproject.toml): its modules import
only the standard library and each other."""

import ast
import pathlib
import sys

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
