"""Imports sit at module top, where a reader looks for a module's dependencies.

`import mindalign.cli` loads every package module (through `config`), so an
import inside a function defers nothing. The one exception breaks a real
cycle: `evaluate` imports `train` at module top, and `train.ablation_run`
calls `evaluate.evaluate_model`. Every CSV record has one writer,
`flatkv.write_csv`, so only `flatkv` imports `csv`.
"""

import ast
from pathlib import Path

import mindalign

_ALLOWED = ["train.ablation_run"]


def _function_level_imports(source: str, module: str) -> list[str]:
    """``module.function`` for every function whose body holds an import."""
    return sorted({f"{module}.{fn.name}" for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and any(isinstance(node, (ast.Import, ast.ImportFrom))
                           for node in ast.walk(fn))})


def test_the_guard_finds_imports_in_functions_and_methods():
    source = ("import a\nfrom b import c\n"
              "def f():\n    import d\n"
              "class K:\n    def g(self):\n        from . import e\n"
              "def h():\n    return 1\n")
    assert _function_level_imports(source, "m") == ["m.f", "m.g"]


def test_only_the_cycle_breaking_import_is_inside_a_function():
    package = Path(mindalign.__file__).parent
    found = [name for path in sorted(package.rglob("*.py"))
             for name in _function_level_imports(path.read_text(encoding="utf-8"),
                                                 path.stem)]
    assert found == _ALLOWED


def _imported_modules(source: str) -> set[str]:
    """The top-level name of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_guard_finds_absolute_imports_only():
    source = ("import csv.x as c, os\nfrom json import dumps\nfrom . import csv\n"
              "def f():\n    import re\n")
    assert _imported_modules(source) == {"csv", "os", "json", "re"}


def test_only_flatkv_imports_csv():
    package = Path(mindalign.__file__).parent
    assert [path.stem for path in sorted(package.rglob("*.py"))
            if "csv" in _imported_modules(path.read_text(encoding="utf-8"))] == ["flatkv"]
