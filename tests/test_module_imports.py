"""Imports sit at module top, where a reader looks for a module's dependencies.

`import mindalign.cli` loads every package module (through `config`), so an
import inside a function defers nothing. The one exception breaks a real
cycle: `evaluate` imports `train` at module top, and `train.ablation_run`
calls `evaluate.evaluate_model`.
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
