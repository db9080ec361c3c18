"""Imports sit at module top, where a reader looks for a module's dependencies.

`import mindalign.cli` loads every package module (through `config`), so an
import inside a function defers nothing. The one exception breaks a real
cycle: `evaluate` imports `train` at module top, and `train.ablation_run`
calls `evaluate.evaluate_model`. Every CSV record has one writer,
`flatkv.write_csv`, so only `flatkv` imports `csv`; every array file has one
owner, `store`, so only `store` reads or writes the `.npy` format.
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


_NUMPY_FILE_CALLS = {"fromfile", "load", "save"}


def _array_format_uses(source: str) -> set[str]:
    """Every import of `numpy.lib.format`, and every call of ``np.fromfile``,
    ``np.load``, ``np.save`` or an array's ``.tofile``."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            names = {prefix + a.name for a in node.names} | {prefix[:-1]}
            uses.update(names & {"numpy.lib.format"})
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            if attr == "tofile" or (attr in _NUMPY_FILE_CALLS and isinstance(owner, ast.Name)
                                    and owner.id in ("np", "numpy")):
                uses.add(attr)
    return uses


def test_the_guard_finds_array_format_uses():
    for line in ("import numpy.lib.format", "from numpy.lib import format as npy",
                 "from numpy.lib.format import read_magic"):
        assert _array_format_uses(line) == {"numpy.lib.format"}, line
    assert _array_format_uses("np.fromfile(fp, 'f4', 3); np.load(fp); numpy.save(fp, a)\n"
                              "a.tofile(fp)\n") == {"fromfile", "load", "save", "tofile"}
    assert _array_format_uses("from numpy.lib import stride_tricks\n"
                              "report.save(fp); json.load(fp); np.fromstring(b)\n") == set()


def test_only_store_reads_and_writes_the_array_format():
    package = Path(mindalign.__file__).parent
    assert [path.stem for path in sorted(package.rglob("*.py"))
            if _array_format_uses(path.read_text(encoding="utf-8"))] == ["store"]
