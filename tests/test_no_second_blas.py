"""The package's linear algebra runs on numpy's BLAS alone.

scipy bundles its own OpenBLAS beside numpy's. Calling into both starts two
pools of worker threads that compete for the same cores: a prototype that
factorized the world's frozen maps with `scipy.linalg` made the `scale`
benchmark's `setup_s` worse, 0.104 -> 0.145-0.167 s on 2 cores, although
its factorizations alone were faster.
"""

import ast
from pathlib import Path

import pytest

import mindalign

_BANNED = ("scipy.linalg", "scipy.sparse.linalg")
_MESSAGE = ("imports {name}, which brings scipy's second OpenBLAS; it raised the "
            "scale benchmark's setup_s from 0.104 to 0.145-0.167 s (+45%)")


def _linalg_imports(source: str) -> list[str]:
    """Every module name ``source`` imports that is or lies under a banned one."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            # `from scipy import linalg` imports the submodule scipy.linalg
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return [n for n in names if any(n == b or n.startswith(b + ".") for b in _BANNED)]


@pytest.mark.parametrize("source, found", [
    ("import scipy.linalg", ["scipy.linalg"]),
    ("import scipy.linalg as la", ["scipy.linalg"]),
    ("from scipy import linalg", ["scipy.linalg"]),
    ("from scipy.linalg import qr", ["scipy.linalg", "scipy.linalg.qr"]),
    ("from scipy.sparse import linalg as sla", ["scipy.sparse.linalg"]),
    ("import scipy.sparse.linalg.interface", ["scipy.sparse.linalg.interface"]),
    ("def f():\n    from scipy.linalg import lapack", ["scipy.linalg", "scipy.linalg.lapack"]),
    ("from scipy.ndimage import gaussian_filter\nimport numpy.linalg", []),
    ("from scipy.special import erf\nfrom scipy import sparse", []),
])
def test_the_guard_finds_every_import_form(source, found):
    assert _linalg_imports(source) == found


def test_the_package_imports_no_scipy_linalg():
    modules = sorted(Path(mindalign.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for name in _linalg_imports(path.read_text(encoding="utf-8")):
            pytest.fail(f"{path.name} " + _MESSAGE.format(name=name))
