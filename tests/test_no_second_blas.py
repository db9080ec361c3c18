"""The package runs on numpy and numpy's BLAS alone; it never loads scipy.

scipy bundles its own OpenBLAS beside numpy's, and any scipy import maps it:
- a prototype that factorized the world's frozen maps with `scipy.linalg`
  made the `scale` benchmark's `setup_s` worse, 0.104 -> 0.145-0.167 s on
  2 cores, although its factorizations alone were faster;
- `scipy.special` (for gelu's erf) and `scipy.ndimage` (for the world's
  gaussian filter) cost `import mindalign` 26.6 MB of resident memory and
  one idle BLAS thread. The package now computes both in numpy.

The source guard below names the `scipy.linalg` imports; the subprocess test
checks the contract itself, on a process that builds a world and runs gelu.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mindalign
from conftest import TINY_WORLD

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


_PROBE = """
import json, sys
import numpy as np
import mindalign
from mindalign.tensor import Tensor, gelu, tensor_sum
from mindalign.world import WorldConfig, generate_world

generate_world(WorldConfig(**json.loads(sys.argv[1])), seed=7)
x = Tensor(np.linspace(-3.0, 3.0, 24).reshape(4, 6), requires_grad=True)
tensor_sum(gelu(x)).backward()
assert x.grad is not None
maps = []
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as f:
        maps = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "openblas": maps}))
"""


def test_a_world_and_gelu_load_no_scipy_and_one_openblas():
    src = str(Path(mindalign.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    world = dataclasses.asdict(TINY_WORLD)
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(world)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["scipy"] == []
    if sys.platform.startswith("linux"):
        assert len(loaded["openblas"]) == 1, loaded["openblas"]
