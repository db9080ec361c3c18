"""Tests of the benchmark itself: smoke runs of every workload at the test
suite's tiny config, the output format, and the tracer's bookkeeping.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    record = json.loads((tmp_path / f"{workload}-smoke-seed3-trace{trace}.json").read_text())
    assert set(record["environment"]) >= {"git_sha", "nproc", "python", "numpy",
                                          "scipy", "blas", "blas_threads",
                                          "MINDALIGN_THREADS"}
    if trace:
        spans = (tmp_path / f"{workload}-smoke-seed3-trace1.spans.jsonl").read_text()
        assert len({json.loads(line)["run"] for line in spans.splitlines()}) == 1


def test_same_seed_gives_identical_outputs(tmp_path):
    outputs = []
    for i in range(2):
        out = tmp_path / str(i)
        proc = _run(["--workload", "scale", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        record = json.loads((out / "scale-smoke-seed5-trace0.json").read_text())
        outputs.append(record["detail"]["outputs"])
    assert outputs[0] == outputs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_restated_configs_match_the_suite(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))  # the suite imports its helpers
    conftest = _load(ROOT / "tests" / "conftest.py", "suite_conftest")
    acceptance = _load(ROOT / "tests" / "test_acceptance.py", "suite_acceptance")
    from mindalign.model import ModelConfig
    from mindalign.world import WorldConfig

    assert WorldConfig(**wl.TINY_WORLD) == conftest.TINY_WORLD
    assert ModelConfig(**wl.TINY_MODEL) == conftest.TINY_MODEL
    assert WorldConfig(**wl.SCALE_WORLD) == acceptance.SCALE_WORLD
    assert ModelConfig(**wl.SCALE_MODEL) == acceptance.SCALE_MODEL


def test_tracer_restores_every_name_it_wraps():
    import mindalign
    from mindalign import model, optim, tensor, train

    before = (train.backbone_forward, tensor.Tensor.backward, optim.AdamW.step,
              model.matmul, tensor.Tensor.__add__)
    tracer = Tracer("t")
    tracer.install(mindalign)
    assert train.backbone_forward is not before[0]
    assert model.matmul is not before[3]
    tracer.uninstall()
    after = (train.backbone_forward, tensor.Tensor.backward, optim.AdamW.step,
             model.matmul, tensor.Tensor.__add__)
    assert all(a is b for a, b in zip(before, after))
    assert train.backbone_forward is model.backbone_forward


def test_self_time_subtracts_direct_children():
    tracer = Tracer("t")
    # [id, name, layer, scope, start, end, parent]
    tracer.spans = [[0, "a", "train", "train", 0.0, 10.0, None],
                    [1, "b", "model", "train", 1.0, 4.0, 0],
                    [2, "c", "tensor", "train", 2.0, 3.0, 1],
                    [3, "d", "optim", "train", 5.0, 9.0, 0]]
    assert tracer.self_times() == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
