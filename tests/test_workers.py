"""One BLAS thread inside the sweeps, and their jobs on two processes.

`fork_map` must give the results a serial loop gives, whatever the slot
count: the tests set the count through `workers.slot_count`. A failure in a
worker reaches the caller, a worker that dies is one error, and no worker
outlives its call (`conftest.py` checks that after every test).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mindalign
from mindalign import evaluate as evaluate_mod
from mindalign import train as train_mod
from mindalign import workers
from mindalign.errors import DataError, WorkerLostError
from mindalign.evaluate import EvalConfig, run_scaling
from mindalign.tensor import NonFiniteError
from mindalign.train import TrainConfig, ablation_run

FAST = TrainConfig(epochs=2, batch_size=8, samples_per_subject_per_batch=4, seed=3,
                   held_out_subject="s3")
ECFG = EvalConfig(pool_size=16, repetitions=3, seed=1)

needs_openblas = pytest.mark.skipif(workers._openblas() is None,
                                    reason="numpy's BLAS has no thread-count symbols")


def _slots(monkeypatch, n: int) -> None:
    monkeypatch.setattr(workers, "slot_count", lambda n_jobs: min(n, n_jobs))


def _reports_equal(a, b) -> None:
    assert a.metrics == b.metrics and a.protocol == b.protocol
    assert (a.recons is None) == (b.recons is None)
    if a.recons is not None:
        assert a.recons.tobytes() == b.recons.tobytes()


# -- fork_map ------------------------------------------------------------------


def _rendezvous():
    """A job-0 body that waits until job 1 has started elsewhere, so job 1 is
    sure to run in the worker."""
    started = multiprocessing.get_context("fork").Event()

    def first():
        assert started.wait(timeout=60), "job 1 never started"
        return os.getpid()
    return started, first


@needs_openblas
@pytest.mark.parametrize("slots", [1, 2])
def test_results_come_back_in_job_order(monkeypatch, slots):
    _slots(monkeypatch, slots)
    with workers.one_blas_thread():
        assert workers.fork_map(lambda j: j * j, range(7)) == [j * j for j in range(7)]
        assert workers.fork_map(lambda j: j, []) == []


@needs_openblas
def test_every_job_runs_once_with_more_workers_than_cores(monkeypatch):
    # a lost update to the shared counter would run a job twice or never
    _slots(monkeypatch, 6)
    runs = multiprocessing.get_context("fork").RawArray("i", 300)

    def job(j):
        runs[j] += 1
        time.sleep(0.001 * (j % 3))
        return os.getpid()

    t0 = time.perf_counter()
    with workers.one_blas_thread():
        pids = workers.fork_map(job, range(300))
    assert list(runs) == [1] * 300
    assert len(set(pids)) > 1 and pids[0] == os.getpid()
    assert time.perf_counter() - t0 < 60


@needs_openblas
def test_the_first_job_runs_in_the_caller_and_the_second_in_a_worker(monkeypatch):
    _slots(monkeypatch, 2)
    started, first = _rendezvous()

    def job(j):
        if j == 0:
            return first()
        started.set()
        return os.getpid()

    with workers.one_blas_thread():
        pids = workers.fork_map(job, [0, 1])
    assert pids[0] == os.getpid() and pids[1] != os.getpid()


@needs_openblas
def test_a_worker_exception_is_raised_in_the_caller(monkeypatch):
    _slots(monkeypatch, 2)
    started, first = _rendezvous()

    def job(j):
        if j == 0:
            return first()
        started.set()
        raise NonFiniteError(f"non-finite loss in pid {os.getpid()}")

    with workers.one_blas_thread(), pytest.raises(NonFiniteError) as info:
        workers.fork_map(job, [0, 1])
    assert str(info.value).startswith("non-finite loss in pid ")
    assert str(info.value) != f"non-finite loss in pid {os.getpid()}"


@needs_openblas
def test_the_lowest_failing_job_is_raised_as_a_serial_run_would(monkeypatch):
    def job(j):
        if j in (1, 2):
            raise DataError(f"job {j}")
        return j

    for slots in (1, 2):
        _slots(monkeypatch, slots)
        with workers.one_blas_thread(), pytest.raises(DataError, match="^job 1$"):
            workers.fork_map(job, range(4))


@needs_openblas
def test_a_worker_that_dies_is_one_error_and_no_hang(monkeypatch):
    _slots(monkeypatch, 2)
    started, first = _rendezvous()
    caller = os.getpid()

    def job(j):
        if j == "pretrain":
            return first()
        if os.getpid() != caller:  # never kill the test process itself
            started.set()
            os.kill(os.getpid(), signal.SIGKILL)
        return j

    t0 = time.perf_counter()
    with workers.one_blas_thread(), pytest.raises(WorkerLostError) as info:
        workers.fork_map(job, ["pretrain", ("scratch", 4)])
    assert str(info.value) == ("the worker running job ('scratch', 4) was killed by "
                               "signal 9")
    assert time.perf_counter() - t0 < 60
    assert multiprocessing.active_children() == []


@needs_openblas
def test_a_caller_failure_ends_every_worker(monkeypatch):
    _slots(monkeypatch, 2)
    started, _ = _rendezvous()
    caller = os.getpid()

    def job(j):
        if os.getpid() == caller:
            assert started.wait(timeout=60)
            raise KeyboardInterrupt  # not an Exception: no wait for the worker
        started.set()
        time.sleep(60)

    t0 = time.perf_counter()
    with workers.one_blas_thread(), pytest.raises(KeyboardInterrupt):
        workers.fork_map(job, [0, 1])
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


def test_without_the_symbols_every_job_runs_in_the_caller(monkeypatch):
    monkeypatch.setattr(workers, "_openblas", lambda: None)
    assert workers.slot_count(5) == 1
    with workers.one_blas_thread():
        assert workers.fork_map(lambda j: os.getpid(), range(3)) == [os.getpid()] * 3


# -- the BLAS thread count -----------------------------------------------------


@needs_openblas
def test_a_sweep_that_raises_restores_the_callers_thread_count(tiny_world, tiny_datasets,
                                                               tiny_mcfg, monkeypatch):
    get, set_ = workers._openblas()
    original = get()
    seen = []

    def failing_map(fn, jobs):
        seen.append(get())
        raise NonFiniteError("stop")

    monkeypatch.setattr(evaluate_mod, "fork_map", failing_map)
    monkeypatch.setattr(train_mod, "fork_map", failing_map)
    try:
        set_(2)
        before = get()
        with pytest.raises(NonFiniteError):
            run_scaling(tiny_world, tiny_datasets, "s3", (1,), ("scratch",), FAST,
                        tiny_mcfg, ECFG)
        assert get() == before
        with pytest.raises(NonFiniteError):
            ablation_run(tiny_world, tiny_datasets["s3"], 1, FAST, tiny_mcfg, ECFG,
                         variants=("Ret",))
        assert get() == before
    finally:
        set_(original)
    assert seen == [1, 1]  # both ran their jobs at one thread


@needs_openblas
def test_a_sweep_returns_at_the_callers_thread_count(tiny_world, tiny_datasets,
                                                     tiny_mcfg):
    get, set_ = workers._openblas()
    original = get()
    try:
        set_(2)
        before = get()
        ablation_run(tiny_world, tiny_datasets["s3"], 1, FAST, tiny_mcfg, ECFG,
                     variants=("Ret",))
        assert get() == before
    finally:
        set_(original)


_IMPORT_PROBE = """
import ctypes, json, os
import numpy
with open("/proc/self/maps") as maps:
    paths = sorted({l.split()[-1] for l in maps if "openblas" in l.lower()})
gets = [getattr(ctypes.CDLL(p, mode=os.RTLD_NOLOAD),
                "scipy_openblas_get_num_threads64_", None) for p in paths]
get = next(g for g in gets if g is not None)
get.restype = ctypes.c_int
before = get()
import mindalign, mindalign.cli
print(json.dumps([before, get()]))
"""


@needs_openblas
def test_importing_the_package_leaves_the_thread_count_alone():
    src = str(Path(mindalign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    before, after = json.loads(done.stdout)
    assert after == before


# -- the sweeps at one slot and at two -----------------------------------------


@needs_openblas
def test_run_scaling_does_not_depend_on_the_slot_count(tiny_world, tiny_datasets,
                                                       tiny_mcfg, monkeypatch):
    results = []
    for slots in (1, 2):
        _slots(monkeypatch, slots)
        # the grid lacks the anchor's 4 sessions, so the anchor trains on its own
        results.append(run_scaling(tiny_world, tiny_datasets, "s3", (1, 3),
                                   ("pretrained", "scratch"), FAST, tiny_mcfg, ECFG))
    one, two = results
    assert {arm: list(c) for arm, c in one.arms.items()} == {
        arm: list(c) for arm, c in two.arms.items()} == {"pretrained": [1, 3],
                                                        "scratch": [1, 3]}
    for arm, curve in one.arms.items():
        for k, report in curve.items():
            _reports_equal(report, two.arms[arm][k])
    _reports_equal(one.anchor, two.anchor)
    _reports_equal(one.baseline, two.baseline)
    assert one.csv_rows() == two.csv_rows()


@needs_openblas
def test_ablation_run_does_not_depend_on_the_slot_count(tiny_world, tiny_datasets,
                                                        tiny_mcfg, monkeypatch):
    runs = []
    for slots in (1, 2):
        _slots(monkeypatch, slots)
        runs.append(ablation_run(tiny_world, tiny_datasets["s3"], 2, FAST, tiny_mcfg,
                                 ECFG, variants=("Ret", "All", "Ret", "Prior")))
    one, two = runs
    assert list(one) == list(two) == ["Ret", "All", "Prior"]
    for variant in one:
        _reports_equal(one[variant], two[variant])
