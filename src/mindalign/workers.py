"""One BLAS thread per process, and a sweep's independent jobs on two cores.

`one_blas_thread` pins numpy's own OpenBLAS to one thread for a block and
gives the caller back its thread count on exit. At one thread a result's
bits do not depend on the machine's core count, and two busy processes do
not slow each other down through OpenBLAS's spinning pool. The count is set
through the ``scipy_openblas_*_num_threads64_`` symbols of the copy numpy
already mapped, as threadpoolctl does. A numpy built on another BLAS lacks
them: its thread count is then left at that library's default, and
`fork_map` runs every job in the calling process.

`fork_map` runs independent jobs on up to two processes: the caller and a
forked worker. Workers are forked, not spawned, so they inherit the caller's
arrays (the world, the datasets, a pretrained checkpoint) instead of having
them pickled; only a job's return value crosses back. The caller forks while
it runs no other thread, and OpenBLAS stops its own pool at a fork.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from contextlib import contextmanager
from functools import cache
from typing import Callable, Sequence

from .errors import WorkerLostError

_GET, _SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"


@cache
def _openblas():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # not Linux
        return None
    for path in paths:
        try:  # RTLD_NOLOAD: bind to the mapped copy, never load a second one
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        get, set_ = getattr(lib, _GET, None), getattr(lib, _SET, None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread, then restore the caller's count."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def slot_count(n_jobs: int) -> int:
    """How many processes `fork_map` runs ``n_jobs`` jobs on, the caller included."""
    if _openblas() is None:
        return 1
    return min(2, len(os.sched_getaffinity(0)), n_jobs)


def fork_map(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, run on `slot_count` processes.

    Call it inside `one_blas_thread`. The caller is one slot and forks the
    others. Every process claims the next job index from one shared counter,
    so jobs start in list order, and the caller claims the first before it
    forks: put the longest job first. A job run in the caller returns its
    result as it is; a worker pickles its jobs' results back once it finds no
    job left.

    A failed job stops further claims. Once the running jobs end, the failure
    of the lowest job index is raised, as a serial run would raise it. A
    worker's exception is raised again here with its type and message, and a
    worker that dies raises `WorkerLostError` naming its job. Every worker
    has been joined when this returns or raises.
    """
    ctx = multiprocessing.get_context("fork")
    next_job = ctx.Value("q", 0)
    owner = ctx.RawArray("b", [-1] * len(jobs))  # the slot that claimed each job

    def claim(slot: int) -> int | None:
        with next_job.get_lock():
            i = next_job.value
            if i >= len(jobs):
                return None
            next_job.value = i + 1
            owner[i] = slot
            return i

    def run(slot: int, i: int | None, results: dict, failures: dict) -> None:
        while i is not None:
            try:
                results[i] = fn(jobs[i])
            except Exception as exc:  # raised in the caller once every job has ended
                failures[i] = exc
                with next_job.get_lock():
                    next_job.value = len(jobs)
            i = claim(slot)

    def work(slot: int, conn) -> None:
        results: dict = {}
        failures: dict = {}
        run(slot, claim(slot), results, failures)
        conn.send((results, failures))

    results: dict = {}
    failures: dict = {}
    workers = []
    try:
        first = claim(0)
        for slot in range(1, slot_count(len(jobs))):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, args=(slot, send), daemon=True)
            proc.start()
            send.close()  # so that a worker's death reads as end of file
            workers.append((proc, recv))
        run(0, first, results, failures)
        for slot, (proc, recv) in enumerate(workers, 1):
            try:
                done, failed = recv.recv()
            except (EOFError, OSError):
                proc.join()
                lost = [i for i in range(len(jobs)) if owner[i] == slot]
                if lost:  # the job it was running is the last it claimed
                    failures[lost[-1]] = WorkerLostError(
                        f"the worker running job {jobs[lost[-1]]!r} "
                        f"{_death(proc.exitcode)}")
                continue
            results.update(done)
            failures.update(failed)
            proc.join()
    finally:
        for proc, recv in workers:
            if proc.exitcode is None:  # still running: the caller failed
                proc.terminate()
            proc.join()
            recv.close()
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(jobs))]


def _death(exitcode: int) -> str:
    if exitcode < 0:
        return f"was killed by signal {-exitcode}"
    return f"exited with code {exitcode} before returning its results"
