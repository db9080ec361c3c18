"""No public protocol mutates its arguments.

Each test hashes every array (and every scalar) reachable from a call's
arguments, makes the call, and hashes again. `finetune` has its own check in
`test_train.py`; `add_subject` and `train_converter` edit their model by
design and are not covered here.
"""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindalign.evaluate import EvalConfig, evaluate_model, reconstruct, run_scaling
from mindalign.model import init_model, save_checkpoint
from mindalign.tensor import Tensor
from mindalign.train import TrainConfig, pretrain, train_from_scratch
from mindalign.world import SubjectDataset, generate_dataset, normalize


def fingerprint(*args) -> str:
    """A hash of everything reachable from ``args``, arrays by their bytes."""
    h = hashlib.sha256()

    def walk(x):
        h.update(type(x).__name__.encode())
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, Tensor):
            for part in (x.data, x.grad, x.requires_grad):
                walk(part)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                h.update(f.name.encode())
                walk(getattr(x, f.name))
        elif isinstance(x, dict):
            for key, value in x.items():
                walk(key)
                walk(value)
        elif isinstance(x, (list, tuple)):
            for item in x:
                walk(item)
        elif isinstance(x, (set, frozenset)):
            for item in sorted(x, key=repr):
                walk(item)
        elif x is None or isinstance(x, (bool, int, float, str, Path)):
            h.update(repr(x).encode())
        else:
            raise TypeError(f"cannot fingerprint a {type(x).__name__}")

    for arg in args:
        walk(arg)
    return h.hexdigest()


def assert_unmutated(fn, *args, **kwargs):
    before = fingerprint(args, kwargs)
    fn(*args, **kwargs)
    assert fingerprint(args, kwargs) == before, f"{fn.__name__} mutated its arguments"


TRAIN = TrainConfig(epochs=1, batch_size=6, samples_per_subject_per_batch=3,
                    held_out_subject="s3")
EVAL = EvalConfig(pool_size=8, repetitions=2)
SEEDS = st.integers(0, 2 ** 32)


@pytest.fixture(scope="module")
def model(tiny_world, tiny_datasets, tiny_mcfg):
    subjects = {sid: ds.n_voxels for sid, ds in tiny_datasets.items()}
    return init_model(tiny_world.config, tiny_mcfg, subjects, seed=5)


def test_fingerprint_sees_an_in_place_edit(model):
    before = fingerprint(model)
    bias = model.params["prior.out.b"].data
    saved = bias.copy()
    bias[0] += 1.0
    try:
        assert fingerprint(model) != before
    finally:
        bias[...] = saved
    assert fingerprint(model) == before


@settings(derandomize=True, deadline=None, max_examples=10)
@given(subject=st.integers(0, 3), seed=SEEDS)
def test_normalize(tiny_world, subject, seed):
    raw = generate_dataset(tiny_world, tiny_world.subject_ids[subject], seed=seed)
    assert_unmutated(normalize, raw)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(subject=st.integers(0, 3), k=st.integers(1, 4), seed=SEEDS)
def test_restrict_sessions_and_normalize_return_fresh_arrays(tiny_world, subject, k, seed):
    # what they return shares no memory with their input, so a caller's edit
    # of the result cannot reach the dataset it came from
    raw = generate_dataset(tiny_world, tiny_world.subject_ids[subject], seed=seed)
    assert_unmutated(SubjectDataset.restrict_sessions, raw, k)
    inputs = [getattr(raw, f.name) for f in dataclasses.fields(raw)]
    for out in (raw.restrict_sessions(k), normalize(raw)):
        for f in dataclasses.fields(out):
            value = getattr(out, f.name)
            if isinstance(value, np.ndarray):
                assert not any(np.shares_memory(value, x) for x in inputs
                               if isinstance(x, np.ndarray)), f.name
        np.testing.assert_array_equal(out.is_shared, out.session_index == -1)


@settings(derandomize=True, deadline=None, max_examples=5)
@given(subject=st.integers(0, 3), rows=st.integers(1, 4), seed=SEEDS)
def test_reconstruct(tiny_world, tiny_datasets, model, subject, rows, seed):
    sid = tiny_world.subject_ids[subject]
    voxels = tiny_datasets[sid].shared_voxels()[:rows]
    assert_unmutated(reconstruct, model, tiny_world, voxels, sid, seed=seed)


@settings(derandomize=True, deadline=None, max_examples=5)
@given(subject=st.integers(0, 3), recon=st.booleans(), brain=st.booleans(), seed=SEEDS)
def test_evaluate_model(tiny_world, tiny_datasets, model, subject, recon, brain, seed):
    ds = tiny_datasets[tiny_world.subject_ids[subject]]
    cfg = dataclasses.replace(EVAL, seed=seed, include_brain_corr=brain)
    assert_unmutated(evaluate_model, model, tiny_world, ds, cfg,
                     include_reconstruction=recon)


@settings(derandomize=True, deadline=None, max_examples=3)
@given(seed=SEEDS)
def test_save_checkpoint(tiny_world, tiny_datasets, tiny_mcfg, seed):
    subjects = {sid: ds.n_voxels for sid, ds in tiny_datasets.items()}
    mp = init_model(tiny_world.config, tiny_mcfg, subjects, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        assert_unmutated(save_checkpoint, mp, Path(tmp) / "c.me2c")


@settings(derandomize=True, deadline=None, max_examples=3)
@given(seed=SEEDS)
def test_pretrain(tiny_world, tiny_datasets, tiny_mcfg, seed):
    pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
    assert_unmutated(pretrain, tiny_world, pre, dataclasses.replace(TRAIN, seed=seed),
                     tiny_mcfg)


@settings(derandomize=True, deadline=None, max_examples=3)
@given(k=st.integers(1, 4), mlp_ridge=st.booleans(), seed=SEEDS)
def test_train_from_scratch(tiny_world, tiny_datasets, tiny_mcfg, k, mlp_ridge, seed):
    mcfg = dataclasses.replace(tiny_mcfg, mlp_ridge=mlp_ridge)
    assert_unmutated(train_from_scratch, tiny_world, tiny_datasets["s3"], k,
                     dataclasses.replace(TRAIN, seed=seed), mcfg)


@settings(derandomize=True, deadline=None, max_examples=3)
@given(grid=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
       arms=st.sampled_from([("scratch",), ("pretrained", "scratch")]), seed=SEEDS)
def test_run_scaling(tiny_world, tiny_datasets, tiny_mcfg, grid, arms, seed):
    assert_unmutated(run_scaling, tiny_world, tiny_datasets, "s3", grid, arms,
                     dataclasses.replace(TRAIN, seed=seed), tiny_mcfg, EVAL)
