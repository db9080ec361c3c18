"""Shared fixtures: a small world and model the whole suite can reuse."""

import multiprocessing

import pytest
from hypothesis import settings

from mindalign.model import ModelConfig
from mindalign.world import WorldConfig, generate_dataset, generate_world, normalize

# every run draws the same examples, so a failure reproduces; a test's own
# @settings keep their max_examples and take the rest from this profile
settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")

TINY_WORLD = WorldConfig(image_hw=8, channels=3, n_tokens=8, d_token=32, vae_hw=4,
                         n_subjects=4, voxels_min=40, voxels_max=80, n_sessions=4,
                         trials_per_session=20, n_shared=16)
TINY_MODEL = ModelConfig(h=64, t_steps=8, d_cond=64, denoiser_hidden=128,
                         retr_hidden=64, d_retr=16, ll_hidden=64, ll_trunk=64,
                         teacher_hidden=32, m_tokens=6, d_token_b=16)


@pytest.fixture(scope="session")
def tiny_world():
    return generate_world(TINY_WORLD, seed=7)


@pytest.fixture(scope="session")
def tiny_datasets(tiny_world):
    return {sid: normalize(generate_dataset(tiny_world, sid, seed=100 + i))
            for i, sid in enumerate(tiny_world.subject_ids)}


@pytest.fixture(scope="session")
def tiny_mcfg():
    return TINY_MODEL


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a worker process running, as the benchmark
    refuses a run that does."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"the test left {len(left)} worker process(es) running"
