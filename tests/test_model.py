"""Model graph: forwards, prior, heads, checkpoint format."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindalign import seeds
from mindalign.errors import ConfigError, DataError
from mindalign.model import (
    ModelConfig,
    add_subject,
    backbone_forward,
    converter_forward,
    denoise,
    expected_parameter_count,
    init_model,
    load_checkpoint,
    lowlevel_forward,
    make_schedule,
    parameter_shapes,
    prior_sample,
    prior_train_step,
    retrieval_project,
    ridge_forward,
    save_checkpoint,
)
from mindalign.store import read_arrays
from mindalign.tensor import ShapeError, Tensor, add, gradcheck, mse_loss
from mindalign.train import TrainConfig, finetune
from mindalign.world import WorldConfig, generate_world, token_targets

WCFG = WorldConfig(image_hw=8, channels=3, n_tokens=8, d_token=32, vae_hw=4,
                   n_subjects=3, voxels_min=40, voxels_max=80, n_sessions=4,
                   trials_per_session=10, n_shared=12)
MCFG = ModelConfig(h=64, t_steps=8, d_cond=32, denoiser_hidden=64, retr_hidden=64,
                   d_retr=16, ll_hidden=64, ll_trunk=64, teacher_hidden=32,
                   m_tokens=6, d_token_b=16)


@pytest.fixture(scope="module")
def world():
    return generate_world(WCFG, seed=7)


@pytest.fixture()
def mp(world):
    subs = {sid: a.shape[0] for sid, a in world.subjects.items()}
    return init_model(WCFG, MCFG, subs, seed=1)


def _zero_all(mp):
    for p in mp.params.values():
        p.data[:] = 0.0


class TestRidge:
    def test_zero_weights_zero_latent(self, mp):
        _zero_all(mp)
        out = ridge_forward(mp, "s0", np.ones((2, mp.subjects["s0"])))
        assert np.abs(out.data).max() == 0.0

    def test_subject_specific(self, world):
        # two subjects with equal voxel counts would still disagree; here use
        # truncated content so vectors are content-identical per subject
        subs = {"a": 10, "b": 10}
        m = init_model(WCFG, MCFG, subs, seed=3)
        vox = np.random.default_rng(0).normal(size=(2, 10))
        la = ridge_forward(m, "a", vox)
        lb = ridge_forward(m, "b", vox)
        assert not np.allclose(la.data, lb.data)

    def test_default_latent_width_config_echo(self):
        assert ModelConfig().h == 256

    def test_unknown_subject(self, mp):
        with pytest.raises(DataError):
            ridge_forward(mp, "ghost", np.zeros((1, 5)))

    def test_length_mismatch(self, mp):
        with pytest.raises(ShapeError):
            ridge_forward(mp, "s0", np.zeros((1, 3)))

    def test_mlp_dropout_variant(self):
        m = init_model(WCFG, ModelConfig(**{**MCFG.__dict__, "mlp_ridge": True}),
                       {"a": 10}, seed=3)
        assert "ridge.a.W2" in m.params
        vox = np.random.default_rng(0).normal(size=(4, 10))
        mask = (np.random.default_rng(1).random((4, MCFG.h)) > 0.5) / 0.5
        out = ridge_forward(m, "a", vox, dropout_mask=mask)
        assert out.shape == (4, MCFG.h)


class TestBackbone:
    def test_zero_weights_zero_tokens(self, mp):
        _zero_all(mp)
        toks = backbone_forward(mp, np.ones((2, MCFG.h)))
        assert np.abs(toks.data).max() == 0.0

    def test_residual_skip_identity(self, mp):
        # zero the inner linears: each block reduces to its skip path and the
        # backbone becomes exactly the token lift of its input
        for i in range(MCFG.n_blocks):
            for leaf in ("fc1.W", "fc1.b", "fc2.W", "fc2.b"):
                mp.params[f"backbone.block{i}.{leaf}"].data[:] = 0.0
        x = np.random.default_rng(0).normal(size=(3, MCFG.h))
        toks = backbone_forward(mp, x)
        direct = x @ mp.params["backbone.to_tokens"].data
        np.testing.assert_allclose(toks.data.reshape(3, -1), direct, atol=1e-12)

    def test_output_shape_config_echo(self, mp):
        toks = backbone_forward(mp, np.zeros((2, MCFG.h)))
        assert toks.shape == (2, WCFG.n_tokens, WCFG.d_token)


class TestSchedule:
    @pytest.mark.parametrize("kind", ["cosine", "linear"])
    def test_monotone_decreasing_unit_interval(self, kind):
        ab = make_schedule(kind, 64)
        assert np.all(np.diff(ab) < 0)
        assert ab[0] > 0.99
        assert ab[-1] < 0.05
        assert np.all(ab > 0) and np.all(ab <= 1)

    def test_single_step_allowed(self):
        assert make_schedule("cosine", 1).shape == (1,)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_schedule("sigmoid", 8)


class TestPrior:
    def test_perfect_prediction_zero_loss(self, mp, world):
        # zeroed output head predicts exactly 0; for zero targets the loss
        # is exactly the MSE minimum
        mp.params["prior.out.W"].data[:] = 0.0
        mp.params["prior.out.b"].data[:] = 0.0
        toks = np.zeros((3, WCFG.n_tokens, WCFG.d_token))
        loss = prior_train_step(mp, toks, np.zeros_like(toks), np.array([1, 2, 3]),
                                noise_seed=5)
        assert loss.item() == 0.0

    def test_loss_is_mse_of_denoiser_output(self, mp, world):
        targ = token_targets(world, world.images[:4])
        toks = backbone_forward(mp, np.random.default_rng(0).normal(size=(4, MCFG.h)))
        t = np.array([0, 2, 4, 7])
        loss = prior_train_step(mp, toks, targ, t, noise_seed=9)
        eps = seeds.rng(9, "prior-noise").normal(size=targ.shape)
        ab = mp.alpha_bar[t][:, None]
        x_t = np.sqrt(ab) * targ + np.sqrt(1 - ab) * eps
        pred = denoise(mp, x_t, t, toks).data
        assert loss.item() == pytest.approx(((pred - targ) ** 2).mean(), abs=1e-12)

    def test_untrained_zero_head_loss_near_variance(self, mp, world):
        # centered targets, zeroed head: loss equals the mean target second
        # moment, i.e. the per-element variance
        mp.params["prior.out.W"].data[:] = 0.0
        mp.params["prior.out.b"].data[:] = 0.0
        targ = token_targets(world, world.images[:16])
        targ = targ - targ.mean(axis=0, keepdims=True)
        toks = np.random.default_rng(0).normal(size=(16, WCFG.token_dim))
        loss = prior_train_step(mp, toks, targ, np.arange(16) % MCFG.t_steps,
                                noise_seed=3)
        assert loss.item() == pytest.approx(targ.var(), rel=0.10)

    def test_t_out_of_range(self, mp):
        toks = np.zeros((1, WCFG.n_tokens, WCFG.d_token))
        with pytest.raises(DataError):
            prior_train_step(mp, toks, toks, np.array([MCFG.t_steps]), noise_seed=0)

    def test_sampling_deterministic(self, mp):
        toks = np.random.default_rng(1).normal(size=(2, WCFG.n_tokens, WCFG.d_token))
        a = prior_sample(mp, toks, seed=11)
        b = prior_sample(mp, toks, seed=11)
        assert np.array_equal(a, b)
        assert a.shape == (2, WCFG.n_tokens, WCFG.d_token)
        c = prior_sample(mp, toks, seed=12)
        assert not np.array_equal(a, c)

    def test_single_step_is_one_denoiser_call(self, world):
        subs = {"a": 10}
        m = init_model(WCFG, ModelConfig(**{**MCFG.__dict__, "t_steps": 1}), subs, seed=2)
        toks = np.random.default_rng(1).normal(size=(2, WCFG.n_tokens, WCFG.d_token))
        out = prior_sample(m, toks, seed=4)
        noise = seeds.rng(4, "prior-sample").normal(size=(2, WCFG.token_dim))
        direct = denoise(m, noise, np.zeros(2, dtype=np.int64), toks).data
        np.testing.assert_allclose(out.reshape(2, -1), direct, atol=1e-12)


class TestHeads:
    def test_retrieval_unit_norm(self, mp):
        toks = np.random.default_rng(0).normal(size=(6, WCFG.n_tokens, WCFG.d_token))
        emb = retrieval_project(mp, toks)
        np.testing.assert_allclose(np.linalg.norm(emb.data, axis=1), 1.0, atol=1e-6)
        assert emb.shape == (6, MCFG.d_retr)

    def test_retrieval_degenerate_fallback(self, mp):
        _zero_all(mp)
        toks = np.zeros((3, WCFG.n_tokens, WCFG.d_token))
        emb, degen = retrieval_project(mp, toks, return_degenerate=True)
        assert degen.all()
        np.testing.assert_allclose(np.linalg.norm(emb.data, axis=1), 1.0, atol=1e-12)

    def test_default_retrieval_width(self):
        assert ModelConfig().d_retr == 64

    def test_lowlevel_shapes(self, mp):
        toks = np.random.default_rng(0).normal(size=(5, WCFG.n_tokens, WCFG.d_token))
        vae_pred, teacher_pred = lowlevel_forward(mp, toks)
        assert vae_pred.shape == (5, WCFG.vae_hw, WCFG.vae_hw, WCFG.vae_channels)
        assert teacher_pred.shape == (5, WCFG.d_teacher)

    def test_lowlevel_zero_weights(self, mp):
        _zero_all(mp)
        vae_pred, teacher_pred = lowlevel_forward(mp, np.ones((2, WCFG.token_dim)))
        assert np.abs(vae_pred.data).max() == 0.0
        assert np.abs(teacher_pred.data).max() == 0.0

    def test_upsampler_doubles_per_stage(self):
        # default config: 2 -> 4 -> 8 spatial, channels land on the latent's
        from mindalign.model import _ll_stage_channels
        chans = _ll_stage_channels(WorldConfig(), ModelConfig())
        assert len(chans) - 1 == 2
        assert chans[-1] == WorldConfig().vae_channels

    def test_converter_identity_square(self, world):
        cfg = ModelConfig(**{**MCFG.__dict__, "m_tokens": WCFG.n_tokens,
                             "d_token_b": WCFG.d_token})
        m = init_model(WCFG, cfg, {"a": 10}, seed=2)
        m.params["converter.token.W"].data[:] = np.eye(WCFG.n_tokens)
        m.params["converter.feat.W"].data[:] = np.eye(WCFG.d_token)
        m.params["converter.token.b"].data[:] = 0.0
        m.params["converter.feat.b"].data[:] = 0.0
        toks = np.random.default_rng(0).normal(size=(3, WCFG.n_tokens, WCFG.d_token))
        out = converter_forward(m, toks)
        np.testing.assert_array_equal(out.data, toks)

    def test_converter_zero_input(self, mp):
        out = converter_forward(mp, np.zeros((2, WCFG.n_tokens, WCFG.d_token)))
        assert np.abs(out.data).max() == 0.0  # biases are zero at init


class TestStructure:
    def test_parameter_count_matches_analytic(self, world, mp):
        subs = {sid: a.shape[0] for sid, a in world.subjects.items()}
        assert mp.parameter_count() == expected_parameter_count(WCFG, MCFG, subs)
        m2 = init_model(WCFG, ModelConfig(**{**MCFG.__dict__, "mlp_ridge": True}),
                        subs, seed=1)
        assert m2.parameter_count() == expected_parameter_count(
            WCFG, ModelConfig(**{**MCFG.__dict__, "mlp_ridge": True}), subs)

    @pytest.mark.parametrize("mlp_ridge", [False, True])
    def test_shape_table_matches_built_model(self, world, mlp_ridge):
        mcfg = ModelConfig(**{**MCFG.__dict__, "mlp_ridge": mlp_ridge})
        subs = {sid: a.shape[0] for sid, a in world.subjects.items()}
        m = init_model(WCFG, mcfg, subs, seed=1)
        assert [(k, p.shape) for k, p in m.params.items()] == list(
            parameter_shapes(WCFG, mcfg, subs).items())
        add_subject(m, "new", 33, seed=9)
        assert {k: p.shape for k, p in m.params.items()} == parameter_shapes(
            WCFG, mcfg, {**subs, "new": 33})

    def test_shared_weights_untouched_by_subject_forwards(self, mp):
        before = {k: mp.params[k].data.tobytes()
                  for k in mp.params if not k.startswith("ridge.")}
        for sid in list(mp.subjects)[:2]:
            vox = np.zeros((2, mp.subjects[sid]))
            backbone_forward(mp, ridge_forward(mp, sid, vox))
        after = {k: mp.params[k].data.tobytes()
                 for k in mp.params if not k.startswith("ridge.")}
        assert before == after

    def test_add_drop_subject(self, mp):
        add_subject(mp, "new", 33, seed=9)
        assert "ridge.new.W" in mp.params
        assert mp.params["ridge.new.W"].shape == (33, MCFG.h)
        with pytest.raises(DataError):
            add_subject(mp, "new", 33, seed=9)

    def test_every_head_gradchecks(self, mp, world):
        imgs = world.images[:3]
        targ = token_targets(world, imgs)
        vox = np.random.default_rng(1).normal(size=(3, mp.subjects["s1"]))

        def full(bd):
            toks = backbone_forward(mp, ridge_forward(mp, "s1", vox))
            pl = prior_train_step(mp, toks, targ, np.array([1, 3, 5]), noise_seed=3)
            vae_pred, teacher_pred = lowlevel_forward(mp, toks)
            ll = mse_loss(vae_pred, Tensor(np.zeros(vae_pred.shape)))
            tl = mse_loss(teacher_pred, Tensor(np.zeros(teacher_pred.shape)))
            emb = retrieval_project(mp, toks)
            rl = mse_loss(emb, Tensor(np.zeros(emb.shape)))
            cv = converter_forward(mp, toks)
            cl = mse_loss(cv, Tensor(np.zeros(cv.shape)))
            return add(add(add(add(pl, ll), rl), cl), tl)

        err = gradcheck(full, mp.params, coords_per_param=2, seed=0)
        assert err < 1e-4


class TestCheckpoint:
    def test_save_load_bit_exact(self, mp, tmp_path):
        mp.meta["pretrain_subjects"] = "s0,s1"
        p1 = tmp_path / "a.me2c"
        p2 = tmp_path / "b.me2c"
        save_checkpoint(mp, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_values_are_f32_exact(self, mp, tmp_path):
        save_checkpoint(mp, tmp_path / "c.me2c")
        loaded = load_checkpoint(tmp_path / "c.me2c")
        for name, p in mp.params.items():
            expect = p.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded.params[name].data, expect)

    def test_meta_and_config_preserved(self, mp, tmp_path):
        mp.meta["pretrain_subjects"] = "s0,s2"
        save_checkpoint(mp, tmp_path / "d.me2c")
        loaded = load_checkpoint(tmp_path / "d.me2c")
        assert loaded.mcfg == mp.mcfg
        assert loaded.world_cfg == mp.world_cfg
        assert loaded.subjects == mp.subjects
        assert loaded.meta["pretrain_subjects"] == "s0,s2"

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.me2c"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(bad)

    def test_unwritable_meta_rejected(self, mp, tmp_path):
        # a meta value that would not parse back is refused before any write
        mp.meta["note"] = "a # b"
        with pytest.raises(ConfigError):
            save_checkpoint(mp, tmp_path / "e.me2c")
        assert not (tmp_path / "e.me2c").exists()


class TestSubjectsFromRidge:
    """A model serves exactly the subjects whose ridge layers it holds."""

    @staticmethod
    def _check(model, want):
        ridge = {name[len("ridge."):-len(".W")]: p.shape[0] for name, p in model.params.items()
                 if name.startswith("ridge.") and name.endswith(".W")}
        assert model.subjects == ridge == want
        assert expected_parameter_count(model.world_cfg, model.mcfg,
                                        model.subjects) == model.parameter_count()

    @settings(max_examples=6)
    @given(drawn=st.dictionaries(st.sampled_from(["a", "b", "s3"]), st.integers(1, 30),
                                 min_size=1, max_size=3),
           mlp_ridge=st.booleans())
    def test_init_add_finetune_and_round_trip(self, tiny_world, tiny_datasets, drawn,
                                              mlp_ridge):
        ds = tiny_datasets["s3"]
        # a checkpoint that has s3 hands its ridge layer on to the fine-tune
        subjects = {sid: ds.n_voxels if sid == "s3" else n for sid, n in drawn.items()}
        mcfg = ModelConfig(**{**MCFG.__dict__, "mlp_ridge": mlp_ridge})
        mp = init_model(tiny_world.config, mcfg, subjects, seed=1)
        self._check(mp, subjects)
        add_subject(mp, "new", 7, seed=2)
        self._check(mp, {**subjects, "new": 7})
        models = [mp]
        for ridge_only in (False, True):
            ft, _ = finetune(mp, tiny_world, ds, 1, TrainConfig(
                epochs=1, batch_size=6, held_out_subject="s3",
                ridge_only_finetune=ridge_only))
            self._check(ft, {"s3": ds.n_voxels})
            models.append(ft)
        with tempfile.TemporaryDirectory() as tmp:
            for i, model in enumerate(models):
                save_checkpoint(model, Path(tmp) / f"{i}.me2c")
                self._check(load_checkpoint(Path(tmp) / f"{i}.me2c"), model.subjects)


class TestLayout:
    """The in-memory layout that keeps the BLAS calls, and so the bits, fixed."""

    @pytest.mark.parametrize("mlp_ridge", [False, True])
    def test_every_parameter_c_contiguous_with_table_shape(self, tiny_world, tiny_datasets,
                                                           tmp_path, mlp_ridge):
        # an F-ordered weight would silently pick other BLAS kernels
        mcfg = ModelConfig(**{**MCFG.__dict__, "mlp_ridge": mlp_ridge})
        wcfg = tiny_world.config
        subs = {"s0": 40, "s1": 50}
        m = init_model(wcfg, mcfg, subs, seed=1)
        add_subject(m, "s2", 33, seed=9)
        save_checkpoint(m, tmp_path / "m.me2c")
        loaded = load_checkpoint(tmp_path / "m.me2c")
        ft, _ = finetune(loaded, tiny_world, tiny_datasets["s3"], 1,
                         TrainConfig(epochs=1, batch_size=6, held_out_subject="s3"))
        for model, subjects in ((m, {**subs, "s2": 33}), (loaded, {**subs, "s2": 33}),
                                (ft, {"s3": tiny_datasets["s3"].n_voxels})):
            assert {k: p.shape for k, p in model.params.items()} == parameter_shapes(
                wcfg, mcfg, subjects)
            assert all(p.data.flags.c_contiguous for p in model.params.values())
        assert m.params["ridge.s0.W"].shape == (40, MCFG.h)
        assert m.params["backbone.to_tokens"].shape == (MCFG.h, wcfg.token_dim)
        assert m.params["prior.temb"].shape == (MCFG.t_steps, MCFG.d_temb)
        assert m.params["retrieval.target.W"].shape == (MCFG.d_retr, wcfg.token_dim)

    def test_checkpoint_holds_out_in(self, tmp_path):
        mcfg = ModelConfig(**{**MCFG.__dict__, "mlp_ridge": True})
        m = init_model(WCFG, mcfg, {"s0": 40}, seed=2)
        save_checkpoint(m, tmp_path / "a.me2c")
        _, arrays = read_arrays(tmp_path / "a.me2c")
        # the trainable linear weights; not the lookup table or the frozen map
        flipped = {n for n in arrays if n.endswith((".W", ".W2"))} | {"backbone.to_tokens"}
        flipped.discard("retrieval.target.W")
        assert {"ridge.s0.W2", "prior.res0.W", "converter.feat.W"} <= flipped
        for name, arr in arrays.items():
            mem = m.params[name].data
            np.testing.assert_array_equal(
                arr, (mem.T if name in flipped else mem).astype(np.float32), err_msg=name)
        save_checkpoint(load_checkpoint(tmp_path / "a.me2c"), tmp_path / "b.me2c")
        assert (tmp_path / "a.me2c").read_bytes() == (tmp_path / "b.me2c").read_bytes()

    def test_ridge_init_stream(self):
        # the [out, in] draw from the subject's own stream, held transposed
        n_vox, bound = 40, 1.0 / np.sqrt(40)
        m = init_model(WCFG, MCFG, {"s0": n_vox, "s1": 50}, seed=5)
        want = seeds.rng(5, "ridge", "s0").uniform(-bound, bound, size=(MCFG.h, n_vox))
        np.testing.assert_array_equal(m.params["ridge.s0.W"].data.T, want)
