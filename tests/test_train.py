"""Training protocols: batch composition, determinism, hygiene, ablations."""

import csv
import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mindalign import optim as optim_mod
from mindalign import seeds, workers
from mindalign import train as train_mod
from mindalign.errors import ConfigError, DataError, SubjectLeakError
from mindalign.losses import PHASE_BIMIXCO, recompose_total, total_loss
from mindalign.model import (
    ModelConfig,
    backbone_forward,
    converter_forward,
    init_model,
    prior_sample,
    prior_train_step,
    ridge_forward,
)
from mindalign.optim import AdamW
from mindalign.train import (
    ABLATION_VARIANTS,
    TrainConfig,
    ablation_run,
    finetune,
    pretrain,
    train_converter,
    train_from_scratch,
    variant_config,
)
from mindalign.world import (
    WorldConfig,
    generate_dataset,
    generate_world,
    normalize,
    secondary_token_encoder,
    token_targets,
)

from oracles import (batch_losses_two_pass, train_converter_stepping_after_backward,
                     train_loop_stepping_after_backward)

FAST = TrainConfig(epochs=2, batch_size=6, samples_per_subject_per_batch=3,
                   seed=3, held_out_subject="s3")


class TestPretrain:
    def test_equal_sampling_batch_composition(self, tiny_world, tiny_datasets,
                                              tiny_mcfg, monkeypatch):
        # every batch must contain exactly per-subject samples from each subject
        seen = []
        real = train_mod._batch_losses

        def spy(world, datasets, mp, cfg, phase, batch_rows, *rest):
            seen.append({sid: len(rows) for sid, rows in batch_rows.items()})
            return real(world, datasets, mp, cfg, phase, batch_rows, *rest)

        monkeypatch.setattr(train_mod, "_batch_losses", spy)
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        pretrain(tiny_world, pre, FAST, tiny_mcfg)
        assert seen
        for hist in seen:
            assert set(hist) == set(pre)
            assert set(hist.values()) == {FAST.samples_per_subject_per_batch}

    def test_paper_batch_arithmetic_seven_times_nine(self, monkeypatch):
        wcfg = WorldConfig(image_hw=4, channels=1, n_tokens=4, d_token=8, vae_hw=2,
                           n_subjects=8, voxels_min=10, voxels_max=30, n_sessions=1,
                           trials_per_session=9, n_shared=4)
        world = generate_world(wcfg, 1)
        mcfg = ModelConfig(h=8, t_steps=2, d_temb=4, d_cond=8, denoiser_hidden=8,
                           denoiser_blocks=1, retr_hidden=8, d_retr=4, ll_hidden=8,
                           ll_trunk=8, ll_seed_hw=1, ll_seed_channels=4,
                           teacher_hidden=4, m_tokens=2, d_token_b=4)
        datasets = {sid: normalize(generate_dataset(world, sid, seed=i))
                    for i, sid in enumerate(world.subject_ids[:7])}
        totals = []
        real = train_mod._batch_losses

        def spy(world_, datasets_, mp, cfg, phase, batch_rows, *rest):
            totals.append(sum(len(r) for r in batch_rows.values()))
            return real(world_, datasets_, mp, cfg, phase, batch_rows, *rest)

        monkeypatch.setattr(train_mod, "_batch_losses", spy)
        cfg = TrainConfig(epochs=1, samples_per_subject_per_batch=9, batch_size=9,
                          seed=0, held_out_subject="s7")
        pretrain(world, datasets, cfg, mcfg)
        assert totals == [63]

    def test_token_targets_per_batch(self, tiny_world, tiny_datasets, tiny_mcfg,
                                     monkeypatch):
        # each batch computes its own token targets, one product over its
        # images: no array of targets grows with the dataset
        rows = []
        real = train_mod.token_targets

        def counting(world, images):
            rows.append(images.shape[0])
            return real(world, images)

        monkeypatch.setattr(train_mod, "token_targets", counting)
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        _, log = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        assert len(log.rows) > 1
        assert rows == [len(pre) * FAST.samples_per_subject_per_batch] * len(log.rows)

    def test_mixco_draws_per_subject_stream_one_row_each(self, tiny_world, tiny_datasets,
                                                          tiny_mcfg):
        # one row per subject: each sub-batch mixes with itself; the batch of
        # 3 is what the contrastive loss checks
        vox = {sid: tiny_datasets[sid].voxels[:1] for sid in ("s0", "s1", "s2")}
        mixed, mix = train_mod._mixco_per_subject(vox, sorted(vox), FAST, 5, 2)
        for i, sid in enumerate(sorted(vox)):
            r = seeds.rng(5, "mixco", 2, sid)
            lam = r.beta(FAST.mixco_beta_a, FAST.mixco_beta_b, size=1)
            assert r.permutation(1).tolist() == [0] and mix.perm[i] == i
            assert mix.lam[i] == lam[0]
            np.testing.assert_array_equal(
                mixed[sid], lam[:, None] * vox[sid] + (1.0 - lam[:, None]) * vox[sid])
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        cfg = TrainConfig(epochs=1, samples_per_subject_per_batch=1, batch_size=6,
                          seed=3, held_out_subject="s3")
        _, log = pretrain(tiny_world, pre, cfg, tiny_mcfg)
        assert log.rows[0][1] == "bimixco"

    def test_seeded_rerun_bit_identical(self, tiny_world, tiny_datasets, tiny_mcfg):
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        _, log1 = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        _, log2 = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        assert log1.rows == log2.rows

    def test_rejects_empty_and_unnormalized(self, tiny_world, tiny_datasets, tiny_mcfg):
        with pytest.raises(DataError):
            pretrain(tiny_world, {}, FAST, tiny_mcfg)
        raw = generate_dataset(tiny_world, "s0", seed=0)
        with pytest.raises(DataError):
            pretrain(tiny_world, {"s0": raw}, FAST, tiny_mcfg)

    def test_rejects_held_out_in_pretraining(self, tiny_world, tiny_datasets, tiny_mcfg):
        with pytest.raises(SubjectLeakError):
            pretrain(tiny_world, dict(tiny_datasets), FAST, tiny_mcfg)

    def test_one_row_batch_is_refused_before_a_model_is_built(
            self, tiny_world, tiny_datasets, tiny_mcfg, monkeypatch):
        # one subject at one sample per subject gives one-row batches, and
        # a contrastive loss needs two rows
        built = []
        real = train_mod._fresh_model
        monkeypatch.setattr(train_mod, "_fresh_model",
                            lambda *a: built.append(1) or real(*a))
        one = {"s0": tiny_datasets["s0"]}
        cfg = replace(FAST, samples_per_subject_per_batch=1)
        for flags in ({}, {"use_retrieval": False}, {"use_lowlevel": False}):
            with pytest.raises(ConfigError, match=r"^a pretraining batch of 1 subject\(s\) "
                                                  r"x 1 sample\(s\) per subject has 1 row;"):
                pretrain(tiny_world, one, replace(cfg, **flags), tiny_mcfg)
        assert not built
        # the prior alone trains on one row
        pretrain(tiny_world, one, replace(cfg, epochs=1, use_retrieval=False,
                                          use_lowlevel=False), tiny_mcfg)
        assert built

    def test_log_recomposition_exact(self, tiny_world, tiny_datasets, tiny_mcfg):
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        _, log = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        w = FAST.weights
        for _, _, prior_l, contr_l, low_l, total in log.rows:
            assert total == recompose_total(prior_l, contr_l, low_l, w)

    def test_log_length(self, tiny_world, tiny_datasets, tiny_mcfg):
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        _, log = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        iters_per_epoch = 80 // FAST.samples_per_subject_per_batch
        assert len(log.rows) == FAST.epochs * iters_per_epoch


class TestFinetune:
    def _checkpoint(self, tiny_world, tiny_datasets, tiny_mcfg):
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        mp, _ = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        return mp

    def test_subject_leak_is_hard_error(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        with pytest.raises(SubjectLeakError):
            finetune(mp, tiny_world, tiny_datasets["s0"], 1, FAST)

    def test_k_exceeding_sessions_rejected(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        with pytest.raises(DataError):
            finetune(mp, tiny_world, tiny_datasets["s3"], 99, FAST)

    def test_k1_uses_exactly_one_session_of_trials(self, tiny_world, tiny_datasets,
                                                   tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        _, log = finetune(mp, tiny_world, tiny_datasets["s3"], 1, FAST)
        used_rows = {row for sid, row in log.used_trials if sid == "s3"}
        ds = tiny_datasets["s3"].restrict_sessions(1)
        assert used_rows <= set(np.flatnonzero(ds.train_mask))
        assert len(used_rows) <= tiny_world.config.trials_per_session

    def test_shared_test_never_trained_on(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        _, log = finetune(mp, tiny_world, tiny_datasets["s3"], 4, FAST)
        ds = tiny_datasets["s3"].restrict_sessions(4)
        shared_rows = set(np.flatnonzero(ds.is_shared))
        used = {row for sid, row in log.used_trials if sid == "s3"}
        assert not used & shared_rows

    def test_chronology_prefix(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        k = 2
        _, log = finetune(mp, tiny_world, tiny_datasets["s3"], k, FAST)
        restricted = tiny_datasets["s3"].restrict_sessions(k)
        used = {row for _, row in log.used_trials}
        allowed = set(np.flatnonzero(restricted.session_index < k))
        assert used <= allowed

    def test_fresh_ridge_and_drop_others(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        mpf, _ = finetune(mp, tiny_world, tiny_datasets["s3"], 2, FAST)
        assert list(mpf.subjects) == ["s3"]
        assert "ridge.s3.W" in mpf.params
        assert not any(k.startswith("ridge.s0.") for k in mpf.params)

    def test_ridge_only_flag_freezes_shared(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        shared_before = {k: mp.params[k].data.copy()
                         for k in mp.params if not k.startswith("ridge.")}
        cfg = TrainConfig(**{**FAST.__dict__, "ridge_only_finetune": True})
        mpf, _ = finetune(mp, tiny_world, tiny_datasets["s3"], 2, cfg)
        for k, v in shared_before.items():
            np.testing.assert_array_equal(mpf.params[k].data, v)

    @pytest.mark.parametrize("ridge_only", [False, True])
    def test_checkpoint_left_unchanged(self, tiny_world, tiny_datasets, tiny_mcfg,
                                       ridge_only):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)

        def snapshot(m):
            return (list(m.params), dict(m.subjects), dict(m.meta),
                    {k: (v.data.tobytes(), None if v.grad is None else v.grad.tobytes())
                     for k, v in m.params.items()})

        before = snapshot(mp)
        cfg = TrainConfig(**{**FAST.__dict__, "ridge_only_finetune": ridge_only})
        mpf, _ = finetune(mp, tiny_world, tiny_datasets["s3"], 2, cfg)
        assert mpf is not mp
        assert snapshot(mp) == before
        assert not any(mpf.params[k] is v for k, v in mp.params.items() if k in mpf.params)
        if ridge_only:
            assert all(mpf.params[k].grad is None and not mpf.params[k].requires_grad
                       for k in mpf.params if not k.startswith("ridge."))

    def test_ridge_only_result_still_trains_converter(self, tiny_world, tiny_datasets,
                                                      tiny_mcfg):
        mp = self._checkpoint(tiny_world, tiny_datasets, tiny_mcfg)
        cfg = TrainConfig(**{**FAST.__dict__, "ridge_only_finetune": True})
        mpf, _ = finetune(mp, tiny_world, tiny_datasets["s3"], 1, cfg)
        enc_b = secondary_token_encoder(tiny_world, tiny_mcfg.m_tokens,
                                        tiny_mcfg.d_token_b, seed=9)
        before = mpf.params["converter.feat.W"].data.copy()
        train_converter(mpf, tiny_world, enc_b, tiny_world.images[:32], epochs=2, seed=4)
        assert not np.array_equal(mpf.params["converter.feat.W"].data, before)

    def test_scratch_equals_finetune_from_same_weights(self, tiny_world,
                                                       tiny_datasets, tiny_mcfg):
        # the two entry points share one loop: identical starting weights and
        # seed produce identical trajectories
        ds = tiny_datasets["s3"]
        mp_s, log_s = train_from_scratch(tiny_world, ds, 2, FAST, tiny_mcfg)
        ckpt = init_model(tiny_world.config, tiny_mcfg,
                          {"s3": ds.n_voxels}, seed=seeds.derive(FAST.seed, "init"))
        ckpt.meta["pretrain_subjects"] = ""
        _, log_f = finetune(ckpt, tiny_world, ds, 2, FAST)
        assert log_s.rows == log_f.rows


class TestScratch:
    def test_deterministic(self, tiny_world, tiny_datasets, tiny_mcfg):
        _, a = train_from_scratch(tiny_world, tiny_datasets["s0"], 2, FAST, tiny_mcfg)
        _, b = train_from_scratch(tiny_world, tiny_datasets["s0"], 2, FAST, tiny_mcfg)
        assert a.rows == b.rows

    def test_all_objectives_off_rejected(self):
        cfg = TrainConfig(use_prior=False, use_retrieval=False, use_lowlevel=False)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("key, value", [
        ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
        ("lr", float("-inf")), ("ridge_weight_decay", -1e-2),
        ("ridge_weight_decay", float("nan")), ("ridge_weight_decay", float("inf"))])
    def test_bad_lr_or_decay_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"train.{key}"):
            TrainConfig(**{key: value}).validate()

    @pytest.mark.slow
    def test_single_session_desk_run_under_60s(self):
        import time
        world = generate_world(WorldConfig(), seed=7)
        ds = normalize(generate_dataset(world, "s0", seed=11))
        cfg = TrainConfig(epochs=30, batch_size=12, seed=3, held_out_subject="s7")
        t0 = time.perf_counter()
        train_from_scratch(world, ds, 1, cfg, ModelConfig())
        assert time.perf_counter() - t0 < 60.0


class TestAblation:
    def test_variant_flags(self):
        assert variant_config(FAST, "All").use_prior
        assert variant_config(FAST, "All").use_retrieval
        assert variant_config(FAST, "All").use_lowlevel
        ret = variant_config(FAST, "Ret")
        assert not ret.use_prior and ret.use_retrieval and not ret.use_lowlevel
        assert variant_config(FAST, "ridge-vs-MLP").mlp_dropout_ridge

    def test_table5_variant_set_size(self):
        assert len([v for v in ABLATION_VARIANTS if v != "ridge-vs-MLP"]) == 6

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            variant_config(FAST, "Everything")

    def test_bad_variant_refused_before_any_training(self, tiny_world, tiny_datasets,
                                                     tiny_mcfg, monkeypatch):
        from mindalign.evaluate import EvalConfig
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("trained before the sweep was checked")

        monkeypatch.setattr(train_mod, "train_from_scratch", counting)
        with pytest.raises(ConfigError, match="Bogus"):
            ablation_run(tiny_world, tiny_datasets["s0"], 2, FAST, tiny_mcfg,
                         EvalConfig(pool_size=16, repetitions=3),
                         variants=("Prior", "All", "Bogus"))
        assert calls == []

    def test_repeated_variant_trains_once(self, tiny_world, tiny_datasets, tiny_mcfg,
                                          monkeypatch):
        from mindalign import evaluate as evaluate_mod
        from mindalign.evaluate import EvalConfig
        trained = []

        def counting(world, dataset, k, cfg, mcfg):
            trained.append(cfg)
            return len(trained), None

        monkeypatch.setattr(train_mod, "train_from_scratch", counting)
        monkeypatch.setattr(evaluate_mod, "evaluate_model",
                            lambda mp, *args, **kwargs: f"report of model {mp}")
        reports = ablation_run(tiny_world, tiny_datasets["s0"], 2, FAST, tiny_mcfg,
                               EvalConfig(pool_size=16, repetitions=3),
                               variants=("All", "Prior", "All", "Prior", "All"))
        assert trained == [variant_config(FAST, "All"), variant_config(FAST, "Prior")]
        assert reports == {"All": "report of model 1", "Prior": "report of model 2"}

    @pytest.mark.slow
    def test_ret_only_has_no_reconstruction_metrics(self, tiny_world, tiny_datasets,
                                                    tiny_mcfg):
        from mindalign.evaluate import EvalConfig
        ecfg = EvalConfig(pool_size=16, repetitions=3, seed=0)
        reports = ablation_run(tiny_world, tiny_datasets["s0"], 2, FAST, tiny_mcfg,
                               ecfg, variants=("Ret", "All"))
        assert "pixcorr" not in reports["Ret"].metrics
        assert "image_retrieval" in reports["Ret"].metrics
        assert "pixcorr" in reports["All"].metrics

    @pytest.mark.slow
    def test_mlp_dropout_variant_runs(self, tiny_world, tiny_datasets, tiny_mcfg):
        cfg = variant_config(FAST, "ridge-vs-MLP")
        mp, log = train_from_scratch(tiny_world, tiny_datasets["s0"], 2, cfg, tiny_mcfg)
        assert mp.mcfg.mlp_ridge
        assert "ridge.s0.W2" in mp.params
        assert np.isfinite(log.final_total())


class TestConverter:
    @pytest.mark.slow
    def test_trained_converter_generalizes(self, tiny_world, tiny_mcfg):
        # held-out pairs from a second frozen encoder; the factorized map is
        # realizable, so the trained converter must explain >95% of variance
        mp = init_model(tiny_world.config, tiny_mcfg, {"a": 10}, seed=1)
        enc_b = secondary_token_encoder(tiny_world, tiny_mcfg.m_tokens,
                                        tiny_mcfg.d_token_b, seed=9)
        train_imgs = tiny_world.images[:100]
        test_imgs = tiny_world.images[100:140]
        train_converter(mp, tiny_world, enc_b, train_imgs, seed=4)
        tok_a = token_targets(tiny_world, test_imgs).reshape(
            40, tiny_world.config.n_tokens, tiny_world.config.d_token)
        tok_b = enc_b.encode_batch(tiny_world, test_imgs)
        pred = converter_forward(mp, tok_a).data
        mse = ((pred - tok_b) ** 2).mean()
        assert mse < 0.05 * tok_b.var()


class TestPriorLearning:
    @pytest.mark.slow
    def test_identity_task_sampling_quality(self, tiny_world, tiny_mcfg):
        # conditioning equal to the target: after training, samples must land
        # within 10% of the target variance in MSE
        mp = init_model(tiny_world.config, tiny_mcfg, {"a": 10}, seed=2)
        imgs = tiny_world.images[:120]
        targets = token_targets(tiny_world, imgs)
        prior_params = {k: v for k, v in mp.params.items() if k.startswith("prior.")}
        opt = AdamW(prior_params, lr=2e-3)
        rng = seeds.rng(0, "identity-task")
        n, bs = targets.shape[0], 16
        for it in range(400):
            rows = rng.choice(n, size=bs, replace=False)
            t_draw = rng.integers(0, mp.mcfg.t_steps, size=bs)
            loss = prior_train_step(mp, targets[rows], targets[rows], t_draw,
                                    noise_seed=seeds.derive(1, "noise", it))
            opt.zero_grad()
            loss.backward()
            opt.step()
        test = targets[100:120]
        samples = prior_sample(mp, test, seed=5).reshape(20, -1)
        mse = ((samples - test) ** 2).mean()
        assert mse < 0.1 * test.var()


def test_trainlog_csv_roundtrip(tmp_path, tiny_world, tiny_datasets, tiny_mcfg):
    _, log = train_from_scratch(tiny_world, tiny_datasets["s0"], 1, FAST, tiny_mcfg)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "phase", "prior_l", "contrastive_l",
                       "lowlevel_l", "total"]
    assert len(rows) - 1 == len(log.rows)
    # repr round-trip keeps every loss exact
    for logged, parsed in zip(log.rows, rows[1:]):
        assert (int(parsed[0]), parsed[1], *map(float, parsed[2:])) == logged


@pytest.mark.parametrize("ridge_only", [False, True], ids=["all", "ridge-only"])
def test_stepping_inside_backward_equals_stepping_after_it(tiny_world, tiny_datasets,
                                                           tiny_mcfg, monkeypatch,
                                                           ridge_only):
    # 2 epochs of 3 batches of 6 from one session: iterations 0-1 are
    # BiMixCo, one stacked pass over clean and mixed rows, and 2-5
    # SoftCLIP, so t runs 1..6 over both phases. Subject s2 has a ridge layer
    # but no data: its weight decays every step without a gradient.
    datasets = {"s3": tiny_datasets["s3"].restrict_sessions(1)}
    subjects = {"s3": datasets["s3"].n_voxels, "s2": tiny_datasets["s2"].n_voxels}
    models = [init_model(tiny_world.config, tiny_mcfg, subjects, seed=11) for _ in "ab"]
    for mp in models:
        for name, p in mp.params.items():
            p.requires_grad = p.requires_grad and (name.startswith("ridge.")
                                                   or not ridge_only)
    made = []

    class Recorded(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.held_at_step = []
            made.append(self)

        def step(self):
            self.held_at_step.append([k for k, p in self.params.items()
                                      if p.grad is not None])
            super().step()

    monkeypatch.setattr(train_mod, "AdamW", Recorded)
    cfg = replace(FAST, ridge_weight_decay=0.3)
    master = seeds.derive(cfg.seed, "finetune")
    train_mod._train_loop(tiny_world, datasets, models[0], cfg, 6, master)
    m, v = train_loop_stepping_after_backward(tiny_world, datasets, models[1], cfg, 6,
                                              master)
    (opt,) = made
    assert opt.step_count == 6
    # every gradient was consumed inside backward
    assert opt.held_at_step == [[]] * 6
    assert sorted(opt.m) == sorted(m) and "ridge.s3.W" in m
    # without a gradient, yet decayed: s2's ridge weight
    assert "ridge.s2.W" in set(opt.params) - set(m)
    for name, p in models[0].params.items():
        assert p.data.tobytes() == models[1].params[name].data.tobytes(), name
    for name in m:
        assert opt.m[name].tobytes() == m[name].tobytes(), name
        assert opt.v[name].tobytes() == v[name].tobytes(), name


def _consuming_slots(out):
    """Id of each tensor in ``out``'s graph -> the parent slots it fills."""
    slots, seen, stack = {}, set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                slots[id(p)] = slots.get(id(p), 0) + 1
                stack.append(p)
    return slots


@pytest.mark.parametrize("subjects", [("s0", "s1", "s2"), ("s3",)],
                         ids=["three-subjects", "one-subject"])
@pytest.mark.parametrize("variant", ["All", "Ret", "ridge-vs-MLP"])
def test_stacked_bimixco_pass_equals_two_passes(tiny_world, tiny_datasets, tiny_mcfg,
                                                variant, subjects, monkeypatch):
    # one ridge+backbone pass over the clean rows stacked on the mixed rows
    # gives the two-pass losses and gradients to rounding: each trunk weight
    # gradient is one product over 2B rows instead of two summed
    cfg = variant_config(FAST, variant)
    mcfg = replace(tiny_mcfg, mlp_ridge=cfg.mlp_dropout_ridge)
    datasets = {sid: tiny_datasets[sid] for sid in subjects}
    rng = np.random.default_rng(4)
    rows = {sid: rng.choice(np.flatnonzero(ds.train_mask), 4, replace=False)
            for sid, ds in datasets.items()}
    mp = init_model(tiny_world.config, mcfg,
                    {sid: ds.n_voxels for sid, ds in datasets.items()}, seed=6)
    trunk = {k: p for k, p in mp.params.items() if k.startswith(("ridge.", "backbone."))}
    ridge_rows, ridge_forward = [], train_mod.ridge_forward
    monkeypatch.setattr(train_mod, "ridge_forward", lambda mp, sid, x, mask: (
        ridge_rows.append(x.shape[0]) or ridge_forward(mp, sid, x, mask)))
    results, uses = [], []
    for batch_losses in (train_mod._batch_losses, batch_losses_two_pass):
        parts = batch_losses(tiny_world, datasets, mp, cfg, PHASE_BIMIXCO, rows, 9, 2)
        total = total_loss(*parts, cfg.weights)
        uses.append({_consuming_slots(total).get(id(p), 0) for p in trunk.values()})
        total.backward()
        results.append(([p.item() for p in parts],
                        {k: p.grad for k, p in mp.params.items() if p.grad is not None}))
        for p in mp.params.values():
            p.grad = None
    # one consuming node per trunk parameter, so its gradient is final at
    # once; two passes use it twice unless no loss reads the clean tokens,
    # and then the clean rows do not run at all
    stacked = cfg.use_prior or cfg.use_lowlevel
    assert uses == [{1}, {2 if stacked else 1}]
    assert ridge_rows == [8 if stacked else 4] * len(subjects)
    (parts, grads), (want_parts, want_grads) = results
    assert parts[1] != 0.0 and (parts[0] != 0.0) == cfg.use_prior
    np.testing.assert_allclose(parts, want_parts, rtol=1e-12, atol=0)
    assert sorted(grads) == sorted(want_grads)
    assert {f"ridge.{sid}.W" for sid in subjects} | {"backbone.to_tokens"} <= set(grads)
    assert ("ridge.s0.W2" in grads or "ridge.s3.W2" in grads) == cfg.mlp_dropout_ridge
    # relative to each entry, or to the gradient's largest entry where a sum
    # of opposite terms leaves an entry far smaller
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)
    if not stacked:
        # the mixed rows alone: the two-pass form's mixed pass, bit for bit
        assert parts == want_parts
        for name, want in want_grads.items():
            assert grads[name].tobytes() == want.tobytes(), name


def test_converter_stepping_inside_backward_equals_stepping_after_it(tiny_world,
                                                                     tiny_mcfg,
                                                                     monkeypatch):
    # 2 epochs of 2 batches of 16: t runs 1..4
    models = [init_model(tiny_world.config, tiny_mcfg, {"a": 10}, seed=1) for _ in "ab"]
    enc_b = secondary_token_encoder(tiny_world, tiny_mcfg.m_tokens, tiny_mcfg.d_token_b,
                                    seed=9)
    images = tiny_world.images[:32]
    made = []

    class Recorded(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_mod, "AdamW", Recorded)
    train_converter(models[0], tiny_world, enc_b, images, epochs=2, lr=1e-2, seed=4)
    m, v = train_converter_stepping_after_backward(models[1], tiny_world, enc_b, images,
                                                   epochs=2, batch_size=16, lr=1e-2,
                                                   seed=4)
    (opt,) = made
    assert opt.step_count == 4
    assert sorted(opt.m) == sorted(m) == sorted(k for k in models[0].params
                                                if k.startswith("converter."))
    for name, p in models[0].params.items():
        assert p.data.tobytes() == models[1].params[name].data.tobytes(), name
    for name in m:
        assert opt.m[name].tobytes() == m[name].tobytes(), name
        assert opt.v[name].tobytes() == v[name].tobytes(), name


def test_every_protocol_steps_its_gradients_inside_backward(tiny_world, tiny_datasets,
                                                            tiny_mcfg, monkeypatch):
    # `AdamW.step` only closes a step: it never finds a gradient left to
    # update, so no training loop has a gradient to clear
    from mindalign.evaluate import EvalConfig
    real_step = AdamW.step
    steps, held = [], []

    def step(opt):
        steps.append(opt)
        held.extend(name for name, p in opt.params.items() if p.grad is not None)
        real_step(opt)

    monkeypatch.setattr(AdamW, "step", step)
    # one slot, so that the ablation's steps are all recorded in this process
    monkeypatch.setattr(workers, "slot_count", lambda n_jobs: 1)
    seen = {}

    def run(protocol, call):
        steps.clear()
        held.clear()
        result = call()
        seen[protocol] = (len(steps), list(held))
        return result

    pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
    ds = tiny_datasets["s3"]
    ckpt, _ = run("pretrain", lambda: pretrain(tiny_world, pre, FAST, tiny_mcfg))
    for ridge_only in (False, True):
        cfg = replace(FAST, ridge_only_finetune=ridge_only)
        run(f"finetune ridge_only={ridge_only}",
            lambda: finetune(ckpt, tiny_world, ds, 1, cfg))
    mp, _ = run("scratch", lambda: train_from_scratch(tiny_world, ds, 1, FAST, tiny_mcfg))
    run("ablation", lambda: ablation_run(tiny_world, ds, 1, FAST, tiny_mcfg,
                                         EvalConfig(pool_size=16, repetitions=3),
                                         variants=("Ret", "ridge-vs-MLP")))
    enc_b = secondary_token_encoder(tiny_world, tiny_mcfg.m_tokens, tiny_mcfg.d_token_b,
                                    seed=9)
    run("converter", lambda: train_converter(mp, tiny_world, enc_b,
                                             tiny_world.images[:32], epochs=2, seed=4))
    assert len(seen) == 6 and all(n > 0 for n, _ in seen.values()), seen
    assert {protocol: names for protocol, (_, names) in seen.items() if names} == {}


class TestMemory:
    """Training and sampling graphs are acyclic and hold no weight copies."""

    def test_training_leaves_no_cyclic_garbage(self, tiny_world, tiny_datasets, tiny_mcfg):
        gc.collect()
        gc.disable()
        try:
            train_from_scratch(tiny_world, tiny_datasets["s3"], 1, FAST, tiny_mcfg)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_trained_models_hold_no_gradients(self, tiny_world, tiny_datasets, tiny_mcfg):
        pre = {sid: ds for sid, ds in tiny_datasets.items() if sid != "s3"}
        mp, _ = pretrain(tiny_world, pre, FAST, tiny_mcfg)
        models = {"pretrain": mp}
        for ridge_only in (False, True):
            cfg = replace(FAST, ridge_only_finetune=ridge_only)
            models[f"finetune ridge_only={ridge_only}"], _ = finetune(
                mp, tiny_world, tiny_datasets["s3"], 1, cfg)
        models["scratch"], _ = train_from_scratch(tiny_world, tiny_datasets["s3"], 1,
                                                  FAST, tiny_mcfg)
        enc_b = secondary_token_encoder(tiny_world, tiny_mcfg.m_tokens,
                                        tiny_mcfg.d_token_b, seed=9)
        train_converter(models["scratch"], tiny_world, enc_b, tiny_world.images[:32],
                        epochs=1, seed=4)
        for name, m in models.items():
            assert [k for k, p in m.params.items() if p.grad is not None] == [], name

    def test_trained_model_holds_little_beyond_its_weights(self, tiny_world,
                                                          tiny_datasets, tiny_mcfg):
        # weights, gradients and both moments live during training; only the
        # weights outlive it (stale gradients alone would add one more copy)
        tracemalloc.start()
        try:
            mp, log = train_from_scratch(tiny_world, tiny_datasets["s3"], 1, FAST,
                                         tiny_mcfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        weights = sum(p.data.nbytes for p in mp.params.values())
        assert held < 1.5 * weights

    def test_pretrain_step_holds_weights_moments_one_gradient_and_one_batch(
            self, tiny_world, tiny_mcfg):
        # A pretraining step holds the weights, AdamW's two moments and two
        # scratch blocks, at most one parameter gradient, and one batch: its
        # token targets and its graph, about 24 float64 values per row per
        # token dimension on this narrow model. The slack allows 40. At 80
        # trials a session, token targets for the whole dataset, or only for
        # its 2 further sessions, would be larger than the slack.
        world = generate_world(replace(tiny_world.config, trials_per_session=80), seed=7)
        datasets = {sid: normalize(generate_dataset(world, sid, seed=i))
                    for i, sid in enumerate(world.subject_ids[:3])}
        mcfg = replace(tiny_mcfg, h=16, n_blocks=1, d_temb=8, d_cond=16, denoiser_hidden=32,
                       denoiser_blocks=1, retr_hidden=16, d_retr=8, ll_hidden=16,
                       ll_trunk=16, ll_seed_channels=8, teacher_hidden=8)
        cfg = TrainConfig(epochs=1, samples_per_subject_per_batch=3, seed=3,
                          held_out_subject="s3")
        token_bytes = world.config.token_dim * 8
        slack = len(datasets) * cfg.samples_per_subject_per_batch * 40 * token_bytes
        assert 2 * 80 * len(datasets) * token_bytes > slack
        scratch = 2 * optim_mod._BLOCK * 8
        held = {}
        for k in (2, 4):
            restricted = {sid: ds.restrict_sessions(k) for sid, ds in datasets.items()}
            tracemalloc.start()
            try:
                mp, _ = pretrain(world, restricted, cfg, mcfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            weights = sum(p.data.nbytes for p in mp.params.values())
            largest = max(p.data.nbytes for p in mp.params.values())
            held[k] = peak - weights
            assert held[k] <= 2 * weights + largest + scratch + slack, k
        # the training log's audit trail grows by about 100 B a trial
        assert abs(held[4] - held[2]) <= slack

    def test_prior_sample_peak_below_prior_weights(self, tiny_world, tiny_mcfg):
        mp = init_model(tiny_world.config, tiny_mcfg, {"a": 10}, seed=1)
        toks = backbone_forward(mp, ridge_forward(
            mp, "a", np.random.default_rng(0).normal(size=(16, 10)))).data
        prior_bytes = sum(p.data.nbytes for k, p in mp.params.items()
                          if k.startswith("prior."))
        tracemalloc.start()
        try:
            prior_sample(mp, toks, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prior_bytes
