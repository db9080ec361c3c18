"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria marked slow run full training loops; the whole module is the exit
gate and must stay green. Tolerances are pinned here, not tuned elsewhere.
"""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mindalign import seeds
from mindalign.cli import main
from mindalign.evaluate import (
    CORE_METRICS,
    EncodingModel,
    EvalConfig,
    blend_images,
    brain_correlation,
    evaluate_model,
    pixcorr,
    reconstruct,
    retrieval_eval,
    run_scaling,
    ssim,
    two_way_identification,
)
from mindalign.losses import (
    LossWeights,
    LowLevelTargets,
    lowlevel_loss,
    recompose_total,
    soft_clip_loss,
    total_loss,
)
from mindalign.model import (
    ModelConfig,
    backbone_forward,
    init_model,
    load_checkpoint,
    lowlevel_forward,
    prior_train_step,
    retrieval_project,
    ridge_forward,
    save_checkpoint,
    target_embed,
)
from mindalign.tensor import Tensor, gradcheck
from mindalign.train import TrainConfig, ablation_run, train_from_scratch
from mindalign.world import (
    WorldConfig,
    generate_dataset,
    generate_world,
    load_dataset_dir,
    normalize,
    save_dataset_dir,
    teacher_targets,
    token_targets,
    vae_targets,
)

from oracles import lowlevel_naive, pearson_naive, soft_clip_naive, ssim_naive

GRAD_WORLD = WorldConfig(image_hw=8, channels=3, n_tokens=8, d_token=32, vae_hw=4,
                         n_subjects=2, voxels_min=30, voxels_max=50, n_sessions=2,
                         trials_per_session=10, n_shared=16)
GRAD_MODEL = ModelConfig(h=32, t_steps=4, d_temb=8, d_cond=32, denoiser_hidden=48,
                         denoiser_blocks=1, retr_hidden=32, d_retr=8, ll_hidden=32,
                         ll_trunk=32, teacher_hidden=16, m_tokens=4, d_token_b=8)


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def _dirhash(p: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(Path(p).rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(p)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def test_criterion_1_gradient_integrity():
    """Full three-loss training graph vs central finite differences."""
    world = generate_world(GRAD_WORLD, seed=21)
    ds = normalize(generate_dataset(world, "s0", seed=3))
    vox = ds.train_voxels()[:4]
    imgs = world.images[ds.image_ids[ds.train_mask][:4]]
    tok_true = token_targets(world, imgs)
    vae_true = vae_targets(world, imgs).reshape(4, GRAD_WORLD.vae_hw,
                                                GRAD_WORLD.vae_hw,
                                                GRAD_WORLD.vae_channels)
    teach_true = teacher_targets(world, imgs)
    w = LossWeights()
    t_draw = np.array([0, 1, 2, 3])

    start = time.perf_counter()
    worst = 0.0
    for point in range(10):
        mp = init_model(GRAD_WORLD, GRAD_MODEL, {"s0": ds.n_voxels},
                        seed=500 + point)

        target_emb = Tensor(target_embed(mp, tok_true))

        def graph(_bindings):
            tokens = backbone_forward(mp, ridge_forward(mp, "s0", vox))
            prior_l = prior_train_step(mp, tokens, tok_true, t_draw,
                                       noise_seed=point)
            pred_emb = retrieval_project(mp, tokens)
            contr_l = soft_clip_loss(pred_emb, target_emb, 0.25)
            vae_pred, teacher_pred = lowlevel_forward(mp, tokens)
            low_l = lowlevel_loss(LowLevelTargets(vae_true, vae_pred,
                                                  teach_true, teacher_pred), 0.25)
            return total_loss(prior_l, contr_l, low_l, w)

        err = gradcheck(graph, mp.params, eps=1e-5,
                        coords_per_param=2, seed=point)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"
    _report(1, f"full-objective gradcheck max rel err {worst:.2e} "
               f"in {elapsed:.1f}s")


def test_criterion_2_loss_arithmetic(tiny_world, tiny_datasets, tiny_mcfg):
    """Exact objective coefficients and per-step log recomposition."""
    w = LossWeights()
    assert total_loss(1.0, 1.0, 1.0, w).item() == 1.049
    cfg = TrainConfig(epochs=2, batch_size=6, seed=4, held_out_subject="s3")
    _, log = train_from_scratch(tiny_world, tiny_datasets["s0"], 2, cfg, tiny_mcfg)
    assert log.rows
    for _, _, prior_l, contr_l, low_l, total in log.rows:
        assert total == recompose_total(prior_l, contr_l, low_l, w)
    _report(2, f"total_loss(1,1,1)=1.049 exactly; {len(log.rows)} logged steps "
               f"recompose bitwise")


@pytest.mark.slow
def test_criterion_3_chance_calibration():
    """Untrained models score at chance: 100 seeded trials, >=95% inside 3 sigma."""
    wcfg = replace(GRAD_WORLD, n_subjects=2)
    world = generate_world(wcfg, seed=42)
    mcfg = ModelConfig(h=64, t_steps=8, d_cond=64, denoiser_hidden=128,
                       retr_hidden=64, d_retr=16, ll_hidden=64, ll_trunk=64,
                       teacher_hidden=32, m_tokens=6, d_token_b=16)
    ds = normalize(generate_dataset(world, "s0", seed=5))
    test_vox = ds.shared_voxels()
    test_imgs = world.images[ds.image_ids[ds.is_shared]]
    n = test_vox.shape[0]
    chance = 1.0 / n
    sig_retr = np.sqrt(chance * (1 - chance) / n)
    sig_two = np.sqrt(1.0 / (12 * n))  # per-item scores are rank-uniform
    inside = {"image_retrieval": 0, "brain_retrieval": 0,
              "twoway_low": 0, "twoway_high": 0}
    trials = 100
    for trial in range(trials):
        mp = init_model(wcfg, mcfg, {"s0": ds.n_voxels}, seed=9000 + trial)
        emb = retrieval_project(mp, backbone_forward(
            mp, ridge_forward(mp, "s0", test_vox))).data
        temb = target_embed(mp, token_targets(world, test_imgs))
        res = retrieval_eval(emb, temb, pool_size=n, repetitions=5, seed=trial)
        recs = reconstruct(mp, world, test_vox, "s0", seed=trial)["final"]
        res["twoway_low"] = two_way_identification(recs, test_imgs, "lowlevel", world)
        res["twoway_high"] = two_way_identification(recs, test_imgs, "highlevel", world)
        for key, mu, sig in (("image_retrieval", chance, sig_retr),
                             ("brain_retrieval", chance, sig_retr),
                             ("twoway_low", 0.5, sig_two),
                             ("twoway_high", 0.5, sig_two)):
            inside[key] += abs(res[key] - mu) <= 3 * sig
    rates = {k: v / trials for k, v in inside.items()}
    for key, rate in rates.items():
        assert rate >= 0.95, f"{key}: only {rate:.0%} of runs inside 3 sigma"
    _report(3, "untrained-model chance calibration inside-3sigma rates: "
               + ", ".join(f"{k}={v:.2f}" for k, v in rates.items()))


@pytest.mark.slow
def test_criterion_4_learning_signal():
    """Default desk world, from-scratch run: retrieval >= 25x chance and
    two-way high-level >= 85% within the runtime budget.

    Thresholds were established by the reference run committed under
    reference/ (image_retrieval 0.66, twoway_high 0.998 on seed 3).
    """
    start = time.perf_counter()
    world = generate_world(WorldConfig(), seed=7)
    ds = normalize(generate_dataset(world, "s0", seed=11))
    cfg = TrainConfig(epochs=30, batch_size=12, seed=3, held_out_subject="s7")
    mp, _ = train_from_scratch(world, ds, 8, cfg, ModelConfig())
    report = evaluate_model(mp, world, ds, EvalConfig(pool_size=50, repetitions=30,
                                                      seed=0))
    elapsed = time.perf_counter() - start
    chance = 1.0 / 50
    assert report.metrics["image_retrieval"] >= 25 * chance, report.metrics
    assert report.metrics["twoway_high"] >= 0.85, report.metrics
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(4, f"image_retrieval={report.metrics['image_retrieval']:.2f} "
               f"(>=25x chance), twoway_high={report.metrics['twoway_high']:.3f}, "
               f"{elapsed:.0f}s")


SCALE_WORLD = WorldConfig(image_hw=12, channels=3, n_tokens=12, d_token=40, vae_hw=4,
                          n_subjects=4, voxels_min=90, voxels_max=130, n_sessions=8,
                          trials_per_session=25, n_shared=40)
SCALE_MODEL = ModelConfig(h=128, t_steps=16, d_cond=128, denoiser_hidden=256,
                          retr_hidden=128, d_retr=32, ll_hidden=128, ll_trunk=128,
                          teacher_hidden=48, m_tokens=8, d_token_b=24)


@pytest.mark.slow
def test_criterion_5_scaling_trend():
    """Fig.-4-style: normalized metric non-decreasing in sessions with at most
    one adjacent inversion per arm; pretraining strictly helps at k=1."""
    grid = (1, 2, 4, 8)
    arms = ("pretrained", "scratch")
    n_seeds = 5
    curves = {arm: np.zeros((n_seeds, len(grid))) for arm in arms}
    for s in range(n_seeds):
        world = generate_world(SCALE_WORLD, seed=100 + s)
        dsets = {sid: normalize(generate_dataset(world, sid, seed=1000 * s + i))
                 for i, sid in enumerate(world.subject_ids)}
        cfg = TrainConfig(epochs=20, batch_size=12, samples_per_subject_per_batch=4,
                          seed=5 + s, held_out_subject="s3")
        ecfg = EvalConfig(pool_size=40, repetitions=10, seed=s)
        result = run_scaling(world, dsets, "s3", grid, arms, cfg, SCALE_MODEL, ecfg)
        for arm in arms:
            for j, k in enumerate(grid):
                curves[arm][s, j] = result.normalized_mean(arm, k)
    for arm in arms:
        mean_curve = curves[arm].mean(axis=0)
        inversions = int(np.sum(np.diff(mean_curve) < 0))
        assert inversions <= 1, f"{arm}: curve {mean_curve} has {inversions} inversions"
    diffs = curves["pretrained"][:, 0] - curves["scratch"][:, 0]
    assert diffs.mean() > 0, f"k=1 benefit {diffs}"
    assert int(np.sum(diffs > 0)) >= 4, f"k=1 benefit sign pattern {diffs}"
    _report(5, f"pretrained curve {np.round(curves['pretrained'].mean(0), 3)}, "
               f"scratch curve {np.round(curves['scratch'].mean(0), 3)}, "
               f"k=1 benefit mean {diffs.mean():.3f} positive in "
               f"{int(np.sum(diffs > 0))}/5 seeds")


@pytest.mark.slow
def test_criterion_6_ablation_direction(tiny_world, tiny_datasets, tiny_mcfg):
    """Component ablations: retrieval degrades without the retrieval
    submodule, and a retrieval-only model has no reconstructions."""
    wins = 0
    for s in range(3):
        cfg = TrainConfig(epochs=10, batch_size=10, seed=50 + s,
                          held_out_subject="s3")
        ecfg = EvalConfig(pool_size=16, repetitions=10, seed=s)
        reports = ablation_run(tiny_world, tiny_datasets["s0"], 4, cfg, tiny_mcfg,
                               ecfg, variants=("Prior", "Ret", "All"))
        assert "pixcorr" not in reports["Ret"].metrics
        assert "image_retrieval" in reports["Ret"].metrics

        def retr(rep):
            return 0.5 * (rep.metrics["image_retrieval"]
                          + rep.metrics["brain_retrieval"])

        if retr(reports["All"]) > retr(reports["Prior"]):
            wins += 1
    assert wins >= 2, f"All beat Prior-only retrieval in {wins}/3 seeds"
    _report(6, f"All > Prior-only retrieval in {wins}/3 seeds; "
               f"Ret-only reports reconstruction metrics as absent")


def test_criterion_7_oracle_equivalence():
    """Four metrics match independent scalar-loop oracles on 20 seeded inputs."""
    worst = {"pixcorr": 0.0, "ssim": 0.0, "soft_clip": 0.0, "lowlevel": 0.0}
    for s in range(20):
        r = np.random.Generator(np.random.PCG64(7000 + s))
        a, b = r.random((12, 12, 3)), r.random((12, 12, 3))
        worst["pixcorr"] = max(worst["pixcorr"],
                               abs(pixcorr(a, b) - pearson_naive(a, b)))
        worst["ssim"] = max(worst["ssim"], abs(ssim(a, b) - ssim_naive(a, b)))
        p = r.normal(size=(4, 6))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        t = r.normal(size=(4, 6))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        worst["soft_clip"] = max(worst["soft_clip"],
                                 abs(soft_clip_loss(p, t, 0.3).item()
                                     - soft_clip_naive(p, t, 0.3)))
        vae_true = r.normal(size=(4, 3, 3, 2))
        vae_pred = vae_true + 0.3 * r.normal(size=vae_true.shape)
        te_true = r.normal(size=(4, 5))
        te_pred = te_true + 0.3 * r.normal(size=te_true.shape)
        ours = lowlevel_loss(LowLevelTargets(vae_true, Tensor(vae_pred),
                                             te_true, Tensor(te_pred)), 0.25).item()
        worst["lowlevel"] = max(worst["lowlevel"],
                                abs(ours - lowlevel_naive(vae_true, vae_pred,
                                                          te_true, te_pred, 0.25)))
    for name, err in worst.items():
        assert err < 1e-10, f"{name}: worst deviation {err:.2e}"
    _report(7, "oracle deviations: "
               + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_8_round_trips(tmp_path, tiny_world, tiny_datasets, tiny_mcfg):
    """Codec and serialization round trips."""
    from mindalign.world import decode_tokens, token_targets
    world = generate_world(WorldConfig(), seed=7)
    img = world.images[3]
    err = np.abs(decode_tokens(world, token_targets(world, img[None]))[0] - img).max()
    assert err < 1e-6

    mp = init_model(tiny_world.config, tiny_mcfg,
                    {"s0": tiny_datasets["s0"].n_voxels}, seed=1)
    p1, p2 = tmp_path / "a.me2c", tmp_path / "b.me2c"
    save_checkpoint(mp, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    save_dataset_dir(d1, tiny_world, tiny_datasets)
    w2, loaded = load_dataset_dir(d1, tiny_world.config)
    save_dataset_dir(d2, w2, loaded)
    assert _dirhash(d1) == _dirhash(d2)

    blend = blend_images(np.ones((4, 4, 3)), np.zeros((4, 4, 3)))
    assert np.array_equal(blend, np.full((4, 4, 3), 0.8))
    _report(8, f"decode(encode) max err {err:.1e}; checkpoint and dataset "
               f"round trips bit-exact; 4:1 blend of (1, 0) is uniform 0.8")


def test_criterion_9_brain_correlation_sanity():
    """Noiseless world, oracle encoder: truths score ~1; shuffles score ~0."""
    world = generate_world(WorldConfig(noise_sigma=0.0), seed=13)
    ds = normalize(generate_dataset(world, "s0", seed=5))
    enc = EncodingModel.oracle(world, "s0")
    imgs = world.images[ds.image_ids[ds.is_shared]]
    true_vox = ds.shared_voxels()
    scores = brain_correlation(imgs, true_vox, enc)
    for region, r in scores.items():
        assert r > 0.999, f"{region}: r={r}"
    n = imgs.shape[0]
    perm = np.random.Generator(np.random.PCG64(0)).permutation(n)
    while np.any(perm == np.arange(n)):
        perm = np.random.Generator(np.random.PCG64(perm[0] + 1)).permutation(n)
    shuffled = brain_correlation(imgs[perm], true_vox, enc)
    # voxel scores share one image permutation, so the worst-case std of the
    # mean is the single-voxel std 1/sqrt(n-1)
    bound = 3.0 / np.sqrt(n - 1)
    assert abs(shuffled["all"]) < bound, shuffled
    _report(9, f"oracle-encoder truth r={scores['all']:.6f} per region >0.999; "
               f"shuffled pairing r={shuffled['all']:+.3f} within ±{bound:.3f}")


@pytest.mark.slow
def test_criterion_10_cli_determinism(tmp_path):
    """Every command, re-run from its own config echo, reproduces outputs."""
    cfg_text = """\
seed = 11
world.image_hw = 8
world.n_tokens = 8
world.d_token = 32
world.vae_hw = 4
world.n_subjects = 3
world.voxels_min = 40
world.voxels_max = 80
world.n_sessions = 3
world.trials_per_session = 12
world.n_shared = 10
model.h = 32
model.t_steps = 4
model.d_temb = 8
model.d_cond = 32
model.denoiser_hidden = 64
model.denoiser_blocks = 1
model.retr_hidden = 32
model.d_retr = 8
model.ll_hidden = 32
model.ll_trunk = 32
model.teacher_hidden = 16
model.m_tokens = 4
model.d_token_b = 8
train.epochs = 2
train.batch_size = 6
train.samples_per_subject_per_batch = 3
train.held_out_subject = s2
train.n_finetune_sessions = 2
eval.pool_size = 10
eval.repetitions = 3
"""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", str(cfg), "--data", str(data),
                 "--out", str(pre)]) == 0

    reruns = {
        "gen-world": ["gen-world", "--config", str(cfg)],
        "gen-data": ["gen-data", "--config", str(cfg)],
        "pretrain": ["pretrain", "--config", str(cfg), "--data", str(data)],
        "finetune": ["finetune", "--config", str(cfg), "--data", str(data),
                     "--checkpoint", str(pre / "checkpoint.me2c"),
                     "--subject", "s2", "--sessions", "2"],
        "scratch": ["scratch", "--config", str(cfg), "--data", str(data),
                    "--subject", "s2", "--sessions", "2"],
        "scaling": ["scaling", "--config", str(cfg), "--data", str(data),
                    "--subject", "s2", "--sessions", "1,3",
                    "--arms", "scratch"],
        "ablate": ["ablate", "--config", str(cfg), "--data", str(data),
                   "--subject", "s2", "--sessions", "2",
                   "--variants", "Ret,All"],
    }
    checked = []
    for name, args in reruns.items():
        out1 = tmp_path / f"{name}-1"
        assert main(args + ["--out", str(out1)]) == 0, name
        # second run driven purely by the first run's config echo
        out2 = tmp_path / f"{name}-2"
        assert main([args[0], "--config", str(out1 / "config.txt"),
                     "--out", str(out2)]) == 0, name
        assert _dirhash(out1) == _dirhash(out2), f"{name} not reproducible"
        checked.append(name)
    ft = tmp_path / "finetune-1"
    ev1, ev2 = tmp_path / "ev-1", tmp_path / "ev-2"
    ev_args = ["eval", "--config", str(cfg), "--data", str(data),
               "--checkpoint", str(ft / "checkpoint.me2c"), "--subject", "s2"]
    assert main(ev_args + ["--out", str(ev1)]) == 0
    assert main(["eval", "--config", str(ev1 / "config.txt"),
                 "--out", str(ev2)]) == 0
    assert _dirhash(ev1) == _dirhash(ev2)
    checked.append("eval")
    _report(10, f"bit-exact echo reruns for: {', '.join(checked)}")
