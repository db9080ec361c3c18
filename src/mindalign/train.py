"""Training protocols: multi-subject pretraining, few-session fine-tuning,
from-scratch baselines, and the component-ablation harness.

Pretraining composes every batch from an equal number of trials per subject;
all subjects share every weight except their own ridge layer. Fine-tuning
initializes a fresh ridge layer for the held-out subject, restricts that
subject's data to its first k sessions, and continues training end to end.
The shared test split never contributes a gradient step; an audit trail of
consumed trial ids is kept on the log to make that checkable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeds
from .errors import ConfigError, DataError, SubjectLeakError
from .losses import (
    PHASE_BIMIXCO,
    LossWeights,
    MixCoBatch,
    bimixco_loss,
    loss_phase,
    lowlevel_loss,
    LowLevelTargets,
    mixco_augment,
    soft_clip_loss,
    total_loss,
)
from .model import (
    ModelConfig,
    ModelParams,
    add_subject,
    backbone_forward,
    converter_forward,
    init_model,
    is_frozen_parameter,
    lowlevel_forward,
    prior_train_step,
    retrieval_project,
    ridge_forward,
    target_embed,
)
from .optim import AdamW, warmup_cosine_lr
from .tensor import Tensor, concat, mse_loss
from .world import SubjectDataset, WorldSpec, teacher_targets, token_targets, vae_targets

# the sweep `ablation_run` and the `ablate` command make unless told otherwise
DEFAULT_ABLATION_VARIANTS = ("Prior", "Prior+Low", "Prior+Ret", "Ret", "Ret+Low", "All")
ABLATION_VARIANTS = DEFAULT_ABLATION_VARIANTS + ("ridge-vs-MLP",)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    samples_per_subject_per_batch: int = 4
    batch_size: int = 12              # single-subject phase
    lr: float = 3e-4
    warmup_frac: float = 0.05
    ridge_weight_decay: float = 1e-2
    alpha1: float = LossWeights.alpha1  # contrastive loss weight
    alpha2: float = LossWeights.alpha2  # low-level loss weight
    tau_bimixco: float = 0.125
    tau_softclip: float = 0.25
    mixco_beta_a: float = 0.15        # MixCo's Beta(a, b) mixing coefficients
    mixco_beta_b: float = 0.15
    seed: int = 0
    held_out_subject: str = "s7"
    n_finetune_sessions: int = 1
    use_prior: bool = True
    use_retrieval: bool = True
    use_lowlevel: bool = True
    mlp_dropout_ridge: bool = False
    ridge_only_finetune: bool = False

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 2 or self.samples_per_subject_per_batch < 1:
            raise ConfigError("epochs must be >= 1 and batch sizes >= 2")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not (self.use_prior or self.use_retrieval or self.use_lowlevel):
            raise ConfigError("at least one objective must stay enabled")
        if self.tau_bimixco <= 0 or self.tau_softclip <= 0:
            raise ConfigError("temperatures must be positive")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ConfigError(f"loss weights must be non-negative, got alpha1 = "
                              f"{self.alpha1}, alpha2 = {self.alpha2}")
        if self.mixco_beta_a <= 0 or self.mixco_beta_b <= 0:
            raise ConfigError(f"MixCo's beta parameters must be positive, got "
                              f"mixco_beta_a = {self.mixco_beta_a}, "
                              f"mixco_beta_b = {self.mixco_beta_b}")

    @property
    def weights(self) -> LossWeights:
        return LossWeights(self.alpha1, self.alpha2)


@dataclass
class TrainLog:
    rows: list[tuple[int, str, float, float, float, float]] = field(default_factory=list)
    used_trials: set[tuple[str, int]] = field(default_factory=set)

    def add(self, iteration: int, phase: str, prior_l: float, contrastive_l: float,
            lowlevel_l: float, total: float) -> None:
        self.rows.append((iteration, phase, prior_l, contrastive_l, lowlevel_l, total))

    def final_total(self) -> float:
        return self.rows[-1][-1]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "phase", "prior_l", "contrastive_l",
                             "lowlevel_l", "total"])
            for row in self.rows:
                writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]),
                                 repr(row[4]), repr(row[5])])


def _require_normalized(datasets: dict[str, SubjectDataset]) -> None:
    for sid, ds in datasets.items():
        if not ds.normalized:
            raise DataError(f"dataset for {sid} is not normalized")


def _decay_mask(params: dict[str, Tensor]) -> dict[str, bool]:
    # weight decay applies to the ridge weights only (the paper's alignment
    # layer is the regularized one); everything else is decay-free
    return {name: name.startswith("ridge.") and name.endswith(".W")
            for name in params}


def _train_loop(world: WorldSpec, datasets: dict[str, SubjectDataset],
                mp: ModelParams, cfg: TrainConfig, per_subject: int,
                master: int) -> TrainLog:
    """Shared optimization loop over equal per-subject batch slices.

    Steps exactly the parameters of ``mp`` that require grad, in place, and
    releases their gradients when it returns: a trained model holds only its
    weights. A numeric failure is re-raised with its type and the iteration,
    phase and part (forward, backward or optimizer step) appended.
    """
    subject_ids = sorted(datasets)
    train_idx = {sid: np.flatnonzero(datasets[sid].train_mask) for sid in subject_ids}
    n_min = min(len(v) for v in train_idx.values())
    iters_per_epoch = n_min // per_subject
    if iters_per_epoch < 1:
        raise DataError(f"not enough training trials ({n_min}) for a batch of "
                        f"{per_subject} per subject")
    total_iters = cfg.epochs * iters_per_epoch

    params = {k: p for k, p in mp.params.items() if p.requires_grad}
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.ridge_weight_decay,
                decay_mask=_decay_mask(params))
    log = TrainLog()
    it = 0
    for epoch in range(cfg.epochs):
        orders = {sid: seeds.rng(master, "shuffle", epoch, sid).permutation(train_idx[sid])
                  for sid in subject_ids}
        for step in range(iters_per_epoch):
            phase = loss_phase(it, total_iters)
            batch_rows = {sid: orders[sid][step * per_subject:(step + 1) * per_subject]
                          for sid in subject_ids}
            part = "forward"
            try:
                loss_parts = _batch_losses(world, datasets, mp, cfg, phase, batch_rows,
                                           master, it)
                total = total_loss(*loss_parts, cfg.weights)
                opt.zero_grad()
                part = "backward"
                total.backward()
                opt.lr = warmup_cosine_lr(it, total_iters, cfg.lr, cfg.warmup_frac)
                part = "optimizer step"
                opt.step()
            except FloatingPointError as exc:  # NonFiniteError included
                raise type(exc)(f"{exc} (iteration {it}, {phase}, {part})") from exc
            log.add(it, phase, loss_parts[0].item(), loss_parts[1].item(),
                    loss_parts[2].item(), total.item())
            for sid in subject_ids:
                log.used_trials.update((sid, int(r)) for r in batch_rows[sid])
            it += 1
    opt.zero_grad()
    return log


def _batch_losses(world, datasets, mp, cfg, phase, batch_rows, master, it):
    subject_ids = sorted(batch_rows)
    vox = {sid: datasets[sid].voxels[batch_rows[sid]] for sid in subject_ids}
    ids = np.concatenate([datasets[sid].image_ids[batch_rows[sid]]
                          for sid in subject_ids])
    imgs = world.images[ids]
    tok_true = token_targets(world, imgs)

    def to_tokens(voxels_by_subject):
        lats = []
        for sid in subject_ids:
            mask = _dropout_mask(mp, cfg, master, it, sid,
                                 voxels_by_subject[sid].shape[0])
            lats.append(ridge_forward(mp, sid, voxels_by_subject[sid], mask))
        lat = lats[0] if len(lats) == 1 else concat(lats, axis=0)
        return backbone_forward(mp, lat)

    tokens = to_tokens(vox)

    zero = Tensor(0.0)
    prior_l = zero
    if cfg.use_prior:
        t_draw = seeds.rng(master, "prior-t", it).integers(
            0, mp.mcfg.t_steps, size=imgs.shape[0])
        prior_l = prior_train_step(mp, tokens, tok_true, t_draw,
                                   noise_seed=seeds.derive(master, "prior-noise", it))

    contrastive_l = zero
    if cfg.use_retrieval:
        target_emb = Tensor(target_embed(mp, tok_true))  # frozen image side
        if phase == PHASE_BIMIXCO:
            mixed, mix = _mixco_per_subject(vox, subject_ids, cfg, master, it)
            pred_emb = retrieval_project(mp, to_tokens(mixed))
            contrastive_l = bimixco_loss(pred_emb, target_emb, mix, cfg.tau_bimixco)
        else:
            pred_emb = retrieval_project(mp, tokens)
            contrastive_l = soft_clip_loss(pred_emb, target_emb, cfg.tau_softclip)

    lowlevel_l = zero
    if cfg.use_lowlevel:
        vae_pred, teacher_pred = lowlevel_forward(mp, tokens)
        wc = world.config
        targets = LowLevelTargets(
            vae_true=vae_targets(world, imgs).reshape(
                imgs.shape[0], wc.vae_hw, wc.vae_hw, wc.vae_channels),
            vae_pred=vae_pred,
            teacher_true=teacher_targets(world, imgs),
            teacher_pred=teacher_pred)
        lowlevel_l = lowlevel_loss(targets, cfg.tau_softclip)

    return prior_l, contrastive_l, lowlevel_l


def _dropout_mask(mp, cfg, master, it, sid, n_rows):
    if not (mp.mcfg.mlp_ridge and cfg.mlp_dropout_ridge):
        return None
    p = mp.mcfg.ridge_dropout
    r = seeds.rng(master, "dropout", it, sid)
    return (r.random((n_rows, mp.mcfg.h)) >= p) / (1.0 - p)


def _mixco_per_subject(vox, subject_ids, cfg, master, it):
    """Mix within each subject's sub-batch; assemble a batch-global label basis."""
    mixed = {}
    lams, perms = [], []
    offset = 0
    for sid in subject_ids:
        mixed[sid], mix = mixco_augment(vox[sid], (cfg.mixco_beta_a, cfg.mixco_beta_b),
                                        seeds.rng(master, "mixco", it, sid))
        lams.append(mix.lam)
        perms.append(mix.perm + offset)
        offset += vox[sid].shape[0]
    return mixed, MixCoBatch(lam=np.concatenate(lams), perm=np.concatenate(perms))


# -- protocols -------------------------------------------------------------


def _fresh_model(world: WorldSpec, datasets: dict[str, SubjectDataset],
                 cfg: TrainConfig, mcfg: ModelConfig) -> ModelParams:
    if cfg.mlp_dropout_ridge and not mcfg.mlp_ridge:
        mcfg = replace(mcfg, mlp_ridge=True)
    subjects = {sid: datasets[sid].n_voxels for sid in sorted(datasets)}
    mp = init_model(world.config, mcfg, subjects, seed=seeds.derive(cfg.seed, "init"))
    mp.meta["world_seed"] = str(world.seed)
    return mp


def _fit_subject(mp: ModelParams, world: WorldSpec, dataset: SubjectDataset,
                 k_sessions: int, cfg: TrainConfig) -> tuple[ModelParams, TrainLog]:
    """Train ``mp`` in place on the first k sessions of one subject."""
    sid = dataset.subject_id
    log = _train_loop(world, {sid: dataset.restrict_sessions(k_sessions)}, mp, cfg,
                      per_subject=cfg.batch_size,
                      master=seeds.derive(cfg.seed, "finetune"))
    mp.meta["finetuned_subject"] = sid
    mp.meta["finetune_sessions"] = str(k_sessions)
    return mp, log


def pretrain(world: WorldSpec, datasets: dict[str, SubjectDataset],
             cfg: TrainConfig, mcfg: ModelConfig) -> tuple[ModelParams, TrainLog]:
    """Train one shared model, equally sampling every pretraining subject."""
    cfg.validate()
    if not datasets:
        raise DataError("pretraining needs at least one subject")
    if cfg.held_out_subject in datasets:
        raise SubjectLeakError(
            f"held-out subject {cfg.held_out_subject} present in pretraining data")
    per_subject = cfg.samples_per_subject_per_batch
    if len(datasets) * per_subject < 2 and (cfg.use_retrieval or cfg.use_lowlevel):
        raise ConfigError(
            f"a pretraining batch of {len(datasets)} subject(s) x {per_subject} "
            f"sample(s) per subject has 1 row; the contrastive losses need at least 2")
    _require_normalized(datasets)
    mp = _fresh_model(world, datasets, cfg, mcfg)
    mp.meta["pretrain_subjects"] = ",".join(sorted(datasets))
    log = _train_loop(world, datasets, mp, cfg, per_subject=per_subject,
                      master=seeds.derive(cfg.seed, "pretrain"))
    return mp, log


def finetune(checkpoint: ModelParams, world: WorldSpec, dataset: SubjectDataset,
             k_sessions: int, cfg: TrainConfig) -> tuple[ModelParams, TrainLog]:
    """Continue a pretrained model on the first k sessions of a new subject.

    Returns a new model holding copies of the shared parameters and of the
    subject's ridge layer (fresh if the checkpoint has none); ``checkpoint``
    itself is never changed. Under ``ridge_only_finetune`` the shared
    parameters do not require grad.
    """
    cfg.validate()
    _require_normalized({dataset.subject_id: dataset})
    sid = dataset.subject_id
    pretrained_on = [s for s in checkpoint.meta.get("pretrain_subjects", "").split(",") if s]
    if sid in pretrained_on:
        raise SubjectLeakError(f"subject leak: {sid} was in the pretraining set")
    ridge = f"ridge.{sid}."
    params = {
        k: Tensor(v.data.copy(), requires_grad=not is_frozen_parameter(k) and (
            k.startswith(ridge) or not cfg.ridge_only_finetune))
        for k, v in checkpoint.params.items()
        if k.startswith(ridge) or not k.startswith("ridge.")}
    mp = ModelParams(world_cfg=checkpoint.world_cfg, mcfg=checkpoint.mcfg, params=params,
                     alpha_bar=checkpoint.alpha_bar, meta=dict(checkpoint.meta))
    if sid not in mp.subjects:
        add_subject(mp, sid, dataset.n_voxels, seed=seeds.derive(cfg.seed, "ft-ridge"))
    return _fit_subject(mp, world, dataset, k_sessions, cfg)


def train_from_scratch(world: WorldSpec, dataset: SubjectDataset, k_sessions: int,
                       cfg: TrainConfig, mcfg: ModelConfig) -> tuple[ModelParams, TrainLog]:
    """Single-subject baseline: same loop as fine-tuning, random initialization."""
    cfg.validate()
    _require_normalized({dataset.subject_id: dataset})
    mp = _fresh_model(world, {dataset.subject_id: dataset}, cfg, mcfg)
    return _fit_subject(mp, world, dataset, k_sessions, cfg)


_VARIANT_FLAGS = {
    "Prior": dict(use_prior=True, use_retrieval=False, use_lowlevel=False),
    "Prior+Low": dict(use_prior=True, use_retrieval=False, use_lowlevel=True),
    "Prior+Ret": dict(use_prior=True, use_retrieval=True, use_lowlevel=False),
    "Ret": dict(use_prior=False, use_retrieval=True, use_lowlevel=False),
    "Ret+Low": dict(use_prior=False, use_retrieval=True, use_lowlevel=True),
    "All": dict(use_prior=True, use_retrieval=True, use_lowlevel=True),
    "ridge-vs-MLP": dict(use_prior=True, use_retrieval=True, use_lowlevel=True,
                         mlp_dropout_ridge=True),
}


def variant_config(cfg: TrainConfig, variant: str) -> TrainConfig:
    if variant not in _VARIANT_FLAGS:
        raise ConfigError(f"unknown ablation variant {variant!r}; "
                          f"choose from {sorted(_VARIANT_FLAGS)}")
    return replace(cfg, **_VARIANT_FLAGS[variant])


def ablation_run(world: WorldSpec, dataset: SubjectDataset, k_sessions: int,
                 cfg: TrainConfig, mcfg: ModelConfig, eval_cfg,
                 variants: tuple[str, ...] = DEFAULT_ABLATION_VARIANTS):
    """Train and evaluate one model per component combination, shared seed."""
    from .evaluate import evaluate_model  # breaks the module cycle

    # a bad entry is refused before the first variant trains
    vcfgs = [(variant, variant_config(cfg, variant)) for variant in variants]
    reports = {}
    for variant, vcfg in vcfgs:
        mp, _ = train_from_scratch(world, dataset, k_sessions, vcfg, mcfg)
        reports[variant] = evaluate_model(mp, world, dataset, eval_cfg,
                                          include_reconstruction=vcfg.use_prior)
    return reports


def train_converter(mp: ModelParams, world: WorldSpec, encoder_b, images: np.ndarray,
                    epochs: int = 300, batch_size: int = 16, lr: float = 1e-2,
                    seed: int = 0) -> float:
    """Fit the token-space converter on (primary tokens, secondary tokens) pairs.

    Returns the final training MSE. The converter is trained in place, also
    when a ridge-only fine-tune left its parameters without ``requires_grad``,
    and keeps no gradients afterwards.
    """
    tok_a = token_targets(world, images).reshape(
        images.shape[0], world.config.n_tokens, world.config.d_token)
    tok_b = encoder_b.encode_batch(world, images)
    conv_params = {k: v for k, v in mp.params.items() if k.startswith("converter.")}
    for p in conv_params.values():
        p.requires_grad = True
    opt = AdamW(conv_params, lr=lr)
    n = images.shape[0]
    rng = seeds.rng(seed, "converter")
    last = float("inf")
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n - batch_size + 1, batch_size):
            rows = order[lo:lo + batch_size]
            loss = mse_loss(converter_forward(mp, tok_a[rows]), Tensor(tok_b[rows]))
            opt.zero_grad()
            loss.backward()
            opt.step()
            last = loss.item()
    opt.zero_grad()
    return last
