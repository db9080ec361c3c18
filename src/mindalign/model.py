"""The decoding graph and its parameters.

Per-subject ridge layers map voxels into a shared latent; a residual MLP
backbone lifts the latent to a frozen token-embedding grid; three heads hang
off the backbone tokens: a denoising prior (used for reconstruction), a
contrastive retrieval projector, and a low-level head predicting the
compressed latent plus a teacher embedding. A factorized token-space
converter maps the primary token space into a second one.

Only the ridge layer is subject-conditioned; everything downstream is
shared. Parameters are stored in a flat name->Tensor dict so the optimizer
and the checkpoint format see one namespace.

Every trainable linear-layer weight (``*.W``, ``*.W2``,
``backbone.to_tokens``) is held in memory as the C-contiguous ``[in, out]``
matrix its layer multiplies by, and in checkpoint files as ``[out, in]``;
initialization draws the ``[out, in]`` array, so values, seed streams and
files are those of an ``[out, in]`` model. Holding ``[out, in]`` in memory
would need a transposed copy per step, or a strided view, with which BLAS
picks other kernels and the last bits change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import seeds
from .errors import ConfigError, DataError
from .flatkv import parse_fields
from .store import check_layout, read_arrays, write_arrays
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    gelu,
    l2_normalize,
    layernorm,
    matmul,
    mse_loss,
    mul,
    reshape,
    tensor_slice,
    transpose,
)
from .world import WorldConfig, world_config_from_items, world_config_items


@dataclass(frozen=True)
class ModelConfig:
    h: int = 256                 # shared-latent width (paper-scale value: 4096)
    n_blocks: int = 4
    t_steps: int = 64
    schedule: str = "cosine"
    d_temb: int = 32
    d_cond: int = 256
    denoiser_hidden: int = 512
    denoiser_blocks: int = 2
    retr_hidden: int = 256
    d_retr: int = 64
    ll_hidden: int = 256
    ll_trunk: int = 256
    ll_seed_hw: int = 2
    ll_seed_channels: int = 32
    teacher_hidden: int = 64
    m_tokens: int = 12
    d_token_b: int = 32
    mlp_ridge: bool = False      # Table-4-style variant: MLP with dropout
    ridge_dropout: float = 0.5

    def validate(self) -> None:
        ints = [self.h, self.n_blocks, self.t_steps, self.d_temb, self.d_cond,
                self.denoiser_hidden, self.denoiser_blocks, self.retr_hidden,
                self.d_retr, self.ll_hidden, self.ll_trunk, self.ll_seed_hw,
                self.ll_seed_channels, self.teacher_hidden, self.m_tokens,
                self.d_token_b]
        if min(ints) < 1:
            raise ConfigError("model dims must be positive")
        if self.schedule not in ("linear", "cosine"):
            raise ConfigError(f"unknown schedule kind {self.schedule!r}")
        if not 0.0 <= self.ridge_dropout < 1.0:
            raise ConfigError("ridge_dropout must be in [0, 1)")


def make_schedule(kind: str, t_steps: int) -> np.ndarray:
    """The diffusion schedule: ``alpha_bar``, strictly decreasing in (0, 1]."""
    if t_steps < 1:
        raise ConfigError("t_steps must be >= 1")
    if kind == "cosine":
        s = 0.008
        grid = (np.arange(1, t_steps + 1) / t_steps + s) / (1 + s) * np.pi / 2
        alpha_bar = np.cos(grid) ** 2 / np.cos(s / (1 + s) * np.pi / 2) ** 2
    elif kind == "linear":
        scale = 1000.0 / t_steps
        betas = np.clip(np.linspace(1e-4 * scale, 0.02 * scale, t_steps), 1e-8, 0.999)
        alpha_bar = np.cumprod(1.0 - betas)
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    alpha_bar = np.clip(alpha_bar, 1e-12, 1.0)
    if np.any(np.diff(alpha_bar) >= 0):
        raise ConfigError("alpha_bar must be strictly decreasing in (0, 1]")
    return alpha_bar


@dataclass
class ModelParams:
    world_cfg: WorldConfig
    mcfg: ModelConfig
    params: dict[str, Tensor]
    alpha_bar: np.ndarray              # the diffusion schedule, see `make_schedule`
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def subjects(self) -> dict[str, int]:
        """Subject id -> voxel count: the subjects whose ridge layers it holds."""
        return _ridge_subjects({name: p.shape for name, p in self.params.items()}, axis=0)

    @property
    def token_dim(self) -> int:
        return self.world_cfg.token_dim

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())


# -- initialization -------------------------------------------------------


def _ll_stage_channels(world_cfg: WorldConfig, mcfg: ModelConfig) -> list[int]:
    """Channel plan for the upsampler: halve per doubling, land on vae channels."""
    ratio = world_cfg.vae_hw // mcfg.ll_seed_hw
    if mcfg.ll_seed_hw * ratio != world_cfg.vae_hw or ratio & (ratio - 1):
        raise ConfigError("vae_hw must be ll_seed_hw times a power of two")
    n_stages = int(np.log2(ratio))
    chans = [mcfg.ll_seed_channels]
    for i in range(n_stages):
        chans.append(world_cfg.vae_channels if i == n_stages - 1
                     else max(world_cfg.vae_channels, chans[-1] // 2))
    return chans


def parameter_shapes(world_cfg: WorldConfig, mcfg: ModelConfig,
                     subjects: dict[str, int]) -> dict[str, tuple[int, ...]]:
    """Name -> in-memory shape of every parameter a config builds, in
    initialization order.

    Linear weights are [in, out] here and [out, in] in checkpoint files (see
    `_transposed_in_memory`). Computing the table draws nothing, so a loader
    can check a file against it before it builds anything.
    """
    D, h = world_cfg.token_dim, mcfg.h
    shapes: dict[str, tuple[int, ...]] = {}

    def linear(name: str, out_dim: int, in_dim: int) -> None:
        shapes[f"{name}.W"] = (in_dim, out_dim)
        shapes[f"{name}.b"] = (out_dim,)

    for sid, n_vox in subjects.items():
        shapes.update(_ridge_shapes(sid, n_vox, mcfg))
    for i in range(mcfg.n_blocks):
        shapes[f"backbone.block{i}.ln_g"] = (h,)
        shapes[f"backbone.block{i}.ln_b"] = (h,)
        linear(f"backbone.block{i}.fc1", h, h)
        linear(f"backbone.block{i}.fc2", h, h)
    shapes["backbone.to_tokens"] = (h, D)

    shapes["prior.temb"] = (mcfg.t_steps, mcfg.d_temb)
    linear("prior.cond.fc1", mcfg.d_cond, D)
    linear("prior.cond.fc2", mcfg.d_cond, mcfg.d_cond)
    linear("prior.inp", mcfg.denoiser_hidden, D + mcfg.d_temb + mcfg.d_cond)
    for i in range(mcfg.denoiser_blocks):
        linear(f"prior.res{i}", mcfg.denoiser_hidden, mcfg.denoiser_hidden)
    linear("prior.out", D, mcfg.denoiser_hidden)

    linear("retrieval.fc1", mcfg.retr_hidden, D)
    linear("retrieval.fc2", mcfg.d_retr, mcfg.retr_hidden)
    # image-side embedding map: frozen, mirroring the locked target space the
    # brain-side projector is contrastively aligned to
    shapes["retrieval.target.W"] = (mcfg.d_retr, D)

    linear("lowlevel.trunk.fc1", mcfg.ll_hidden, D)
    linear("lowlevel.trunk.fc2", mcfg.ll_trunk, mcfg.ll_hidden)
    chans = _ll_stage_channels(world_cfg, mcfg)
    linear("lowlevel.seed", mcfg.ll_seed_hw * mcfg.ll_seed_hw * chans[0], mcfg.ll_trunk)
    for i, (cin, cout) in enumerate(zip(chans[:-1], chans[1:])):
        linear(f"lowlevel.stage{i}", cout, cin)
    linear("lowlevel.teacher.fc1", mcfg.teacher_hidden, mcfg.ll_trunk)
    linear("lowlevel.teacher.fc2", world_cfg.d_teacher, mcfg.teacher_hidden)

    linear("converter.token", mcfg.m_tokens, world_cfg.n_tokens)
    linear("converter.feat", mcfg.d_token_b, world_cfg.d_token)
    return shapes


def _ridge_subjects(shapes: dict[str, tuple[int, ...]], axis: int) -> dict[str, int]:
    """Subject id -> voxel count off ``ridge.<sid>.W``: axis 0 in memory, 1 in files."""
    return {name[len("ridge."):-len(".W")]: shape[axis] for name, shape in shapes.items()
            if name.startswith("ridge.") and name.endswith(".W") and len(shape) == 2}


def _ridge_shapes(sid: str, n_vox: int, mcfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes = {f"ridge.{sid}.W": (n_vox, mcfg.h), f"ridge.{sid}.b": (mcfg.h,)}
    if mcfg.mlp_ridge:
        shapes.update({f"ridge.{sid}.W2": (mcfg.h, mcfg.h), f"ridge.{sid}.b2": (mcfg.h,)})
    return shapes


def _transposed_in_memory(name: str) -> bool:
    """The trainable linear weights: [in, out] in memory, [out, in] in files."""
    return (name.endswith((".W", ".W2")) or name == "backbone.to_tokens") \
        and not is_frozen_parameter(name)


def _file_shape(name: str, shape: tuple[int, ...]) -> tuple[int, ...]:
    return shape[::-1] if _transposed_in_memory(name) else shape


def _file_layout(name: str, data: np.ndarray) -> np.ndarray:
    """``data`` as checkpoint files hold it; also the inverse map, up to strides."""
    return data.T if _transposed_in_memory(name) else data


def _draw(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator) -> dict[str, Tensor]:
    """Initial values in table order: vectors are zeros (layernorm gains ones),
    matrices uniform in +-1/sqrt(fan-in), the frozen map gaussian. Matrices
    are drawn in file layout."""
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        frozen = is_frozen_parameter(name)
        shape = _file_shape(name, shape)
        if len(shape) == 1:
            data = np.ones(shape) if name.endswith(".ln_g") else np.zeros(shape)
        elif frozen:
            data = rng.normal(size=shape) / np.sqrt(shape[1])
        else:
            bound = 1.0 / np.sqrt(shape[1])
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(np.ascontiguousarray(_file_layout(name, data)),
                              requires_grad=not frozen)
    return params


def init_model(world_cfg: WorldConfig, mcfg: ModelConfig,
               subjects: dict[str, int], seed: int) -> ModelParams:
    """Fresh seed-controlled parameters for the given subjects.

    Each ridge layer draws from its own seed stream, the shared parameters
    from one more.
    """
    mcfg.validate()
    shapes = parameter_shapes(world_cfg, mcfg, subjects)
    params: dict[str, Tensor] = {}
    for sid, n_vox in subjects.items():
        params.update(_draw(_ridge_shapes(sid, n_vox, mcfg), seeds.rng(seed, "ridge", sid)))
    params.update(_draw({k: v for k, v in shapes.items() if k not in params},
                        seeds.rng(seed, "shared")))
    return ModelParams(world_cfg=world_cfg, mcfg=mcfg, params=params,
                       alpha_bar=make_schedule(mcfg.schedule, mcfg.t_steps))


def add_subject(mp: ModelParams, sid: str, n_vox: int, seed: int) -> None:
    """Initialize a fresh ridge entry for a new subject."""
    if sid in mp.subjects:
        raise DataError(f"subject {sid} already present")
    mp.params.update(_draw(_ridge_shapes(sid, n_vox, mp.mcfg), seeds.rng(seed, "ridge", sid)))


def expected_parameter_count(world_cfg: WorldConfig, mcfg: ModelConfig,
                             subjects: dict[str, int]) -> int:
    """Analytic parameter count for a config; must equal the built model's."""
    D, h = world_cfg.token_dim, mcfg.h
    n = 0
    for n_vox in subjects.values():
        n += h * n_vox + h
        if mcfg.mlp_ridge:
            n += h * h + h
    n += mcfg.n_blocks * (2 * h + 2 * (h * h + h))
    n += D * h
    n += mcfg.t_steps * mcfg.d_temb
    n += mcfg.d_cond * D + mcfg.d_cond + mcfg.d_cond * mcfg.d_cond + mcfg.d_cond
    din = D + mcfg.d_temb + mcfg.d_cond
    n += mcfg.denoiser_hidden * din + mcfg.denoiser_hidden
    n += mcfg.denoiser_blocks * (mcfg.denoiser_hidden ** 2 + mcfg.denoiser_hidden)
    n += D * mcfg.denoiser_hidden + D
    n += mcfg.retr_hidden * D + mcfg.retr_hidden + mcfg.d_retr * mcfg.retr_hidden + mcfg.d_retr
    n += mcfg.d_retr * D  # frozen image-side embedding map
    n += mcfg.ll_hidden * D + mcfg.ll_hidden + mcfg.ll_trunk * mcfg.ll_hidden + mcfg.ll_trunk
    chans = _ll_stage_channels(world_cfg, mcfg)
    seed_out = mcfg.ll_seed_hw * mcfg.ll_seed_hw * chans[0]
    n += seed_out * mcfg.ll_trunk + seed_out
    for cin, cout in zip(chans[:-1], chans[1:]):
        n += cout * cin + cout
    n += mcfg.teacher_hidden * mcfg.ll_trunk + mcfg.teacher_hidden
    n += world_cfg.d_teacher * mcfg.teacher_hidden + world_cfg.d_teacher
    n += mcfg.m_tokens * world_cfg.n_tokens + mcfg.m_tokens
    n += mcfg.d_token_b * world_cfg.d_token + mcfg.d_token_b
    return n


# -- forward passes -------------------------------------------------------


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b with W held [in, out] (checkpoint files hold [out, in]).

    The [in, out] array is the one the layer multiplies by, so forward and
    backward need no transposed copy of W.
    """
    return add(matmul(x, W), b)


def ridge_forward(mp: ModelParams, subject_id: str, voxels,
                  dropout_mask: np.ndarray | None = None) -> Tensor:
    """Per-subject linear map into the shared latent. [B, V] -> [B, h]."""
    p = mp.params
    W = p.get(f"ridge.{subject_id}.W")
    if W is None:
        raise DataError(f"unknown subject {subject_id!r}")
    x = Tensor.lift(voxels)
    if x.ndim != 2 or x.shape[1] != W.shape[0]:
        raise ShapeError(f"voxels shape {x.shape} does not match subject "
                         f"{subject_id} ({W.shape[0]} voxels)")
    out = linear(x, W, p[f"ridge.{subject_id}.b"])
    if mp.mcfg.mlp_ridge:
        out = gelu(out)
        if dropout_mask is not None:
            out = mul(out, Tensor(dropout_mask))
        out = linear(out, p[f"ridge.{subject_id}.W2"], p[f"ridge.{subject_id}.b2"])
    return out


def backbone_forward(mp: ModelParams, latent) -> Tensor:
    """Residual MLP blocks then the linear lift to the token grid.

    [B, h] -> [B, n_tokens, d_token].
    """
    x = Tensor.lift(latent)
    p = mp.params
    for i in range(mp.mcfg.n_blocks):
        name = f"backbone.block{i}"
        hidden = layernorm(x, p[f"{name}.ln_g"], p[f"{name}.ln_b"])
        hidden = linear(gelu(linear(hidden, p[f"{name}.fc1.W"], p[f"{name}.fc1.b"])),
                        p[f"{name}.fc2.W"], p[f"{name}.fc2.b"])
        x = add(x, hidden)
    tokens = matmul(x, p["backbone.to_tokens"])
    return reshape(tokens, (x.shape[0], mp.world_cfg.n_tokens, mp.world_cfg.d_token))


def _flat_tokens(mp: ModelParams, tokens) -> Tensor:
    t = Tensor.lift(tokens)
    if t.ndim == 3:
        t = reshape(t, (t.shape[0], mp.token_dim))
    if t.ndim != 2 or t.shape[1] != mp.token_dim:
        raise ShapeError(f"tokens shape {t.shape} incompatible with token dim "
                         f"{mp.token_dim}")
    return t


def _cond_embed(mp: ModelParams, cond_flat: Tensor) -> Tensor:
    p = mp.params
    c = gelu(linear(cond_flat, p["prior.cond.fc1.W"], p["prior.cond.fc1.b"]))
    return linear(c, p["prior.cond.fc2.W"], p["prior.cond.fc2.b"])


def _denoise_core(mp: ModelParams, x_t: Tensor, t: np.ndarray, cemb: Tensor) -> Tensor:
    p = mp.params
    temb = tensor_slice(p["prior.temb"], np.asarray(t, dtype=np.int64))
    h = gelu(linear(concat([x_t, temb, cemb], axis=1),
                    p["prior.inp.W"], p["prior.inp.b"]))
    for i in range(mp.mcfg.denoiser_blocks):
        h = add(h, gelu(linear(h, p[f"prior.res{i}.W"], p[f"prior.res{i}.b"])))
    return linear(h, p["prior.out.W"], p["prior.out.b"])


def denoise(mp: ModelParams, x_t, t, cond_tokens) -> Tensor:
    """Predict the clean token embedding from (noised tokens, step, conditioning)."""
    return _denoise_core(mp, _flat_tokens(mp, x_t), t,
                         _cond_embed(mp, _flat_tokens(mp, cond_tokens)))


def prior_train_step(mp: ModelParams, backbone_tokens, target_tokens, t,
                     noise_seed: int) -> Tensor:
    """Denoising loss: noise the target to level t, predict it back, MSE."""
    target = _flat_tokens(mp, target_tokens)
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if t_arr.ndim == 1 and t_arr.shape[0] == 1:
        t_arr = np.full(target.shape[0], t_arr[0], dtype=np.int64)
    if np.any(t_arr < 0) or np.any(t_arr >= mp.mcfg.t_steps):
        raise DataError(f"t out of range [0, {mp.mcfg.t_steps})")
    eps = seeds.rng(noise_seed, "prior-noise").normal(size=target.shape)
    ab = mp.alpha_bar[t_arr][:, None]
    x_t = Tensor(np.sqrt(ab) * target.data + np.sqrt(1.0 - ab) * eps)
    pred = denoise(mp, x_t, t_arr, backbone_tokens)
    return mse_loss(pred, target.detach())


def prior_sample(mp: ModelParams, backbone_tokens, seed: int) -> np.ndarray:
    """Ancestral sampling from pure noise, deterministic given seed.

    Each step the denoiser predicts the clean embedding and the standard
    posterior for that prediction produces the next (less noisy) state. With
    a single step this degenerates to one denoiser call on pure noise.
    """
    cond = _flat_tokens(mp, backbone_tokens)
    cemb = Tensor(_cond_embed(mp, cond).data)
    n = cond.shape[0]
    rng = seeds.rng(seed, "prior-sample")
    x = rng.normal(size=(n, mp.token_dim))
    ab = mp.alpha_bar
    for t in range(mp.mcfg.t_steps - 1, 0, -1):
        t_arr = np.full(n, t, dtype=np.int64)
        x0 = _denoise_core(mp, Tensor(x), t_arr, cemb).data
        ab_t, ab_prev = ab[t], ab[t - 1]
        alpha_t = ab_t / ab_prev
        beta_t = 1.0 - alpha_t
        mean = (np.sqrt(ab_prev) * beta_t / (1.0 - ab_t)) * x0 \
            + (np.sqrt(alpha_t) * (1.0 - ab_prev) / (1.0 - ab_t)) * x
        var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
        x = mean + np.sqrt(max(var, 0.0)) * rng.normal(size=x.shape)
    x0 = _denoise_core(mp, Tensor(x), np.zeros(n, dtype=np.int64), cemb).data
    return x0.reshape(n, mp.world_cfg.n_tokens, mp.world_cfg.d_token)


def is_frozen_parameter(name: str) -> bool:
    """Frozen parameters persist in checkpoints but never receive updates."""
    return name.startswith("retrieval.target.")


def target_embed(mp: ModelParams, tokens) -> np.ndarray:
    """Frozen unit-norm image-side embeddings for contrastive alignment."""
    flat = _flat_tokens(mp, tokens).data
    raw = flat @ mp.params["retrieval.target.W"].data.T
    return raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)


def retrieval_project(mp: ModelParams, tokens, return_degenerate: bool = False):
    """Two-layer projector then exact L2 row normalization. [B, ...] -> [B, d_retr].

    Rows whose projector output has vanishing norm are replaced by a fixed
    unit fallback (first basis vector) and flagged.
    """
    p = mp.params
    flat = _flat_tokens(mp, tokens)
    raw = linear(gelu(linear(flat, p["retrieval.fc1.W"], p["retrieval.fc1.b"])),
                 p["retrieval.fc2.W"], p["retrieval.fc2.b"])
    norms = np.linalg.norm(raw.data, axis=1)
    degenerate = norms < 1e-12
    emb = l2_normalize(raw)
    if degenerate.any():
        keep = Tensor((~degenerate).astype(np.float64)[:, None])
        fallback = np.zeros_like(raw.data)
        fallback[degenerate, 0] = 1.0
        emb = add(mul(emb, keep), Tensor(fallback))
    if return_degenerate:
        return emb, degenerate
    return emb


def _upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor doubling of the two spatial axes of [B, h, w, c]."""
    b, h, w, c = x.shape
    expanded = mul(reshape(x, (b, h, 1, w, 1, c)),
                   Tensor(np.ones((1, 1, 2, 1, 2, 1))))
    return reshape(expanded, (b, 2 * h, 2 * w, c))


def lowlevel_forward(mp: ModelParams, tokens) -> tuple[Tensor, Tensor]:
    """Low-level head: compressed-latent grid prediction plus teacher embedding."""
    p = mp.params
    wcfg, mcfg = mp.world_cfg, mp.mcfg
    flat = _flat_tokens(mp, tokens)
    trunk = linear(gelu(linear(flat, p["lowlevel.trunk.fc1.W"], p["lowlevel.trunk.fc1.b"])),
                   p["lowlevel.trunk.fc2.W"], p["lowlevel.trunk.fc2.b"])
    chans = _ll_stage_channels(wcfg, mcfg)
    x = reshape(linear(trunk, p["lowlevel.seed.W"], p["lowlevel.seed.b"]),
                (flat.shape[0], mcfg.ll_seed_hw, mcfg.ll_seed_hw, chans[0]))
    n_stages = len(chans) - 1
    for i in range(n_stages):
        x = _upsample2x(x)
        b, hh, ww, cin = x.shape
        x = reshape(x, (b * hh * ww, cin))
        x = linear(x, p[f"lowlevel.stage{i}.W"], p[f"lowlevel.stage{i}.b"])
        x = reshape(x, (b, hh, ww, chans[i + 1]))
        if i < n_stages - 1:
            x = gelu(x)
    teacher = linear(
        gelu(linear(trunk, p["lowlevel.teacher.fc1.W"], p["lowlevel.teacher.fc1.b"])),
        p["lowlevel.teacher.fc2.W"], p["lowlevel.teacher.fc2.b"])
    return x, teacher


def converter_forward(mp: ModelParams, tokens_a) -> Tensor:
    """Factorized map between token spaces: token-axis linear then feature-axis.

    [B, n_tokens, d_token] -> [B, m_tokens, d_token_b].
    """
    p = mp.params
    t = Tensor.lift(tokens_a)
    if t.ndim == 2:
        t = reshape(t, (1,) + t.shape)
    b, n, d = t.shape
    if (n, d) != (mp.world_cfg.n_tokens, mp.world_cfg.d_token):
        raise ShapeError(f"tokens shape {(n, d)} != "
                         f"{(mp.world_cfg.n_tokens, mp.world_cfg.d_token)}")
    x = reshape(transpose(t, (0, 2, 1)), (b * d, n))
    x = linear(x, p["converter.token.W"], p["converter.token.b"])
    x = transpose(reshape(x, (b, d, mp.mcfg.m_tokens)), (0, 2, 1))
    x = reshape(x, (b * mp.mcfg.m_tokens, d))
    x = linear(x, p["converter.feat.W"], p["converter.feat.b"])
    return reshape(x, (b, mp.mcfg.m_tokens, mp.mcfg.d_token_b))


# -- checkpoint format ----------------------------------------------------


def save_checkpoint(mp: ModelParams, path: Path) -> None:
    """One array file: the config echo, then every parameter as float32,
    linear weights [out, in]. A parameter whose float32 value is not finite
    (a NaN, an Inf, or a float64 beyond float32's range) raises
    `NonFiniteError` naming it, and no file is written."""
    items = world_config_items(mp.world_cfg, seed=int(mp.meta.get("world_seed", 0)))
    items.update({f"model.{f.name}": getattr(mp.mcfg, f.name) for f in fields(ModelConfig)})
    # world_seed is already carried as world.seed
    items.update({f"meta.{k}": v for k, v in mp.meta.items() if k != "world_seed"})
    with np.errstate(over="ignore"):  # an overflow becomes inf, which write_arrays refuses
        arrays = {name: _file_layout(name, mp.params[name].data).astype("<f4")
                  for name in sorted(mp.params)}
    write_arrays(path, items, arrays)


def load_checkpoint(path: Path) -> ModelParams:
    """Reload a checkpoint; its arrays must be exactly what its config builds.

    Subjects and their voxel counts come from the ``ridge.<sid>.W`` arrays.
    """
    items, arrays = read_arrays(path)
    subjects = _ridge_subjects({name: arr.shape for name, arr in arrays.items()}, axis=1)
    try:
        world_cfg, world_seed = world_config_from_items(items)
        mcfg = parse_fields(ModelConfig, items, "model")
        world_cfg.validate()
        mcfg.validate()
        # the file's size bounds the layout table and the schedule built below
        if expected_parameter_count(world_cfg, mcfg, subjects) != sum(
                arr.size for arr in arrays.values()):
            raise DataError(f"{path}: parameter count differs from what its config builds")
        check_layout(path, arrays, {name: ("<f4", _file_shape(name, shape)) for name, shape
                                    in parameter_shapes(world_cfg, mcfg, subjects).items()})
        alpha_bar = make_schedule(mcfg.schedule, mcfg.t_steps)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    meta = {k[len("meta."):]: v for k, v in items.items() if k.startswith("meta.")}
    meta["world_seed"] = str(world_seed)
    return ModelParams(world_cfg=world_cfg, mcfg=mcfg, alpha_bar=alpha_bar,
                       params={name: Tensor(np.ascontiguousarray(_file_layout(name, arr),
                                                                 dtype=np.float64),
                                            requires_grad=not is_frozen_parameter(name))
                               for name, arr in arrays.items()},
                       meta=meta)
