"""Synthetic ground-truth world: stimuli, frozen encoders, simulated brains.

The world replaces external data and frozen feature extractors with seeded
linear maps whose inverses are known analytically:

* a frozen token encoder (injective on pixel space, so encoded stimuli can
  be decoded exactly via the pseudo-inverse),
* a teacher embedding map and a low-level latent map,
* one linear forward model per simulated subject (voxels = A @ pixels plus
  gaussian noise), with a named region partition over each subject's voxels.

Every generator is a pure function of (config, seed); stimuli are smooth
random fields so pixel-level image metrics stay informative.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from . import seeds
from .errors import ConfigError, DataError
from .flatkv import format_flat, parse_fields, parse_flat, parse_value
from .store import check_layout, read_arrays, write_arrays

STD_FLOOR = 1e-6
REGION_NAMES = ("V1", "V2", "V3", "V4", "higher")
# fraction of each subject's voxels per named region, in REGION_NAMES order
_REGION_FRACTIONS = (0.15, 0.15, 0.15, 0.15, 0.40)
# draws from the "encoder" stream before a rank-deficient encoder is an error
_ENCODER_DRAWS = 9


@dataclass(frozen=True)
class WorldConfig:
    image_hw: int = 16
    channels: int = 3
    n_tokens: int = 16
    d_token: int = 64
    vae_hw: int = 8
    vae_channels: int = 4
    d_teacher: int = 32
    n_subjects: int = 8
    voxels_min: int = 120
    voxels_max: int = 200
    n_sessions: int = 8
    trials_per_session: int = 40
    n_shared: int = 50
    noise_sigma: float = 0.25
    smooth_sigma: float = 2.0

    @property
    def pixel_dim(self) -> int:
        return self.image_hw * self.image_hw * self.channels

    @property
    def token_dim(self) -> int:
        return self.n_tokens * self.d_token

    @property
    def vae_dim(self) -> int:
        return self.vae_hw * self.vae_hw * self.vae_channels

    @property
    def n_images(self) -> int:
        return self.n_shared + self.n_subjects * self.n_sessions * self.trials_per_session

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (int, float)) and not isinstance(v, bool) and v < 0:
                raise ConfigError(f"world.{f.name} must be non-negative, got {v}")
        if min(self.image_hw, self.channels, self.n_tokens, self.d_token,
               self.vae_hw, self.vae_channels, self.d_teacher,
               self.n_subjects, self.n_sessions, self.trials_per_session) < 1:
            raise ConfigError("world dims must be positive")
        if self.token_dim < self.pixel_dim:
            raise ConfigError(
                f"impossible rank condition: token dim {self.token_dim} < "
                f"pixel dim {self.pixel_dim}; token encoder cannot be injective")
        if self.voxels_min > self.voxels_max:
            raise ConfigError("voxels_min exceeds voxels_max")
        # the smoothing kernel spans 4 sigma each way; past the image it only
        # costs memory and time
        if self.smooth_sigma > self.image_hw:
            raise ConfigError(f"world.smooth_sigma = {self.smooth_sigma} exceeds "
                              f"world.image_hw = {self.image_hw}")


@dataclass
class WorldSpec:
    config: WorldConfig
    seed: int
    encoder: np.ndarray        # [token_dim, pixel_dim]
    decoder: np.ndarray        # pseudo-inverse, [pixel_dim, token_dim]
    teacher: np.ndarray        # [d_teacher, pixel_dim]
    vae_map: np.ndarray        # [vae_dim, pixel_dim]
    vae_pinv: np.ndarray       # [pixel_dim, vae_dim]
    # subject -> forward matrix [n_voxels, pixel_dim], unit-norm rows
    subjects: dict[str, np.ndarray]
    regions: dict[str, dict[str, np.ndarray]]  # subject -> region -> voxel idx
    # [n_images, H, W, C]: the n_shared test images, then a block of n_sessions *
    # trials_per_session training images per subject, in subject_ids order
    images: np.ndarray

    @property
    def subject_ids(self) -> list[str]:
        return list(self.subjects)


@dataclass
class SubjectDataset:
    """Per-subject trials plus split bookkeeping.

    Trials are ordered train-sessions-first (session 0, 1, ...), with the
    shared test trials appended carrying session_index -1; restricting to
    the first k sessions is therefore a prefix operation on the train part.
    """

    subject_id: str
    voxels: np.ndarray         # [n_trials, n_voxels]
    image_ids: np.ndarray      # [n_trials] int64
    session_index: np.ndarray  # [n_trials] int64, -1 for shared test
    is_shared: np.ndarray      # [n_trials] bool
    normalized: bool = False

    @property
    def n_trials(self) -> int:
        return self.voxels.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.voxels.shape[1]

    @property
    def train_mask(self) -> np.ndarray:
        return ~self.is_shared

    def train_voxels(self) -> np.ndarray:
        return self.voxels[self.train_mask]

    def shared_voxels(self) -> np.ndarray:
        return self.voxels[self.is_shared]

    def check_sessions(self, k: int) -> None:
        """Raise `DataError` unless the training split has k sessions or more."""
        n_sessions = int(self.session_index.max()) + 1
        if k < 1 or k > n_sessions:
            raise DataError(f"k={k} outside available sessions [1, {n_sessions}]")

    def restrict_sessions(self, k: int) -> "SubjectDataset":
        """First k sessions of training trials; shared test kept whole."""
        self.check_sessions(k)
        keep = self.is_shared | (self.session_index < k)
        return SubjectDataset(
            subject_id=self.subject_id,
            voxels=self.voxels[keep].copy(),
            image_ids=self.image_ids[keep].copy(),
            session_index=self.session_index[keep].copy(),
            is_shared=self.is_shared[keep].copy(),
            normalized=self.normalized,
        )


# -- generation ----------------------------------------------------------


def _smooth_images(n: int, cfg: WorldConfig, rng: np.random.Generator) -> np.ndarray:
    """Low-pass-filtered gaussian fields rescaled into [0, 1]."""
    raw = rng.normal(size=(n, cfg.image_hw, cfg.image_hw, cfg.channels))
    smooth = gaussian_filter(raw, sigma=(0, cfg.smooth_sigma, cfg.smooth_sigma, 0))
    flat = smooth.reshape(n, -1)
    mu = flat.mean(axis=1, keepdims=True)
    sd = flat.std(axis=1, keepdims=True)
    # in place, the same operations in the same order as
    # clip(0.5 + 0.22 * ((flat - mu) / max(sd, floor)), 0, 1)
    flat -= mu
    flat /= np.maximum(sd, STD_FLOOR)
    flat *= 0.22
    flat += 0.5
    return np.clip(flat, 0.0, 1.0, out=flat).reshape(smooth.shape)


def _rank_and_pinv(a: np.ndarray) -> tuple[int, np.ndarray]:
    """The rank of ``a`` and its pseudo-inverse from one SVD.

    The rank uses ``np.linalg.matrix_rank``'s tolerance and the inverse
    ``np.linalg.pinv``'s cutoff and operations, so it has pinv's bits."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(s > s.max() * max(a.shape) * np.finfo(s.dtype).eps))
    large = s > 1e-15 * s.max()
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return rank, np.matmul(vt.T, np.multiply(s[:, None], u.T))


def generate_world(config: WorldConfig, seed: int,
                   images: np.ndarray | None = None) -> WorldSpec:
    """Build the full synthetic world deterministically from (config, seed).

    The encoder is factorized once: one SVD gives both its rank check and
    its pseudo-inverse, the ``decoder``. A stored dataset passes its own
    stimulus pool as ``images``."""
    config.validate()
    px = config.pixel_dim

    enc_rng = seeds.rng(seed, "encoder")
    for _ in range(_ENCODER_DRAWS):
        encoder = enc_rng.normal(size=(config.token_dim, px)) / np.sqrt(px)
        rank, decoder = _rank_and_pinv(encoder)
        if rank == px:
            break
    else:
        raise ConfigError("impossible rank condition: encoder stays rank-deficient")

    teacher = seeds.rng(seed, "teacher").normal(size=(config.d_teacher, px)) / np.sqrt(px)
    vae_map = seeds.rng(seed, "vae").normal(size=(config.vae_dim, px)) / np.sqrt(px)
    vae_pinv = np.linalg.pinv(vae_map)

    subjects: dict[str, np.ndarray] = {}
    regions: dict[str, dict[str, np.ndarray]] = {}
    candidates = np.arange(config.voxels_min, config.voxels_max + 1)
    if candidates.size < config.n_subjects:
        raise ConfigError("voxel range too narrow for distinct per-subject counts")
    size_rng = seeds.rng(seed, "voxel-counts")
    counts = size_rng.choice(candidates, size=config.n_subjects, replace=False)
    for i in range(config.n_subjects):
        sid = f"s{i}"
        n_vox = int(counts[i])
        A = seeds.rng(seed, "forward", sid).normal(size=(n_vox, px))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        subjects[sid] = A
        regions[sid] = _partition_regions(n_vox)

    images = (_smooth_images(config.n_images, config, seeds.rng(seed, "images"))
              if images is None else np.asarray(images, dtype=np.float64))
    return WorldSpec(config=config, seed=seed, encoder=encoder, decoder=decoder,
                     teacher=teacher, vae_map=vae_map, vae_pinv=vae_pinv,
                     subjects=subjects, regions=regions, images=images)


def _partition_regions(n_voxels: int) -> dict[str, np.ndarray]:
    """Disjoint contiguous cover of voxel indices by named regions."""
    bounds = np.cumsum([0] + [f * n_voxels for f in _REGION_FRACTIONS])
    bounds = np.round(bounds).astype(int)
    bounds[-1] = n_voxels
    return {name: np.arange(lo, hi)
            for name, lo, hi in zip(REGION_NAMES, bounds[:-1], bounds[1:])}


def generate_dataset(world: WorldSpec, subject_id: str, n_sessions: int | None = None,
                     trials_per_session: int | None = None, seed: int = 0) -> SubjectDataset:
    """Simulate one subject's trials: unique train images plus the shared test set."""
    cfg = world.config
    forward = world.subjects.get(subject_id)
    if forward is None:
        raise DataError(f"unknown subject {subject_id!r}")
    n_sessions = cfg.n_sessions if n_sessions is None else n_sessions
    trials_per_session = (cfg.trials_per_session if trials_per_session is None
                          else trials_per_session)
    if n_sessions < 1:
        raise DataError("n_sessions must be >= 1")
    if trials_per_session < 1:
        raise DataError("trials_per_session must be >= 1")
    n_train = n_sessions * trials_per_session
    block = cfg.n_sessions * cfg.trials_per_session
    if n_train > block:
        raise DataError(f"requested {n_train} unique train images; world pool "
                        f"allocates {block} to {subject_id}")
    # the subject's block of the image pool (see `WorldSpec.images`)
    start = cfg.n_shared + world.subject_ids.index(subject_id) * block
    image_ids = np.concatenate([np.arange(start, start + n_train, dtype=np.int64),
                                np.arange(cfg.n_shared, dtype=np.int64)])
    session_index = np.concatenate([
        np.repeat(np.arange(n_sessions, dtype=np.int64), trials_per_session),
        np.full(cfg.n_shared, -1, dtype=np.int64),
    ])
    is_shared = np.concatenate([
        np.zeros(n_train, dtype=bool), np.ones(cfg.n_shared, dtype=bool)])

    pixels = world.images[image_ids].reshape(len(image_ids), -1)
    clean = pixels @ forward.T
    noise = seeds.rng(seed, "dataset-noise", subject_id).normal(size=clean.shape)
    voxels = clean + cfg.noise_sigma * noise
    return SubjectDataset(subject_id=subject_id, voxels=voxels, image_ids=image_ids,
                          session_index=session_index, is_shared=is_shared)


def normalize(dataset: SubjectDataset) -> SubjectDataset:
    """Voxel-wise z-scoring with statistics from the training split only.

    Standard deviations are floored at STD_FLOOR so a degenerate constant
    voxel cannot produce infinities. Both splits are transformed.
    """
    train = dataset.train_voxels()
    if train.shape[0] == 0:
        raise DataError("cannot normalize: training split is empty")
    mean = train.mean(axis=0)
    std = np.maximum(train.std(axis=0), STD_FLOOR)
    return SubjectDataset(
        subject_id=dataset.subject_id,
        voxels=(dataset.voxels - mean) / std,
        image_ids=dataset.image_ids.copy(),
        session_index=dataset.session_index.copy(),
        is_shared=dataset.is_shared.copy(),
        normalized=True,
    )


# -- frozen encoders and their pre-images, over [N, ...] stacks ------------


def token_targets(world: WorldSpec, images: np.ndarray) -> np.ndarray:
    """Token embeddings of ``[N, H, W, C]`` images, flattened: ``[N, token_dim]``."""
    return images.reshape(images.shape[0], -1) @ world.encoder.T


def teacher_targets(world: WorldSpec, images: np.ndarray) -> np.ndarray:
    return images.reshape(images.shape[0], -1) @ world.teacher.T


def vae_targets(world: WorldSpec, images: np.ndarray) -> np.ndarray:
    return images.reshape(images.shape[0], -1) @ world.vae_map.T


def decode_tokens(world: WorldSpec, tokens: np.ndarray) -> np.ndarray:
    """Least-squares pixel pre-images of ``[N, ...]`` token embeddings: ``[N, H, W, C]``."""
    cfg = world.config
    n = tokens.shape[0]
    return (tokens.reshape(n, -1) @ world.decoder.T).reshape(
        n, cfg.image_hw, cfg.image_hw, cfg.channels)


def decode_vae(world: WorldSpec, latents: np.ndarray) -> np.ndarray:
    """Least-squares pixel pre-images of ``[N, ...]`` low-level latents: ``[N, H, W, C]``."""
    cfg = world.config
    n = latents.shape[0]
    return (latents.reshape(n, -1) @ world.vae_pinv.T).reshape(
        n, cfg.image_hw, cfg.image_hw, cfg.channels)


@dataclass
class SecondaryEncoder:
    """A second frozen token space, factorized over token and feature axes.

    Related to the primary encoder the way two patch-token embedding spaces
    relate: a token-axis recombination and a feature-axis map. This makes
    the space reachable by the factorized converter it exists to exercise.
    """

    token_map: np.ndarray    # [m_tokens, n_tokens]
    feature_map: np.ndarray  # [d_out, d_token]

    def encode_batch(self, world: WorldSpec, images: np.ndarray) -> np.ndarray:
        toks = token_targets(world, images).reshape(
            images.shape[0], world.config.n_tokens, world.config.d_token)
        return np.einsum("mn,bnd,ed->bme", self.token_map, toks, self.feature_map)


def secondary_token_encoder(world: WorldSpec, m_tokens: int, d_out: int,
                            seed: int) -> SecondaryEncoder:
    r = seeds.rng(seed, "secondary-encoder")
    tm = r.normal(size=(m_tokens, world.config.n_tokens)) / np.sqrt(world.config.n_tokens)
    fm = r.normal(size=(d_out, world.config.d_token)) / np.sqrt(world.config.d_token)
    return SecondaryEncoder(tm, fm)


# -- persistence ---------------------------------------------------------

_WORLD_FORMAT = "mindalign-world-v1"
DATASET_FILE = "dataset.bin"


def world_config_items(config: WorldConfig, seed: int) -> dict[str, object]:
    items: dict[str, object] = {f"world.{f.name}": getattr(config, f.name)
                                for f in fields(config)}
    items["world.seed"] = seed
    return items


def world_config_from_items(items: dict[str, str]) -> tuple[WorldConfig, int]:
    return (parse_fields(WorldConfig, items, "world"),
            parse_value(items.get("world.seed"), "int", "world.seed"))


def save_world_manifest(config: WorldConfig, seed: int, path: Path) -> None:
    items = {"format": _WORLD_FORMAT, **world_config_items(config, seed)}
    path.write_text(format_flat(items), encoding="utf-8")


def load_world_manifest(path: Path) -> WorldSpec:
    items = parse_flat(path.read_text(encoding="utf-8"))
    if items.get("format") != _WORLD_FORMAT:
        raise ConfigError(f"{path}: not a world manifest")
    config, seed = world_config_from_items(items)
    return generate_world(config, seed)


def save_dataset_dir(out_dir: Path, world: WorldSpec,
                     datasets: dict[str, SubjectDataset]) -> None:
    """Write the world block, the image pool and each subject's trials."""
    arrays = {"images": world.images.astype("<f4")}
    for sid, ds in datasets.items():
        if not ds.normalized:
            raise DataError(f"dataset for {sid} must be normalized before saving")
        arrays[f"voxels.{sid}"] = ds.voxels.astype("<f4")
        arrays[f"image_ids.{sid}"] = ds.image_ids.astype("<i8")
        arrays[f"session_index.{sid}"] = ds.session_index.astype("<i8")
        arrays[f"split.{sid}"] = ds.is_shared
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_arrays(out_dir / DATASET_FILE, world_config_items(world.config, world.seed),
                 arrays)


def load_dataset_dir(data_dir: Path, config: WorldConfig
                     ) -> tuple[WorldSpec, dict[str, SubjectDataset]]:
    """Reload a dataset directory bit-exactly.

    The stored world block must equal ``config``, the block the caller runs
    with; it is compared before anything is built from it. The world is then
    regenerated from that block and the stored seed around the stored image
    pool, so downstream targets come from exactly the serialized stimuli.
    """
    path = Path(data_dir) / DATASET_FILE
    items, arrays = read_arrays(path)
    try:
        stored, seed = world_config_from_items(items)
        if stored != config:
            raise DataError(f"{path}: dataset directory was generated with a "
                            "different world block than this config")
        world = generate_world(config, seed, images=arrays.get("images"))
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    layout = {"images": ("<f4", (config.n_images, config.image_hw, config.image_hw,
                                 config.channels))}
    sids = [name[len("voxels."):] for name in arrays if name.startswith("voxels.")]
    for sid in sids:
        n = arrays[f"voxels.{sid}"].shape[:1]
        n_vox = world.subjects[sid].shape[0] if sid in world.subjects else -1
        layout.update({f"voxels.{sid}": ("<f4", n + (n_vox,)), f"image_ids.{sid}": ("<i8", n),
                       f"session_index.{sid}": ("<i8", n), f"split.{sid}": ("|b1", n)})
    check_layout(path, arrays, layout)
    for sid in sids:
        ids, sessions = arrays[f"image_ids.{sid}"], arrays[f"session_index.{sid}"]
        shared = arrays[f"split.{sid}"]
        if np.any((ids < 0) | (ids >= config.n_images)):
            raise DataError(f"{path}: {sid} has an image id outside [0, {config.n_images})")
        # a shared test trial shows a shared image in session -1, a training
        # trial a training image in a session of the world
        if not (np.array_equal(shared, sessions == -1)
                and np.array_equal(shared, ids < config.n_shared)):
            raise DataError(f"{path}: {sid} has a trial whose split disagrees with its "
                            "session index or image id")
        if np.any((sessions[~shared] < 0) | (sessions[~shared] >= config.n_sessions)):
            raise DataError(f"{path}: {sid} has a training session index outside "
                            f"[0, {config.n_sessions})")
    return world, {sid: SubjectDataset(
        subject_id=sid, voxels=arrays[f"voxels.{sid}"].astype(np.float64),
        image_ids=arrays[f"image_ids.{sid}"], session_index=arrays[f"session_index.{sid}"],
        is_shared=arrays[f"split.{sid}"], normalized=True) for sid in sids}
