"""Synthetic world: generators, frozen encoders, normalization, persistence."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindalign import seeds, world as world_mod
from mindalign.errors import ConfigError, DataError
from mindalign.world import (
    REGION_NAMES,
    SubjectDataset,
    WorldConfig,
    decode_tokens,
    decode_vae,
    generate_dataset,
    generate_world,
    load_dataset_dir,
    load_world_manifest,
    normalize,
    save_dataset_dir,
    save_world_manifest,
    secondary_token_encoder,
    teacher_targets,
    token_targets,
    vae_targets,
)
from oracles import pinv_svd, smooth_images_out_of_place
from test_acceptance import SCALE_WORLD

SMALL = WorldConfig(image_hw=8, channels=3, n_tokens=8, d_token=32, vae_hw=4,
                    n_subjects=3, voxels_min=40, voxels_max=80, n_sessions=4,
                    trials_per_session=10, n_shared=12)


@pytest.fixture(scope="module")
def world():
    return generate_world(SMALL, seed=7)


@pytest.fixture(scope="module")
def default_world():
    return generate_world(WorldConfig(), seed=7)


@pytest.fixture(scope="module")
def scale_world():
    return generate_world(SCALE_WORLD, seed=7)


@pytest.fixture(scope="module")
def square_world():
    # token_dim == pixel_dim: the encoder is square, the VAE map tall
    return generate_world(WorldConfig(image_hw=8, n_tokens=6, d_token=32), seed=7)


def _assert_pinv_close(got, a):
    # within 1e-11 of the SVD pseudo-inverse, relative to its largest entry
    want = pinv_svd(a)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


class TestGenerateWorld:
    def test_same_seed_bit_identical(self, world):
        w2 = generate_world(SMALL, seed=7)
        assert np.array_equal(world.encoder, w2.encoder)
        assert np.array_equal(world.images, w2.images)
        for sid in world.subjects:
            assert np.array_equal(world.subjects[sid], w2.subjects[sid])

    def test_decoder_inverts_encoder(self, default_world):
        w = default_world
        eye = w.decoder @ w.encoder
        assert np.abs(eye - np.eye(w.config.pixel_dim)).max() < 1e-8

    def test_distinct_voxel_counts(self, default_world):
        counts = [a.shape[0] for a in default_world.subjects.values()]
        assert len(counts) == 8
        assert len(set(counts)) == 8
        assert all(120 <= c <= 200 for c in counts)

    def test_encoder_rank_exact(self, world):
        assert np.linalg.matrix_rank(world.encoder) == world.config.pixel_dim

    @pytest.mark.parametrize("which", ["tiny_world", "default_world", "scale_world",
                                       "square_world"])
    def test_pseudo_inverses_match_the_svd_oracle(self, request, which):
        w = request.getfixturevalue(which)
        _assert_pinv_close(w.decoder, w.encoder)
        _assert_pinv_close(w.vae_pinv, w.vae_map)

    # every image size up to 16, with sigma 0 (no filter), fractional sigmas,
    # and sigma = image_hw, whose 4-sigma radius is four times the image, so
    # the 'reflect' extension repeats it
    @pytest.mark.parametrize("cfg", [SMALL, WorldConfig(smooth_sigma=0.0)] + [
        WorldConfig(image_hw=hw, channels=2, smooth_sigma=sigma) for hw in range(1, 17)
        for sigma in (0.0, 0.3, 0.7, 1.3, hw / 2 + 0.1, float(hw))])
    def test_images_equal_the_out_of_place_oracle(self, cfg):
        got = world_mod._smooth_images(37, cfg, seeds.rng(5, "images"))
        want = smooth_images_out_of_place(37, cfg.image_hw, cfg.channels,
                                          cfg.smooth_sigma, seeds.rng(5, "images"))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(image_hw=st.integers(1, 16), share=st.floats(0.0, 1.0), channels=st.integers(1, 3),
           n=st.integers(1, 70), seed=st.integers(0, 2 ** 16))
    def test_drawn_sizes_and_sigmas_equal_the_oracle(self, image_hw, share, channels, n, seed):
        # n past the filter's block of 32 images exercises a partial last block
        cfg = WorldConfig(image_hw=image_hw, channels=channels, smooth_sigma=share * image_hw)
        got = world_mod._smooth_images(n, cfg, seeds.rng(seed, "images"))
        want = smooth_images_out_of_place(n, image_hw, channels, cfg.smooth_sigma,
                                          seeds.rng(seed, "images"))
        assert got.tobytes() == want.tobytes()

    def test_encoder_is_the_first_draw_of_its_stream(self):
        px = SMALL.pixel_dim
        first = seeds.rng(7, "encoder").normal(size=(SMALL.token_dim, px)) / np.sqrt(px)
        w = generate_world(SMALL, seed=7)
        assert w.encoder.tobytes() == first.tobytes()
        assert w.decoder.tobytes() == world_mod._full_rank_pinv(first).tobytes()

    def test_rank_deficient_encoder_is_a_config_error(self, monkeypatch):
        # every matrix reads as deficient: the encoder, factorized first, is not redrawn
        calls = []
        monkeypatch.setattr(world_mod, "_full_rank_pinv", lambda a: calls.append(a))
        with pytest.raises(ConfigError, match="the encoder is rank-deficient"):
            generate_world(SMALL, seed=7)
        assert len(calls) == 1

    def test_rank_deficient_vae_map_is_a_config_error(self, monkeypatch):
        real = world_mod._full_rank_pinv
        monkeypatch.setattr(world_mod, "_full_rank_pinv",
                            lambda a: None if a.shape[0] == SMALL.vae_dim else real(a))
        with pytest.raises(ConfigError, match="VAE map is rank-deficient"):
            generate_world(SMALL, seed=7)

    def test_byte_cap_counts_every_array_of_the_world_and_its_datasets(self, monkeypatch):
        # the count takes world.voxels_max voxels for every subject; it is
        # what generate_world and generate_dataset allocate, plus the voxels
        # each subject has fewer than that, for its map and its trials
        px = SMALL.pixel_dim
        trials = SMALL.n_sessions * SMALL.trials_per_session + SMALL.n_shared
        need = 8 * (2 * SMALL.token_dim * px + SMALL.d_teacher * px + 2 * SMALL.vae_dim * px
                    + SMALL.n_images * px
                    + SMALL.n_subjects * SMALL.voxels_max * (px + trials))
        w = generate_world(SMALL, seed=7)
        held = sum(a.nbytes for a in (w.encoder, w.decoder, w.teacher, w.vae_map,
                                      w.vae_pinv, w.images, *w.subjects.values()))
        held += sum(generate_dataset(w, sid).voxels.nbytes for sid in w.subject_ids)
        assert need - held == 8 * sum((SMALL.voxels_max - a.shape[0]) * (px + trials)
                                      for a in w.subjects.values())
        monkeypatch.setattr(world_mod, "BYTE_CAP", need)
        SMALL.validate()
        monkeypatch.setattr(world_mod, "BYTE_CAP", need - 1)
        with pytest.raises(ConfigError, match=rf"^the world would hold {need} bytes, past "
                                              rf"the cap of {need - 1}; the largest term "
                                              r"is the encoder \[.* x 2, "
                                              rf"{8 * 2 * SMALL.token_dim * px} bytes;"):
            generate_world(SMALL, seed=7)

    def test_rank_condition_rejected(self):
        with pytest.raises(ConfigError):
            generate_world(WorldConfig(n_tokens=2, d_token=8), seed=0)

    @pytest.mark.parametrize("field", ["vae_hw", "vae_channels", "d_teacher"])
    def test_zero_latent_dims_rejected(self, field):
        # a zero vae_hw used to crash model construction with an OverflowError
        with pytest.raises(ConfigError, match="positive"):
            WorldConfig(**{field: 0}).validate()

    def test_region_partition_disjoint_cover(self, world):
        for sid, forward in world.subjects.items():
            regions = world.regions[sid]
            assert set(regions) == set(REGION_NAMES)
            combined = np.concatenate([regions[r] for r in REGION_NAMES])
            assert sorted(combined.tolist()) == list(range(forward.shape[0]))

    def test_images_in_unit_interval(self, world):
        assert world.images.min() >= 0.0
        assert world.images.max() <= 1.0
        # smooth fields must keep usable contrast for pixel metrics
        assert world.images.std() > 0.1


class TestSimulateResponse:
    """`generate_dataset` is the one forward simulation: A @ pixels plus noise."""

    def test_noiseless_is_exact_linear_map(self, world):
        cfg = WorldConfig(**{**SMALL.__dict__, "noise_sigma": 0.0})
        w0 = generate_world(cfg, seed=7)
        d = generate_dataset(w0, "s0", seed=3)
        pixels = w0.images[d.image_ids].reshape(d.n_trials, -1)
        np.testing.assert_array_equal(d.voxels, pixels @ w0.subjects["s0"].T)

    def test_seed_repeats_noise(self, world):
        a = generate_dataset(world, "s0", seed=42).voxels
        b = generate_dataset(world, "s0", seed=42).voxels
        assert np.array_equal(a, b)
        c = generate_dataset(world, "s0", seed=43).voxels
        assert not np.array_equal(a, c)

    def test_unknown_subject(self, world):
        with pytest.raises(DataError):
            generate_dataset(world, "nope", seed=0)


class TestFullRankPinv:
    @staticmethod
    def _tall(seed):
        return np.random.default_rng(seed).normal(size=(40, 12))

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("defect", ["duplicate", "zero", "tiny", "subnormal"])
    def test_rank_deficiency_is_reported_not_raised(self, wide, defect):
        # a duplicated column leaves R's diagonal at rounding level (about
        # 1e-16), so R inverts to a huge, finite inverse; a zero column makes
        # R exactly singular, so inversion raises; a column at 1e-308 gives a
        # finite inverse whose norm times R's overflows, and one at 1e-310
        # (subnormal) an inverse that is not finite
        a = self._tall(3)
        a[:, 5] = {"duplicate": a[:, 2], "zero": 0.0, "tiny": 1e-308 * a[:, 5],
                   "subnormal": 1e-310 * a[:, 5]}[defect]
        if defect == "duplicate":
            assert 0 < abs(np.linalg.qr(a, mode="r")[5, 5]) < 1e-14
        with np.errstate(all="raise"):
            assert world_mod._full_rank_pinv(a.T if wide else a) is None

    @settings(max_examples=60)
    @given(short=st.integers(1, 24), extra=st.integers(1, 24), wide=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_full_rank_gaussians_match_the_svd_oracle(self, short, extra, wide, seed):
        a = np.random.default_rng(seed).normal(size=(short + extra, short))
        a = a.T if wide else a
        got = world_mod._full_rank_pinv(a)
        assert got is not None
        _assert_pinv_close(got, a)


class TestGenerateDataset:
    def test_shared_ids_identical_across_subjects(self, world):
        d0 = generate_dataset(world, "s0", seed=1)
        d1 = generate_dataset(world, "s1", seed=2)
        np.testing.assert_array_equal(d0.image_ids[d0.is_shared],
                                      d1.image_ids[d1.is_shared])

    def test_train_ids_disjoint_across_subjects(self, world):
        d0 = generate_dataset(world, "s0", seed=1)
        d1 = generate_dataset(world, "s1", seed=2)
        assert not set(d0.image_ids[d0.train_mask]) & set(d1.image_ids[d1.train_mask])

    def test_single_session_indexing(self, world):
        d = generate_dataset(world, "s0", n_sessions=1, seed=1)
        assert set(d.session_index[d.train_mask]) == {0}

    def test_default_trial_counts(self, default_world):
        d = generate_dataset(default_world, "s0", seed=1)
        assert d.train_mask.sum() == 320
        assert d.is_shared.sum() == 50

    def test_pool_exhaustion_rejected(self, world):
        with pytest.raises(DataError):
            generate_dataset(world, "s0", n_sessions=100, seed=1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_per_session_rejected(self, world, trials):
        # 0 used to give a dataset without training trials, -1 a numpy ValueError
        with pytest.raises(DataError, match="trials_per_session"):
            generate_dataset(world, "s0", trials_per_session=trials, seed=1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_session_subsetting(self, world, k):
        d = generate_dataset(world, "s0", seed=1)
        sub = d.restrict_sessions(k)
        assert sub.train_mask.sum() == k * SMALL.trials_per_session
        assert sub.is_shared.sum() == SMALL.n_shared
        # chronology: the retained train trials are a prefix of the original
        np.testing.assert_array_equal(
            sub.image_ids[sub.train_mask],
            d.image_ids[d.train_mask][: k * SMALL.trials_per_session])

    def test_restrict_out_of_range(self, world):
        d = generate_dataset(world, "s0", seed=1)
        with pytest.raises(DataError):
            d.restrict_sessions(0)
        with pytest.raises(DataError):
            d.restrict_sessions(99)


class TestNormalize:
    def test_train_stats_unit(self, world):
        d = normalize(generate_dataset(world, "s0", seed=11))
        tv = d.train_voxels()
        assert np.abs(tv.mean(axis=0)).max() < 1e-6
        assert np.abs(tv.std(axis=0) - 1.0).max() < 1e-6

    def test_double_normalize_near_identity(self, world):
        d = normalize(generate_dataset(world, "s0", seed=11))
        d2 = normalize(d)
        assert np.abs(d2.voxels - d.voxels).max() < 1e-9

    def test_shared_mean_nonzero_regression_anchor(self):
        # stats come from train only, so the shared split keeps an offset;
        # value frozen from the seeded default world as a regression anchor
        w = generate_world(WorldConfig(), seed=7)
        d = normalize(generate_dataset(w, "s0", seed=11))
        shared_mean = d.shared_voxels().mean(axis=0)
        assert np.abs(shared_mean).mean() > 1e-3
        assert shared_mean[0] == pytest.approx(-0.17385914815970785, abs=1e-12)

    def test_constant_voxel_floored(self):
        d = SubjectDataset(
            subject_id="sX",
            voxels=np.column_stack([np.ones(6), np.arange(6.0)]),
            image_ids=np.arange(6, dtype=np.int64),
            session_index=np.zeros(6, dtype=np.int64),
        )
        nd = normalize(d)
        assert np.all(np.isfinite(nd.voxels))

    def test_empty_train_rejected(self):
        d = SubjectDataset(
            subject_id="sX",
            voxels=np.ones((2, 3)),
            image_ids=np.arange(2, dtype=np.int64),
            session_index=np.full(2, -1, dtype=np.int64),
        )
        with pytest.raises(DataError):
            normalize(d)


class TestFrozenEncoders:
    def test_encode_decode_roundtrip(self, default_world):
        imgs = default_world.images[5:8]
        back = decode_tokens(default_world, token_targets(default_world, imgs))
        assert back.shape == imgs.shape
        assert np.abs(back - imgs).max() < 1e-6

    def test_encode_zero_is_zero(self, world):
        z = token_targets(world, np.zeros((2, 8, 8, 3)))
        np.testing.assert_array_equal(z, np.zeros_like(z))

    def test_out_of_range_tokens_project(self, world):
        # re-encoding the least-squares pre-image orthogonally projects onto
        # the encoder range; checked against an SVD-based projector
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, world.config.token_dim))
        reenc = token_targets(world, decode_tokens(world, t))
        U = np.linalg.svd(world.encoder, full_matrices=False)[0]
        np.testing.assert_allclose(reenc, t @ U @ U.T, atol=1e-8)

    def test_teacher_vae_linear(self, world):
        a, b = world.images[0:2], world.images[2:4]
        lhs = teacher_targets(world, a + b)
        rhs = teacher_targets(world, a) + teacher_targets(world, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
        lhs_v = vae_targets(world, a + b)
        rhs_v = vae_targets(world, a) + vae_targets(world, b)
        np.testing.assert_allclose(lhs_v, rhs_v, atol=1e-9)

    def test_teacher_dim_config_echo(self, world):
        assert teacher_targets(world, world.images[:3]).shape == (3, SMALL.d_teacher)

    def test_vae_shapes_and_inverse(self, world):
        lat = vae_targets(world, world.images[2:5])
        assert lat.shape == (3, 4 * 4 * 4)
        # vae map is wide, so decode is only a least-squares pre-image;
        # re-encoding it must reproduce the latent
        px = decode_vae(world, lat.reshape(3, 4, 4, 4))
        assert px.shape == (3, 8, 8, 3)
        np.testing.assert_allclose(vae_targets(world, px), lat, atol=1e-8)

    def test_secondary_encoder_factorized(self, world):
        enc_b = secondary_token_encoder(world, m_tokens=6, d_out=16, seed=3)
        batch = enc_b.encode_batch(world, world.images[:4])
        assert batch.shape == (4, 6, 16)
        toks = token_targets(world, world.images[:4]).reshape(4, 8, 32)
        for b in range(4):
            np.testing.assert_allclose(
                batch[b], enc_b.token_map @ toks[b] @ enc_b.feature_map.T, atol=1e-12)


class TestPersistence:
    def _dirhash(self, p: Path) -> str:
        h = hashlib.sha256()
        for f in sorted(Path(p).iterdir()):
            h.update(f.name.encode())
            h.update(f.read_bytes())
        return h.hexdigest()

    def test_dataset_dir_bit_exact_roundtrip(self, world, tmp_path):
        datasets = {sid: normalize(generate_dataset(world, sid, seed=i))
                    for i, sid in enumerate(world.subject_ids)}
        d1 = tmp_path / "a"
        save_dataset_dir(d1, world, datasets)
        w2, loaded = load_dataset_dir(d1, world.config)
        d2 = tmp_path / "b"
        save_dataset_dir(d2, w2, loaded)
        assert self._dirhash(d1) == self._dirhash(d2)

    def test_loaded_fields_match_f32_values(self, world, tmp_path):
        ds = normalize(generate_dataset(world, "s0", seed=4))
        save_dataset_dir(tmp_path / "d", world, {"s0": ds})
        _, loaded = load_dataset_dir(tmp_path / "d", world.config)
        got = loaded["s0"]
        np.testing.assert_array_equal(got.voxels,
                                      ds.voxels.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(got.image_ids, ds.image_ids)
        np.testing.assert_array_equal(got.session_index, ds.session_index)
        np.testing.assert_array_equal(got.is_shared, ds.is_shared)

    def test_unnormalized_save_rejected(self, world, tmp_path):
        ds = generate_dataset(world, "s0", seed=4)
        with pytest.raises(DataError):
            save_dataset_dir(tmp_path / "d", world, {"s0": ds})

    def test_world_manifest_roundtrip(self, world, tmp_path):
        save_world_manifest(SMALL, 7, tmp_path / "world.txt")
        w2 = load_world_manifest(tmp_path / "world.txt")
        assert np.array_equal(w2.encoder, world.encoder)
        assert np.array_equal(w2.images, world.images)
