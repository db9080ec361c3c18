"""Evaluation protocols against oracles and closed-form expectations."""

import csv
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindalign import evaluate as evaluate_mod
from mindalign import seeds
from mindalign.errors import ConfigError, DataError
from mindalign.evaluate import (
    CORE_METRICS,
    EncodingModel,
    EvalConfig,
    EvalReport,
    ScalingResult,
    blend_images,
    box_blur,
    brain_correlation,
    evaluate_model,
    pixcorr,
    random_baseline_report,
    reconstruct,
    retrieval_eval,
    run_scaling,
    ssim,
    two_way_identification,
)
from mindalign.model import init_model
from mindalign.train import TrainConfig
from mindalign.world import (
    WorldConfig,
    generate_dataset,
    generate_world,
    normalize,
    token_targets,
)

from oracles import (
    box_blur_naive,
    box_blur_per_image,
    encoding_fit_svd,
    pearson_naive,
    retrieval_per_item,
    ssim_naive,
    ssim_per_image,
)
from test_acceptance import SCALE_WORLD


class TestPixCorr:
    def test_identity_and_inversion(self):
        img = np.random.default_rng(0).random((16, 16, 3))
        assert pixcorr(img, img) == pytest.approx(1.0, abs=1e-12)
        assert pixcorr(1.0 - img, img) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.random((12, 12, 3)), r.random((12, 12, 3))
        assert pixcorr(a, b) == pytest.approx(pearson_naive(a, b), abs=1e-10)

    def test_constant_image_returns_zero(self):
        img = np.random.default_rng(1).random((8, 8, 3))
        assert pixcorr(np.full_like(img, 0.5), img) == 0.0


class TestSSIM:
    def test_identity(self):
        img = np.random.default_rng(0).random((16, 16, 3))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_oracle(self, seed):
        r = np.random.default_rng(10 + seed)
        a, b = r.random((12, 12, 3)), r.random((12, 12, 3))
        assert ssim(a, b) == pytest.approx(ssim_naive(a, b), abs=1e-10)

    def test_window_too_large_rejected(self):
        with pytest.raises(DataError):
            ssim(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))

    def test_box_blur_matches_oracle(self):
        img = np.random.default_rng(2).random((10, 10, 3))
        np.testing.assert_allclose(box_blur(img), box_blur_naive(img), atol=1e-12)


class TestStackedImageMetrics:
    """A stack is scored with the bits of scoring its images one at a time."""

    @staticmethod
    def _pair(seed, n, h, w, c):
        r = np.random.default_rng(seed)
        return r.random((n, h, w, c)), r.random((n, h, w, c))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), h=st.integers(8, 20),
           w=st.integers(8, 20), c=st.integers(1, 4))
    @example(seed=0, n=6, h=8, w=8, c=3)
    @example(seed=1, n=1, h=8, w=8, c=1)
    def test_stack_equals_per_image_bit_for_bit(self, seed, n, h, w, c):
        a, b = self._pair(seed, n, h, w, c)
        scores = ssim(a, b)
        expected = np.array([ssim_per_image(a[i], b[i]) for i in range(n)])
        assert scores.shape == (n,)
        assert scores.tobytes() == expected.tobytes()
        blurred = box_blur(a)
        assert blurred.tobytes() == np.stack([box_blur_per_image(img) for img in a]).tobytes()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1), h=st.integers(8, 20), w=st.integers(8, 20),
           c=st.integers(1, 4))
    @example(seed=2, h=8, w=8, c=3)
    def test_single_image_keeps_type_and_bits(self, seed, h, w, c):
        a, b = self._pair(seed, 1, h, w, c)
        score = ssim(a[0], b[0])
        assert type(score) is float
        assert score == ssim_per_image(a[0], b[0])
        assert box_blur(a[0]).tobytes() == box_blur_per_image(a[0]).tobytes()

    @pytest.mark.parametrize("shapes", [
        ((2, 8, 8, 3), (3, 8, 8, 3)),   # stacks of different length
        ((2, 8, 8, 3), (8, 8, 3)),      # a stack against one image
        ((8, 8), (8, 8)),
        ((1, 2, 8, 8, 3), (1, 2, 8, 8, 3)),
        ((3, 7, 9, 3), (3, 7, 9, 3)),   # smaller than the window
        ((9, 7, 3), (9, 7, 3)),
    ])
    def test_ssim_shape_errors(self, shapes):
        with pytest.raises(DataError):
            ssim(np.zeros(shapes[0]), np.zeros(shapes[1]))

    @pytest.mark.parametrize("shape", [(8, 8), (1, 2, 8, 8, 3), (3, 8, 3, 3), (3, 8, 3)])
    def test_box_blur_shape_errors(self, shape):
        with pytest.raises(DataError):
            box_blur(np.zeros(shape))


class TestRetrievalOnePass:
    """Each repetition scored in one pass equals the per-item loop."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40), d=st.integers(1, 8),
           reps=st.integers(1, 5), ties=st.booleans())
    def test_full_pool_equals_per_item_loop(self, seed, n, d, reps, ties):
        emb, temb = self._embeddings(seed, n, d, ties)
        got = retrieval_eval(emb, temb, pool_size=n, repetitions=reps, seed=seed)
        assert got == retrieval_per_item(emb, temb, n, reps, rng=None)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 40), d=st.integers(1, 8),
           reps=st.integers(1, 5), ties=st.booleans(), data=st.data())
    def test_subsampled_pools_equal_per_item_loop(self, seed, n, d, reps, ties, data):
        pool = data.draw(st.integers(2, n - 1))
        emb, temb = self._embeddings(seed, n, d, ties)
        got = retrieval_eval(emb, temb, pool_size=pool, repetitions=reps, seed=seed)
        assert got == retrieval_per_item(emb, temb, pool, reps,
                                         rng=seeds.rng(seed, "retrieval-pools"))

    @staticmethod
    def _embeddings(seed, n, d, ties):
        r = np.random.default_rng(seed)
        emb = r.normal(size=(n, d))
        temb = emb + 2.0 * r.normal(size=(n, d))
        # rounding makes equal similarities, where a tie must count as a miss
        return (np.round(emb), np.round(temb)) if ties else (emb, temb)

    @pytest.mark.parametrize("n, pool_size, repetitions", [
        (10, 10, 0), (10, 1, 1), (10, 0, 1), (0, 0, 1), (0, 2, 1)])
    def test_unscorable_arguments_rejected(self, n, pool_size, repetitions):
        emb = np.random.default_rng(0).normal(size=(n, 4))
        with pytest.raises(DataError):
            retrieval_eval(emb, emb, pool_size=pool_size, repetitions=repetitions)


class TestRetrieval:
    def test_perfect_embeddings(self):
        emb = np.random.default_rng(0).normal(size=(40, 12))
        res = retrieval_eval(emb, emb, pool_size=40, repetitions=5, seed=1)
        assert res == {"image_retrieval": 1.0, "brain_retrieval": 1.0}

    def test_random_embeddings_near_chance_pool_300(self):
        # mean over many seeds concentrates at 1/300
        accs = []
        for s in range(30):
            r = np.random.default_rng(s)
            res = retrieval_eval(r.normal(size=(300, 8)), r.normal(size=(300, 8)),
                                 pool_size=300, repetitions=1, seed=s)
            accs.append(res["image_retrieval"])
        sigma = np.sqrt((1 / 300) * (299 / 300) / (300 * 30))
        assert abs(np.mean(accs) - 1 / 300) < 3 * sigma + 1e-9

    def test_random_embeddings_near_chance_pool_50(self):
        accs = []
        for s in range(40):
            r = np.random.default_rng(1000 + s)
            res = retrieval_eval(r.normal(size=(50, 8)), r.normal(size=(50, 8)),
                                 pool_size=50, repetitions=1, seed=s)
            accs.append(res["image_retrieval"])
        sigma = np.sqrt(0.02 * 0.98 / (50 * 40))
        assert abs(np.mean(accs) - 0.02) < 3 * sigma

    def test_subsampled_pools_seeded(self):
        r = np.random.default_rng(3)
        emb, temb = r.normal(size=(30, 6)), r.normal(size=(30, 6))
        a = retrieval_eval(emb, temb, pool_size=10, repetitions=4, seed=9)
        b = retrieval_eval(emb, temb, pool_size=10, repetitions=4, seed=9)
        assert a == b

    def test_pool_exceeding_test_set_rejected(self):
        emb = np.zeros((10, 4))
        with pytest.raises(DataError):
            retrieval_eval(emb, emb, pool_size=11, repetitions=1, seed=0)


class TestTwoWay:
    def test_perfect_reconstructions(self, tiny_world):
        imgs = tiny_world.images[:10]
        assert two_way_identification(imgs, imgs, "lowlevel", tiny_world) == 1.0
        assert two_way_identification(imgs, imgs, "highlevel", tiny_world) == 1.0

    def test_independent_reconstructions_near_half(self, tiny_world):
        # per-item scores of unrelated recons are rank-uniform, so the mean
        # has std sqrt(1/(12 n)); check a 3-sigma band over several seeds
        scores = []
        for s in range(10):
            r = np.random.default_rng(s)
            recons = r.random((16, 8, 8, 3))
            truths = tiny_world.images[:16]
            scores.append(two_way_identification(recons, truths, "lowlevel",
                                                 tiny_world))
        sigma = np.sqrt(1.0 / (12 * 16) / 10)
        assert abs(np.mean(scores) - 0.5) < 3 * sigma

    def test_two_items_quantized(self, tiny_world):
        r = np.random.default_rng(4)
        recons = r.random((2, 8, 8, 3))
        score = two_way_identification(recons, tiny_world.images[:2], "lowlevel",
                                       tiny_world)
        assert score in (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("feature_map", ["lowlevel", "highlevel"])
    def test_one_item_rejected(self, tiny_world, feature_map):
        imgs = tiny_world.images[:1]
        with pytest.raises(DataError, match="at least 2 items"):
            two_way_identification(imgs, imgs, feature_map, tiny_world)

    def test_constant_features_rejected(self, tiny_world):
        imgs = np.full((4, 8, 8, 3), 0.3)
        with pytest.raises(DataError):
            two_way_identification(imgs, imgs, "lowlevel", tiny_world)


class TestEncodingModel:
    def _noiseless(self):
        cfg = WorldConfig(image_hw=8, channels=3, n_tokens=8, d_token=32, vae_hw=4,
                          n_subjects=2, voxels_min=40, voxels_max=60, n_sessions=4,
                          trials_per_session=20, n_shared=16, noise_sigma=0.0)
        world = generate_world(cfg, 3)
        ds = normalize(generate_dataset(world, "s0", seed=5))
        return world, ds

    def test_oracle_enc_truth_recons_near_one(self):
        world, ds = self._noiseless()
        enc = EncodingModel.oracle(world, "s0")
        imgs = world.images[ds.image_ids[ds.is_shared]]
        scores = brain_correlation(imgs, ds.shared_voxels(), enc)
        for region, r in scores.items():
            assert r > 1.0 - 1e-6, region

    def test_shuffled_pairing_near_zero(self):
        world, ds = self._noiseless()
        enc = EncodingModel.oracle(world, "s0")
        imgs = world.images[ds.image_ids[ds.is_shared]]
        perm = np.random.default_rng(0).permutation(imgs.shape[0])
        scores = brain_correlation(imgs[perm], ds.shared_voxels(), enc)
        # mean voxel correlation under independence: 3 sigma with n=16 items
        assert abs(scores["all"]) < 3.0 / np.sqrt(16 - 1) / np.sqrt(enc.weights.shape[0]) * 10

    def test_region_cover_weighted_mean_identity(self):
        world, ds = self._noiseless()
        enc = EncodingModel.oracle(world, "s0")
        r = np.random.default_rng(1)
        recons = r.random((16,) + world.images.shape[1:])
        scores = brain_correlation(recons, ds.shared_voxels(), enc)
        weights = {name: len(idx) for name, idx in enc.regions.items()}
        total = sum(weights.values())
        weighted = sum(scores[name] * w / total for name, w in weights.items())
        assert weighted == pytest.approx(scores["all"], abs=1e-10)

    def test_fit_ignores_shared_split(self):
        world, ds = self._noiseless()
        enc1 = EncodingModel.fit_from_dataset(world, ds)
        corrupted = ds.voxels.copy()
        corrupted[ds.is_shared] = 1e6
        ds2 = type(ds)(subject_id=ds.subject_id, voxels=corrupted,
                       image_ids=ds.image_ids, session_index=ds.session_index,
                       normalized=True)
        enc2 = EncodingModel.fit_from_dataset(world, ds2)
        np.testing.assert_array_equal(enc1.weights, enc2.weights)

    def test_fitted_enc_predicts_noiseless_world(self):
        world, ds = self._noiseless()
        enc = EncodingModel.fit_from_dataset(world, ds)
        imgs = world.images[ds.image_ids[ds.is_shared]]
        scores = brain_correlation(imgs, ds.shared_voxels(), enc)
        assert scores["all"] > 0.99

    def _assert_fit_matches_svd(self, world, ds, corr_tol=1e-12):
        """The dual fit picks the primal SVD fit's strengths, and its weights
        and brain correlations agree to rounding."""
        mask = ds.train_mask
        images, voxels = world.images[ds.image_ids[mask]], ds.voxels[mask]
        regions = world.regions[ds.subject_id]
        enc = EncodingModel.fit(images, voxels, regions)
        weights, intercept, strengths = encoding_fit_svd(images, voxels, regions)
        assert enc.reg_strength == strengths
        # relative to the largest entry: at the smallest strength an entry
        # near zero keeps only the rounding of its larger neighbours
        for got, want in ((enc.weights, weights), (enc.intercept, intercept)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        svd_enc = EncodingModel(weights=weights, intercept=intercept, regions=regions,
                                reg_strength=strengths)
        truths = world.images[ds.image_ids[ds.is_shared]]
        noisy = truths + 0.3 * np.random.default_rng(2).standard_normal(truths.shape)
        for recons in (truths, noisy):
            got = brain_correlation(recons, ds.shared_voxels(), enc)
            want = brain_correlation(recons, ds.shared_voxels(), svd_enc)
            assert got.keys() == want.keys()
            for region in want:
                assert abs(got[region] - want[region]) <= corr_tol, region

    def test_fit_matches_svd_oracle_noiseless(self):
        self._assert_fit_matches_svd(*self._noiseless())

    def test_fit_matches_svd_oracle_tiny_world(self, tiny_world, tiny_datasets):
        for sid in ("s0", "s3"):
            self._assert_fit_matches_svd(tiny_world, tiny_datasets[sid])

    def test_fit_matches_svd_oracle_scale_world(self):
        world = generate_world(SCALE_WORLD, seed=11)
        self._assert_fit_matches_svd(world, normalize(generate_dataset(world, "s3", seed=4)))

    @staticmethod
    def _sixteen_pixel_world(n_sessions, trials_per_session):
        """A world of 4 x 4 grey images whose subjects have
        ``n_sessions * trials_per_session`` training trials each."""
        cfg = WorldConfig(image_hw=4, channels=1, n_tokens=4, d_token=8, vae_hw=2,
                          n_subjects=2, voxels_min=20, voxels_max=30, n_sessions=n_sessions,
                          trials_per_session=trials_per_session, n_shared=8)
        world = generate_world(cfg, 5)
        return world, normalize(generate_dataset(world, "s1", seed=6))

    def test_more_trials_than_pixels_matches_the_svd_oracle(self):
        # 80 training trials over 16 pixels: the 80 x 80 Gram matrix has rank
        # 16 at most, and the degrees-of-freedom cap is p
        world, ds = self._sixteen_pixel_world(4, 20)
        assert ds.train_mask.sum() == 80 > world.images[0].size == 16
        self._assert_fit_matches_svd(world, ds)

    # n = p and n = p + 1, the two sides of the cap's switch from n - 1 to p.
    # At n = p GCV picks 1e-6 for V2, where the Gram matrix's squared
    # condition number leaves about 1e-10 of rounding in the dual's weights
    # (1.2e-10 against a 60-digit solve, the SVD's 2.2e-13), so brain
    # correlations agree to that order, not to 1e-12
    @pytest.mark.parametrize("n_sessions, trials_per_session, corr_tol",
                             [(4, 4, 1e-10), (1, 17, 1e-12)])
    def test_trials_at_the_pixel_count_match_the_svd_oracle(self, n_sessions,
                                                             trials_per_session, corr_tol):
        world, ds = self._sixteen_pixel_world(n_sessions, trials_per_session)
        assert ds.train_mask.sum() == n_sessions * trials_per_session
        self._assert_fit_matches_svd(world, ds, corr_tol)

    def test_zero_voxel_region_rejected(self):
        world, ds = self._noiseless()
        oracle = EncodingModel.oracle(world, "s0")
        enc = EncodingModel(weights=oracle.weights, intercept=oracle.intercept,
                            regions={"empty": np.array([], dtype=int)},
                            reg_strength={"empty": 0.0})
        imgs = world.images[ds.image_ids[ds.is_shared]]
        with pytest.raises(DataError):
            brain_correlation(imgs, ds.shared_voxels(), enc)


class TestReconstruct:
    def test_blend_identity_and_ratio(self):
        r = np.random.default_rng(0)
        a = r.random((4, 4, 3))
        np.testing.assert_allclose(blend_images(a, a), a, atol=1e-15)
        np.testing.assert_array_equal(
            blend_images(np.ones((2, 2, 1)), np.zeros((2, 2, 1))),
            np.full((2, 2, 1), 0.8))
        b = r.random((4, 4, 3))
        np.testing.assert_allclose(blend_images(a, b), 0.8 * a + 0.2 * b, atol=1e-15)

    def test_deterministic_and_shaped(self, tiny_world, tiny_datasets, tiny_mcfg):
        ds = tiny_datasets["s0"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": ds.n_voxels}, seed=4)
        vox = ds.shared_voxels()[:3]
        a = reconstruct(mp, tiny_world, vox, "s0", seed=8)
        b = reconstruct(mp, tiny_world, vox, "s0", seed=8)
        for key in ("unrefined", "lowlevel", "final"):
            np.testing.assert_array_equal(a[key], b[key])
            assert a[key].shape == (3, 8, 8, 3)
        assert a["final"].min() >= 0.0 and a["final"].max() <= 1.0

    def test_unknown_subject(self, tiny_world, tiny_datasets, tiny_mcfg):
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": 40}, seed=4)
        with pytest.raises(DataError):
            reconstruct(mp, tiny_world, np.zeros((1, 40)), "sX", seed=0)


class TestEvaluateModel:
    def test_untrained_report_fields(self, tiny_world, tiny_datasets, tiny_mcfg):
        ds = tiny_datasets["s0"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": ds.n_voxels}, seed=4)
        cfg = EvalConfig(pool_size=16, repetitions=3, seed=0, include_brain_corr=True)
        rep = evaluate_model(mp, tiny_world, ds, cfg)
        for key in CORE_METRICS:
            assert key in rep.metrics
        assert "brain_corr_V1" in rep.metrics
        assert rep.protocol["chance"] == pytest.approx(1 / 16)
        assert 0.0 <= rep.metrics["image_retrieval"] <= 1.0
        assert -1.0 <= rep.metrics["pixcorr"] <= 1.0

    def test_brain_correlation_matches_svd_fit(self, tiny_world, tiny_datasets, tiny_mcfg):
        ds = tiny_datasets["s1"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s1": ds.n_voxels}, seed=4)
        cfg = EvalConfig(pool_size=16, repetitions=2, seed=0, include_brain_corr=True)
        rep = evaluate_model(mp, tiny_world, ds, cfg)
        mask = ds.train_mask
        regions = tiny_world.regions["s1"]
        weights, intercept, strengths = encoding_fit_svd(
            tiny_world.images[ds.image_ids[mask]], ds.voxels[mask], regions)
        want = brain_correlation(rep.recons, ds.shared_voxels(), EncodingModel(
            weights=weights, intercept=intercept, regions=regions, reg_strength=strengths))
        for region, r in want.items():
            assert abs(rep.metrics[f"brain_corr_{region}"] - r) <= 1e-12, region

    def test_truth_tokens_computed_once(self, tiny_world, tiny_datasets, tiny_mcfg,
                                        monkeypatch):
        # the retrieval targets and the high-level two-way score share one
        # token_targets call on the truths; the recons take the other
        ds = tiny_datasets["s0"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": ds.n_voxels}, seed=4)
        calls = []

        def counted(world, images):
            calls.append(images)
            return token_targets(world, images)

        monkeypatch.setattr(evaluate_mod, "token_targets", counted)
        rep = evaluate_model(mp, tiny_world, ds, EvalConfig(pool_size=16, repetitions=2))
        truths = tiny_world.images[ds.image_ids[ds.is_shared]]
        assert len(calls) == 2
        assert np.array_equal(calls[0], truths) and calls[1] is rep.recons
        assert rep.metrics["twoway_high"] == two_way_identification(
            rep.recons, truths, "highlevel", tiny_world)

    def test_retrieval_only_when_reconstruction_excluded(self, tiny_world,
                                                         tiny_datasets, tiny_mcfg):
        ds = tiny_datasets["s0"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": ds.n_voxels}, seed=4)
        rep = evaluate_model(mp, tiny_world, ds, EvalConfig(pool_size=16,
                                                            repetitions=2),
                             include_reconstruction=False)
        assert "image_retrieval" in rep.metrics
        assert "pixcorr" not in rep.metrics

    def test_pool_size_validation(self, tiny_world, tiny_datasets, tiny_mcfg):
        ds = tiny_datasets["s0"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": ds.n_voxels}, seed=4)
        with pytest.raises(ConfigError):
            evaluate_model(mp, tiny_world, ds, EvalConfig(pool_size=300))

    def test_a_second_call_keeps_no_arrays(self, tiny_world, tiny_datasets, tiny_mcfg):
        # evaluation holds no arrays between calls, so repeated calls cannot
        # raise the process peak by what they keep
        ds = tiny_datasets["s0"]
        mp = init_model(tiny_world.config, tiny_mcfg, {"s0": ds.n_voxels}, seed=4)
        cfg = EvalConfig(pool_size=16, repetitions=2, seed=0, include_brain_corr=True)
        tracemalloc.start()
        try:
            left = []
            for _ in range(2):
                evaluate_model(mp, tiny_world, ds, cfg)
                gc.collect()
                left.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert left[1] - left[0] <= 64 * 1024

    def test_report_text_format(self):
        rep = EvalReport(metrics={"pixcorr": 0.123456789},
                         protocol={"pool_size": 50, "seed": 1})
        text = rep.to_text()
        assert "metric.pixcorr = 0.123457" in text
        assert "protocol.pool_size = 50" in text


class TestScalingNormalization:
    def _stub_result(self):
        def rep(val):
            return EvalReport(metrics={m: val for m in CORE_METRICS}, protocol={})

        arms = {"pretrained": {1: rep(0.4), 2: rep(0.7), 4: rep(1.0)},
                "scratch": {1: rep(0.2), 2: rep(0.5), 4: rep(0.9)}}
        return ScalingResult(arms=arms, baseline=rep(0.0), anchor=rep(1.0), seed=3)

    def test_anchor_maps_to_one_baseline_to_zero(self):
        res = self._stub_result()
        assert res.normalized("pretrained", 4, "pixcorr") == pytest.approx(1.0)
        assert res.normalized_mean("pretrained", 4) == pytest.approx(1.0)
        # a report equal to the baseline scores zero
        res.arms["scratch"][1] = EvalReport(
            metrics={m: 0.0 for m in CORE_METRICS}, protocol={})
        assert res.normalized_mean("scratch", 1) == pytest.approx(0.0)

    def test_csv_rows_cover_grid(self, tmp_path):
        res = self._stub_result()
        rows = res.csv_rows()
        arms = {(r[0], r[1]) for r in rows}
        for k in (1, 2, 4):
            assert ("pretrained", k) in arms and ("scratch", k) in arms
        assert ("baseline", 0) in arms and ("anchor", 0) in arms
        res.write_csv(tmp_path / "curve.csv")
        header = (tmp_path / "curve.csv").read_text().splitlines()[0]
        assert header == "arm,k_sessions,metric_name,value,seed"

    def test_curve_csv_round_trips_every_value(self, tmp_path):
        # values whose repr needs 17 digits, numpy floats among them
        def rep(shift):
            return EvalReport(metrics={m: (np.float64 if i % 2 else float)(i / 7 + shift)
                                       for i, m in enumerate(CORE_METRICS)}, protocol={})

        res = ScalingResult(arms={"pretrained": {1: rep(0.1), 3: rep(0.3)},
                                  "scratch": {1: rep(0.2)}},
                            baseline=rep(0.0), anchor=rep(1 / 3), seed=3)
        rows = res.csv_rows()
        res.write_csv(tmp_path / "curve.csv")
        with open(tmp_path / "curve.csv", newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["arm", "k_sessions", "metric_name", "value", "seed"]
        assert [(arm, int(k), name, float(value), int(seed))
                for arm, k, name, value, seed in parsed[1:]] == rows
        # every core metric's span is valid, so norm_mean is normalized_mean's
        assert {(arm, k): v for arm, k, name, v, _ in rows if name == "norm_mean"} == {
            (arm, k): res.normalized_mean(arm, k)
            for arm, curve in res.arms.items() for k in curve}

    def test_degenerate_span_rejected(self):
        res = self._stub_result()
        res.anchor = res.baseline
        with pytest.raises(DataError):
            res.normalized("pretrained", 1, "pixcorr")

    def test_bad_session_grid_refused_before_any_training(self, tiny_world, tiny_datasets,
                                                          tiny_mcfg, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("trained before the session grid was checked")

        for name in ("pretrain", "finetune", "train_from_scratch"):
            monkeypatch.setattr(evaluate_mod, name, counting)
        with pytest.raises(DataError, match=r"k=9 outside available sessions \[1, 4\]"):
            run_scaling(tiny_world, tiny_datasets, "s3", (1, 2, 9), ("pretrained", "scratch"),
                        TrainConfig(held_out_subject="s3"), tiny_mcfg,
                        EvalConfig(pool_size=16, repetitions=2))
        assert calls == []

    def test_repeated_session_count_trains_once(self, tiny_world, tiny_datasets,
                                                tiny_mcfg, monkeypatch):
        calls = []

        def recording(name, k_arg):  # k_arg: where the call takes its session count
            def call(*args):
                calls.append((name, None if k_arg is None else args[k_arg]))
                return f"{name} model", None
            return call

        for name, k_arg in (("pretrain", None), ("finetune", 3), ("train_from_scratch", 2)):
            monkeypatch.setattr(evaluate_mod, name, recording(name, k_arg))
        monkeypatch.setattr(evaluate_mod, "evaluate_model",
                            lambda *args, **kwargs: EvalReport(metrics={}, protocol={}))
        result = run_scaling(tiny_world, tiny_datasets, "s3", (2, 1, 2, 1),
                             ("pretrained", "scratch"), TrainConfig(held_out_subject="s3"),
                             tiny_mcfg, EvalConfig(pool_size=16, repetitions=2))
        # the anchor fine-tunes on all 4 sessions, which the grid lacks
        assert calls == [("pretrain", None), ("finetune", 2), ("finetune", 1),
                         ("train_from_scratch", 2), ("train_from_scratch", 1),
                         ("finetune", 4)]
        assert {arm: list(curve) for arm, curve in result.arms.items()} == {
            "pretrained": [2, 1], "scratch": [2, 1]}

    def test_random_baseline_twoway_near_half(self, tiny_world, tiny_datasets):
        rep = random_baseline_report(tiny_world, tiny_datasets["s0"],
                                     EvalConfig(pool_size=16, repetitions=2, seed=0))
        assert 0.2 < rep.metrics["twoway_low"] < 0.8
        assert rep.metrics["image_retrieval"] == pytest.approx(1 / 16)


class TestImageSerialization:
    def test_ppm_plus_array_file_roundtrip(self, tmp_path):
        from mindalign.evaluate import save_image
        from mindalign.store import read_arrays, write_arrays
        img = np.random.default_rng(0).random((8, 10, 3))
        save_image(tmp_path / "x.ppm", img)
        raw = (tmp_path / "x.ppm").read_bytes()
        assert raw.startswith(b"P6\n10 8\n255\n")
        assert len(raw) == len(b"P6\n10 8\n255\n") + 8 * 10 * 3
        assert [f.name for f in tmp_path.iterdir()] == ["x.ppm"]
        # the array file keeps the image at f32 precision
        write_arrays(tmp_path / "images.bin", {}, {"recon": img[None].astype("<f4")})
        items, arrays = read_arrays(tmp_path / "images.bin")
        assert items == {}
        np.testing.assert_array_equal(arrays["recon"][0],
                                      img.astype(np.float32))

    def test_non_rgb_rejected(self, tmp_path):
        from mindalign.evaluate import save_image
        with pytest.raises(DataError):
            save_image(tmp_path / "y.ppm", np.zeros((4, 4, 1)))
