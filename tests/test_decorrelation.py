import re

import numpy as np
import pytest

from densemble import autodiff as ad
from densemble.autodiff import Tensor
from densemble.config import decor_from_config, resolve_config
from densemble.decorrelation import (
    CACHE_BATCH,
    DecorConfig,
    FeatureCache,
    build_cache,
    correlation_r2,
    decor_loss,
    ensemble_decor_loss,
    load_cache,
    save_cache,
)
from densemble.model import ArchConfig, forward, init_params
from densemble.storage import write_container

from oracles import assert_traced_peak, central_diff_grad, normal_equations_residual, rel_err


def decor_cfg(**decor) -> DecorConfig:
    """The default decorrelation settings with `decor` merged over them."""
    return decor_from_config(resolve_config({"decor": decor}))


CFG = decor_cfg(projection_dim=5, seed=9)

# Step seeds whose coin (the first draw of ensemble_decor_loss) projects the
# frozen side, and the current side.
FROZEN_SEED, LIVE_SEED = 3, 0


def replayed_projection(seed, d: int, r: int) -> np.ndarray:
    """The projection ensemble_decor_loss draws from `seed`: the coin, then
    a (d, r) matrix of N(0, 1/sqrt(d)) entries."""
    rng = np.random.default_rng(seed)
    rng.random()
    return rng.normal(0.0, 1.0 / np.sqrt(d), (d, r))


def _cache_from(matrix, model_id="arm0", provenance=None):
    ids = tuple(f"s{i}" for i in range(matrix.shape[0]))
    return FeatureCache(model_id=model_id, sample_ids=ids, features=matrix,
                        provenance=provenance or {})


def one_cache_loss(zk: Tensor, zi: np.ndarray, cfg: DecorConfig, seed) -> Tensor:
    """ensemble_decor_loss against the one frozen batch `zi`, row for row."""
    return ensemble_decor_loss(zk, [zi], np.arange(len(zi)), cfg, seed)


@pytest.fixture()
def generators(monkeypatch):
    """Every np.random.default_rng built from now on, each recording the
    arrays its normal() returns."""
    built, real = [], np.random.default_rng

    class Recording:
        def __init__(self, seed=None):
            self.rng, self.normals = real(seed), []
            built.append(self)

        def random(self, *args, **kwargs):
            return self.rng.random(*args, **kwargs)

        def normal(self, *args, **kwargs):
            self.normals.append(self.rng.normal(*args, **kwargs))
            return self.normals[-1]

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return built


class TestCorrelationR2:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(40)
        zr = rng.normal(size=(30, 4))
        zt = zr @ rng.normal(size=(4, 3)) + rng.normal(size=3)
        assert abs(correlation_r2(zr, zt) - 1.0) < 1e-10

    def test_intercept_only(self):
        rng = np.random.default_rng(41)
        zt = rng.normal(size=(20, 3))
        zt -= zt.mean(axis=0)
        assert abs(correlation_r2(np.zeros((20, 2)), zt)) < 1e-10

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        zr = rng.normal(size=(80, 50))
        zt = rng.normal(size=(80, 64))
        ss_res, ss_tot = normal_equations_residual(zr, zt)
        assert abs(correlation_r2(zr, zt) - (1 - ss_res / ss_tot)) < 1e-8


class TestDecorLoss:
    def test_perfect_fit_value(self):
        # normalized target: SS_total == 1 and SS_res == 0, so the loss is
        # log(1 + 1e-5) - log(1e-5) = 11.51293...
        rng = np.random.default_rng(43)
        zr = rng.normal(size=(30, 4))
        zt = zr @ rng.normal(size=(4, 2)) + rng.normal(size=2)
        zt = zt / np.linalg.norm(zt)
        loss = decor_loss(Tensor(zr), Tensor(zt), 1e-5)
        expected = np.log(1 + 1e-5) - np.log(1e-5)
        assert abs(loss.item() - expected) < 1e-6

    def test_uncorrelated_is_zero(self):
        rng = np.random.default_rng(44)
        zt = rng.normal(size=(25, 3))
        zt -= zt.mean(axis=0)
        loss = decor_loss(Tensor(np.zeros((25, 2))), Tensor(zt), 1e-5)
        assert abs(loss.item()) < 1e-9

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(45)
        zr0 = rng.normal(size=(20, 3))
        zt0 = rng.normal(size=(20, 2))

        zr = Tensor(zr0, requires_grad=True)
        zt = Tensor(zt0, requires_grad=True)
        decor_loss(zr, zt, 1e-5).backward()
        fd_zr = central_diff_grad(
            lambda v: decor_loss(Tensor(v), Tensor(zt0), 1e-5).item(), zr0
        )
        fd_zt = central_diff_grad(
            lambda v: decor_loss(Tensor(zr0), Tensor(v), 1e-5).item(), zt0
        )
        assert rel_err(zr.grad, fd_zr) < 1e-5
        assert rel_err(zt.grad, fd_zt) < 1e-5

    def test_residual_replacement_decreases_loss(self):
        # moving the target toward its own residual drives the loss to ~0
        rng = np.random.default_rng(46)
        zr0 = rng.normal(size=(24, 3))
        zt0 = zr0 @ rng.normal(size=(3, 2)) + 0.3 * rng.normal(size=(24, 2))
        zb = np.concatenate([zr0, np.ones((24, 1))], axis=1)
        hat = zb @ np.linalg.pinv(zb)
        resid = zt0 - hat @ zt0
        losses = []
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            zt = (1 - theta) * (hat @ zt0) + resid
            losses.append(decor_loss(Tensor(zr0), Tensor(zt), 1e-5).item())
        assert all(losses[i] > losses[i + 1] for i in range(len(losses) - 1))
        assert losses[-1] < 1e-6


class TestEnsembleDecorLoss:
    def test_seeds_land_each_way(self):
        assert np.random.default_rng(FROZEN_SEED).random() < 0.5
        assert np.random.default_rng(LIVE_SEED).random() >= 0.5

    def test_one_generator_and_one_projection_per_step(self, generators):
        # the coin and the (D, r) projection are drawn once, however many
        # earlier models the step regresses against
        rng = np.random.default_rng(61)
        zk, f0, f1 = (rng.normal(size=(20, 6)) for _ in range(3))
        for seed in (FROZEN_SEED, LIVE_SEED):
            del generators[:]
            ensemble_decor_loss(Tensor(zk), [f0, f1], np.arange(20), CFG, seed)
            assert len(generators) == 1
            assert [p.shape for p in generators[0].normals] == [(6, 5)]

    def test_projection_entries(self, generators):
        # N(0, 1/sqrt(D)) entries: D=64, r=50, 320 steps of 3,200 entries
        rng = np.random.default_rng(62)
        zk, frozen = Tensor(rng.normal(size=(80, 64))), rng.normal(size=(80, 64))
        cfg = decor_cfg(projection_dim=50, seed=0)
        del generators[:]
        for s in range(320):
            one_cache_loss(zk, frozen, cfg, s)
        big = np.concatenate([g.normals[0].ravel() for g in generators])
        assert big.size >= 1_000_000
        assert abs(big.mean()) < 0.001
        assert abs(big.std() - 0.125) / 0.125 < 0.01
        assert not np.array_equal(generators[1].normals[0], generators[2].normals[0])

    def test_frozen_twin_matches_self_regression(self):
        # both branches compute the self-regression value of their draw
        rng = np.random.default_rng(47)
        z = rng.normal(size=(20, 8))
        zk = Tensor(z.copy(), requires_grad=True)
        for seed in (FROZEN_SEED, LIVE_SEED):
            loss = one_cache_loss(zk, z.copy(), CFG, seed)
            proj = replayed_projection(seed, 8, 5)
            direct = decor_loss(Tensor(z), Tensor(z @ proj), CFG.stab_eps)
            assert abs(loss.item() - direct.item()) < 1e-9

    def test_each_branch_is_decor_loss_on_the_replayed_draw(self):
        rng = np.random.default_rng(48)
        zk0 = rng.normal(size=(20, 6))
        zi = rng.normal(size=(20, 6))
        frozen = one_cache_loss(Tensor(zk0), zi, CFG, FROZEN_SEED)
        proj = replayed_projection(FROZEN_SEED, 6, 5)
        assert frozen.item() == decor_loss(Tensor(zk0), Tensor(zi @ proj), 1e-5).item()
        live = one_cache_loss(Tensor(zk0), zi, CFG, LIVE_SEED)
        proj = replayed_projection(LIVE_SEED, 6, 5)
        assert live.item() == decor_loss(Tensor(zi), Tensor(zk0 @ proj), 1e-5).item()

    def test_branch_frequency(self):
        # zi = 0 makes the project-frozen branch exactly 0 (both sums of
        # squares vanish), so the branch taken is observable from the value
        rng = np.random.default_rng(64)
        cfg = decor_cfg(projection_dim=2, seed=0)
        zk = Tensor(rng.normal(size=(8, 3)) + 1.0)
        zi = np.zeros((8, 3))
        frozen_branch = [
            one_cache_loss(zk, zi, cfg, np.random.SeedSequence([11, s])).item() == 0.0
            for s in range(10_000)
        ]
        assert abs(np.mean(frozen_branch) - 0.5) < 0.02

    def test_both_branches_symmetric_under_swap(self):
        # the frozen branch on (a, b) and the live branch on (b, a) both
        # regress a projected b on a
        rng = np.random.default_rng(49)
        a = rng.normal(size=(20, 6))
        b = rng.normal(size=(20, 6))
        for seed, zk, zi in ((FROZEN_SEED, a, b), (LIVE_SEED, b, a)):
            direct = decor_loss(Tensor(a), Tensor(b @ replayed_projection(seed, 6, 5)), 1e-5)
            assert abs(one_cache_loss(Tensor(zk), zi, CFG, seed).item() - direct.item()) < 1e-12

    def test_gradient_reaches_current_not_frozen(self):
        rng = np.random.default_rng(50)
        zk = Tensor(rng.normal(size=(20, 6)), requires_grad=True)
        frozen = rng.normal(size=(20, 6))
        for seed in (FROZEN_SEED, LIVE_SEED):
            zk.grad = None
            one_cache_loss(zk, frozen, CFG, seed).backward()
            assert zk.grad is not None
            assert np.any(zk.grad != 0)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="underdetermined"):
            one_cache_loss(Tensor(np.ones((6, 8))), np.ones((6, 8)), CFG, 0)

    def test_single_cache_looks_up_the_batch_rows(self):
        rng = np.random.default_rng(51)
        zk0 = rng.normal(size=(20, 6))
        frozen = rng.normal(size=(30, 6))
        idx = np.arange(5, 25)
        loss = ensemble_decor_loss(Tensor(zk0), [frozen], idx, CFG, 12)
        direct = one_cache_loss(Tensor(zk0), frozen[idx], CFG, 12)
        assert abs(loss.item() - direct.item()) < 1e-12

    def test_equal_caches_mean(self):
        rng = np.random.default_rng(52)
        zk0 = rng.normal(size=(20, 6))
        frozen = rng.normal(size=(20, 6))
        idx = np.arange(20)
        loss = ensemble_decor_loss(Tensor(zk0), [frozen, frozen.copy()], idx, CFG, 4)
        single = one_cache_loss(Tensor(zk0), frozen, CFG, 4)
        assert abs(loss.item() - single.item()) < 1e-12

    def test_two_caches_arithmetic_mean(self):
        rng = np.random.default_rng(53)
        zk0 = rng.normal(size=(20, 6))
        f0 = rng.normal(size=(20, 6))
        f1 = rng.normal(size=(20, 6))
        idx = np.arange(20)
        loss = ensemble_decor_loss(Tensor(zk0), [f0, f1], idx, CFG, 8)
        l0 = one_cache_loss(Tensor(zk0), f0, CFG, 8)
        l1 = one_cache_loss(Tensor(zk0), f1, CFG, 8)
        assert abs(loss.item() - (l0.item() + l1.item()) / 2) < 1e-12

    def test_missing_rows(self):
        with pytest.raises(IndexError):
            ensemble_decor_loss(Tensor(np.ones((5, 6))), [np.ones((10, 6))], np.array([8, 12]),
                                CFG, 0)


class TestFeatureCache:
    ARCH = ArchConfig(conv_blocks=((4, 5, 2),), feature_dim=8, num_classes=2,
                      input_length=16)

    def test_rows_match_forward(self):
        # more rows than one forward pass of build_cache takes
        n = 2 * CACHE_BATCH + 44
        params = init_params(self.ARCH, 31)
        x = np.random.default_rng(57).normal(size=(n, 16))
        features = build_cache(params, x)
        _, feats = forward(params, x)
        assert np.allclose(features, feats.data, atol=1e-12)

    def test_traced_peak_of_build_cache(self):
        # a forward pass without gradients frees each activation once the
        # next exists: over a 405-row train split with the default arch, in
        # chunks of 80 rows, about 8.7 MB (27.4 MB in chunks of 256; 64.0 MB
        # with every chunk's graph held to its end)
        params = init_params(ArchConfig(), np.random.SeedSequence(0))
        x = np.random.default_rng(0).standard_normal((405, params.arch.input_length))
        assert_traced_peak("build_cache over 405 rows",
                           lambda: build_cache(params, x), 10_000_000)

    def test_rebuild_identical(self):
        params = init_params(self.ARCH, 32)
        x = np.random.default_rng(58).normal(size=(9, 16))
        assert np.array_equal(build_cache(params, x), build_cache(params, x))

    def test_cache_vs_live_twin_loss(self):
        params = init_params(self.ARCH, 33)
        rng = np.random.default_rng(59)
        x = rng.normal(size=(14, 16))
        features = build_cache(params, x)
        live = forward(params, x)[1].data
        zk = Tensor(rng.normal(size=(14, 8)))
        cfg = decor_cfg(projection_dim=4, seed=0)
        from_cache = ensemble_decor_loss(zk, [features], np.arange(14), cfg, 6)
        from_live = one_cache_loss(zk, live, cfg, 6)
        assert from_cache.item() == from_live.item()

    def test_cache_read_only(self):
        cache = _cache_from(np.ones((4, 3)))
        with pytest.raises(ValueError):
            cache.features[0, 0] = 2.0

    def test_built_features_read_only(self):
        features = build_cache(init_params(self.ARCH, 34), np.ones((3, 16)))
        with pytest.raises(ValueError):
            features[0, 0] = 2.0

    def test_save_load_roundtrip(self, tmp_path):
        provenance = {"arm_key": "a" * 64, "params_sha256": "b" * 64, "train_digest": "c" * 64}
        cache = _cache_from(np.random.default_rng(60).normal(size=(6, 4)), "arm2", provenance)
        save_cache(cache, tmp_path / "c.cache")
        back = load_cache(tmp_path / "c.cache")
        assert back.model_id == "arm2"
        assert back.sample_ids == cache.sample_ids
        assert np.array_equal(back.features, cache.features)
        assert back.provenance == provenance

    @pytest.mark.parametrize("header, arrays", [
        ({"model_id": "arm0"}, {"features": np.ones((2, 3))}),
        ({"model_id": "arm0", "sample_ids": ["a", "b"]}, {}),
        ({"model_id": "arm0", "sample_ids": ["a"]}, {"features": np.ones((2, 3))}),
    ])
    def test_damaged_cache_names_file(self, tmp_path, header, arrays):
        # a missing field or array, or rows that miss their ids, fail naming the file
        path = tmp_path / "c.cache"
        write_container(path, {"kind": "feature-cache", **header}, arrays)
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad feature cache")):
            load_cache(path)

    @pytest.mark.parametrize("dtype", ["<i8", "<u8", ">f8", "<f4"])
    def test_features_of_another_dtype_name_file(self, tmp_path, dtype):
        # every cache the program builds holds float64; other numbers are refused
        path = tmp_path / "c.cache"
        write_container(path, {"kind": "feature-cache", "model_id": "arm0",
                               "sample_ids": ["a", "b"]},
                        {"features": np.ones((2, 3), dtype=dtype)})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: bad feature cache: features must be float64, got {dtype}")):
            load_cache(path)
