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
    draw_projection,
    ensemble_decor_loss,
    load_cache,
    pair_loss,
    save_cache,
    total_loss,
)
from densemble.model import ArchConfig, forward, init_params

from oracles import central_diff_grad, normal_equations_residual, rel_err


def decor_cfg(**decor) -> DecorConfig:
    """The default decorrelation settings with `decor` merged over them."""
    return decor_from_config(resolve_config({"decor": decor}))


CFG = decor_cfg(projection_dim=5, seed=9)

# Step seeds whose coin (the first draw of pair_loss) projects the frozen
# side, and the current side.
FROZEN_SEED, LIVE_SEED = 3, 0


def replayed_projection(seed, d: int, r: int) -> np.ndarray:
    """The projection pair_loss draws from `seed`: the coin, then (d, r)."""
    rng = np.random.default_rng(seed)
    rng.random()
    return draw_projection(d, r, rng)


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


class TestDrawProjection:
    def test_shape(self):
        assert draw_projection(64, 50, 1).shape == (64, 50)

    def test_entry_std(self):
        r = draw_projection(64, 50, 2)
        big = np.concatenate([draw_projection(64, 50, s).ravel() for s in range(320)])
        assert big.size >= 1_000_000
        assert abs(big.std() - 0.125) / 0.125 < 0.01
        assert r.shape == (64, 50)

    def test_distinct_seeds(self):
        assert not np.array_equal(draw_projection(8, 4, 1), draw_projection(8, 4, 2))

    def test_r_exceeds_d(self):
        with pytest.raises(ValueError):
            draw_projection(4, 5, 0)


class TestPairLoss:
    def test_seeds_land_each_way(self):
        assert np.random.default_rng(FROZEN_SEED).random() < 0.5
        assert np.random.default_rng(LIVE_SEED).random() >= 0.5

    def test_frozen_twin_matches_self_regression(self):
        # both branches compute the self-regression value of their draw
        rng = np.random.default_rng(47)
        z = rng.normal(size=(20, 8))
        zk = Tensor(z.copy(), requires_grad=True)
        for seed in (FROZEN_SEED, LIVE_SEED):
            loss = pair_loss(zk, z.copy(), CFG, seed)
            proj = replayed_projection(seed, 8, 5)
            direct = decor_loss(Tensor(z), Tensor(z @ proj), CFG.stab_eps)
            assert abs(loss.item() - direct.item()) < 1e-9

    def test_each_branch_is_decor_loss_on_the_replayed_draw(self):
        rng = np.random.default_rng(48)
        zk0 = rng.normal(size=(20, 6))
        zi = rng.normal(size=(20, 6))
        frozen = pair_loss(Tensor(zk0), zi, CFG, FROZEN_SEED)
        proj = replayed_projection(FROZEN_SEED, 6, 5)
        assert frozen.item() == decor_loss(Tensor(zk0), Tensor(zi @ proj), 1e-5).item()
        live = pair_loss(Tensor(zk0), zi, CFG, LIVE_SEED)
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
            pair_loss(zk, zi, cfg, np.random.SeedSequence([11, s])).item() == 0.0
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
            assert abs(pair_loss(Tensor(zk), zi, CFG, seed).item() - direct.item()) < 1e-12

    def test_gradient_reaches_current_not_frozen(self):
        rng = np.random.default_rng(50)
        zk = Tensor(rng.normal(size=(20, 6)), requires_grad=True)
        frozen = rng.normal(size=(20, 6))
        for seed in (FROZEN_SEED, LIVE_SEED):
            zk.grad = None
            pair_loss(zk, frozen, CFG, seed).backward()
            assert zk.grad is not None
            assert np.any(zk.grad != 0)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            pair_loss(Tensor(np.ones((6, 8))), np.ones((6, 8)), CFG, 0)


def _cache_from(matrix, model_id="arm0"):
    ids = tuple(f"s{i}" for i in range(matrix.shape[0]))
    return FeatureCache(model_id=model_id, sample_ids=ids, features=matrix)


class TestEnsembleDecorLoss:
    def test_single_cache_equals_pair_loss(self):
        rng = np.random.default_rng(51)
        zk0 = rng.normal(size=(20, 6))
        frozen = rng.normal(size=(30, 6))
        idx = np.arange(5, 25)
        loss = ensemble_decor_loss(Tensor(zk0), [_cache_from(frozen)], idx, CFG, 12)
        direct = pair_loss(Tensor(zk0), frozen[idx], CFG, 12)
        assert abs(loss.item() - direct.item()) < 1e-12

    def test_equal_caches_mean(self):
        rng = np.random.default_rng(52)
        zk0 = rng.normal(size=(20, 6))
        frozen = rng.normal(size=(20, 6))
        idx = np.arange(20)
        caches = [_cache_from(frozen, "arm0"), _cache_from(frozen.copy(), "arm1")]
        loss = ensemble_decor_loss(Tensor(zk0), caches, idx, CFG, 4)
        single = pair_loss(Tensor(zk0), frozen, CFG, 4)
        assert abs(loss.item() - single.item()) < 1e-12

    def test_two_caches_arithmetic_mean(self):
        rng = np.random.default_rng(53)
        zk0 = rng.normal(size=(20, 6))
        f0 = rng.normal(size=(20, 6))
        f1 = rng.normal(size=(20, 6))
        idx = np.arange(20)
        loss = ensemble_decor_loss(
            Tensor(zk0), [_cache_from(f0, "arm0"), _cache_from(f1, "arm1")], idx, CFG, 8
        )
        l0 = pair_loss(Tensor(zk0), f0, CFG, 8)
        l1 = pair_loss(Tensor(zk0), f1, CFG, 8)
        assert abs(loss.item() - (l0.item() + l1.item()) / 2) < 1e-12

    def test_missing_rows(self):
        cache = _cache_from(np.ones((10, 6)))
        with pytest.raises(IndexError):
            ensemble_decor_loss(Tensor(np.ones((5, 6))), [cache], np.array([8, 12]), CFG, 0)

    def test_frozen_gets_no_adjoint(self):
        rng = np.random.default_rng(54)
        zk = Tensor(rng.normal(size=(20, 6)), requires_grad=True)
        frozen = rng.normal(size=(20, 6))
        loss = ensemble_decor_loss(zk, [_cache_from(frozen)], np.arange(20), CFG, 2)
        loss.backward()
        assert zk.grad is not None


class TestTotalLoss:
    def test_weight_zero_is_exactly_ce(self):
        rng = np.random.default_rng(55)
        logits0 = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        zk = Tensor(rng.normal(size=(10, 6)))
        cfg0 = decor_cfg(projection_dim=5, weight=0.0, seed=0)
        cache = _cache_from(rng.normal(size=(10, 6)))
        total, part_ce, cor = total_loss(
            Tensor(logits0), labels, zk, [cache], np.arange(10), cfg0, 0
        )
        ce = ad.softmax_cross_entropy(Tensor(logits0), labels)
        assert total.item() == ce.item()
        assert part_ce is total and cor is None

    def test_loss_is_ce_plus_weighted_cor(self):
        rng = np.random.default_rng(57)
        logits0 = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        zk = Tensor(rng.normal(size=(12, 6)))
        cache = _cache_from(rng.normal(size=(12, 6)))
        cfg = decor_cfg(projection_dim=5, seed=0)
        idx = np.arange(12)
        total, ce, cor = total_loss(Tensor(logits0), labels, zk, [cache], idx, cfg, 3)
        assert ce.item() == ad.softmax_cross_entropy(Tensor(logits0), labels).item()
        assert cor.item() == ensemble_decor_loss(zk, [cache], idx, cfg, 3).item()
        assert total.item() == ce.item() + cfg.weight * cor.item()

    def test_gradient_linearity(self):
        rng = np.random.default_rng(56)
        logits0 = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        zk0 = rng.normal(size=(12, 6))
        cache = _cache_from(rng.normal(size=(12, 6)))
        cfg = decor_cfg(projection_dim=5, seed=0)
        idx = np.arange(12)

        logits = Tensor(logits0, requires_grad=True)
        zk = Tensor(zk0, requires_grad=True)
        total_loss(logits, labels, zk, [cache], idx, cfg, 3)[0].backward()
        g_logits, g_zk = logits.grad.copy(), zk.grad.copy()

        l1 = Tensor(logits0, requires_grad=True)
        ad.softmax_cross_entropy(l1, labels).backward()
        z2 = Tensor(zk0, requires_grad=True)
        ensemble_decor_loss(z2, [cache], idx, cfg, 3).backward()

        assert np.allclose(g_logits, l1.grad, atol=1e-12)
        assert np.allclose(g_zk, cfg.weight * z2.grad, atol=1e-12)


class TestFeatureCache:
    ARCH = ArchConfig(conv_blocks=((4, 5, 2),), feature_dim=8, num_classes=2,
                      input_length=16)

    def test_rows_match_forward(self):
        # more rows than one forward pass of build_cache takes
        n = 2 * CACHE_BATCH + 44
        params = init_params(self.ARCH, 31)
        x = np.random.default_rng(57).normal(size=(n, 16))
        ids = [f"s{i}" for i in range(n)]
        cache = build_cache(params, x, ids, "arm0")
        _, feats = forward(params, x)
        assert np.allclose(cache.features, feats.data, atol=1e-12)
        assert cache.sample_ids == tuple(ids)

    def test_rebuild_identical(self):
        params = init_params(self.ARCH, 32)
        x = np.random.default_rng(58).normal(size=(9, 16))
        ids = [f"s{i}" for i in range(9)]
        a = build_cache(params, x, ids, "arm0")
        b = build_cache(params, x, ids, "arm0")
        assert np.array_equal(a.features, b.features)

    def test_cache_vs_live_twin_pair_loss(self):
        params = init_params(self.ARCH, 33)
        rng = np.random.default_rng(59)
        x = rng.normal(size=(14, 16))
        ids = [f"s{i}" for i in range(14)]
        cache = build_cache(params, x, ids, "arm0")
        live = forward(params, x)[1].data
        zk = Tensor(rng.normal(size=(14, 8)))
        cfg = decor_cfg(projection_dim=4, seed=0)
        from_cache = pair_loss(zk, cache.rows(np.arange(14)), cfg, 6)
        from_live = pair_loss(zk, live, cfg, 6)
        assert from_cache.item() == from_live.item()

    def test_cache_read_only(self):
        cache = _cache_from(np.ones((4, 3)))
        with pytest.raises(ValueError):
            cache.features[0, 0] = 2.0

    def test_save_load_roundtrip(self, tmp_path):
        cache = _cache_from(np.random.default_rng(60).normal(size=(6, 4)), "arm2")
        save_cache(cache, tmp_path / "c.cache")
        back = load_cache(tmp_path / "c.cache")
        assert back.model_id == "arm2"
        assert back.sample_ids == cache.sample_ids
        assert np.array_equal(back.features, cache.features)
