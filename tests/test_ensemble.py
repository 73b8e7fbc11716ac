import re

import numpy as np
import pytest

from densemble import autodiff as ad
from densemble import ensemble
from densemble.config import (
    bank_from_config,
    decor_from_config,
    resolve_config,
    synth_from_config,
    train_from_config,
)
from densemble.ensemble import (
    AdamConfig,
    AdamState,
    ArmRole,
    adam_step,
    arm_roles,
    batch_schedule,
    correlation_report,
    evaluate_arms,
    train_arm,
    train_ensemble,
)
from densemble.decorrelation import ensemble_decor_loss
from densemble.model import ArchConfig, forward, init_params, make_param_tensors, save_params
from densemble.signals import preprocess, split, synthesize

from oracles import adam_reference_step, ensemble_metrics_bruteforce

ARCH = ArchConfig(conv_blocks=((4, 5, 2), (8, 3, 2)), feature_dim=12, num_classes=3,
                  input_length=64)
SMALL = {
    "data": {"records_per_class": 12, "length": 64},
    "train": {"epochs": 4, "batch_size": 16, "seeds": {"init": 5, "shuffle": 6}},
    "decor": {"projection_dim": 8, "seed": 7},
}
CFG = resolve_config(SMALL)
SMALL_TRAIN, SMALL_DECOR = train_from_config(CFG), decor_from_config(CFG)
BANK = bank_from_config(CFG)


def small_cfg(section: str, **over) -> dict:
    """The small config with `over` merged into one of its sections."""
    return resolve_config({**SMALL, section: {**SMALL.get(section, {}), **over}})


@pytest.fixture(scope="module")
def small_data():
    ds = synthesize(synth_from_config(CFG), 88)
    train_raw, test_raw = split(ds, 0.9, 89)
    train, test = preprocess(train_raw, test_raw, 64)
    return train, test


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        # fresh state: zero gradient means zero update
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])
        # existing moments decay geometrically once the gradient vanishes
        state.m["w"][:] = 0.5
        state.v["w"][:] = 0.25
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.all(state.m["w"] == 0.45)
        assert np.all(state.v["w"] == 0.25 * 0.999)

    def test_constant_gradient_limit(self):
        params = {"w": np.array([0.0])}
        state = AdamState.init(params)
        g = {"w": np.array([3.7])}
        lr = 1e-3
        last = params["w"].copy()
        for step in range(1000):
            adam_step(params, g, state, lr=lr)
            magnitude = float(np.abs(params["w"] - last)[0])
            last = params["w"].copy()
        assert abs(magnitude - lr) / lr < 0.01  # step -> lr * sgn(g)

    def test_single_step_matches_reference(self):
        rng = np.random.default_rng(61)
        w0 = rng.normal(size=(3, 2))
        g = rng.normal(size=(3, 2))
        params = {"w": w0.copy()}
        state = AdamState.init(params)
        adam_step(params, {"w": g}, state, lr=0.01,
                  cfg=AdamConfig(beta1=0.9, beta2=0.999, eps=1e-8))
        ref, _, _ = adam_reference_step(
            w0, g, np.zeros_like(w0), np.zeros_like(w0), 1, 0.01, 0.9, 0.999, 1e-8
        )
        assert np.allclose(params["w"], ref, atol=1e-15)

    def test_nonfinite_gradient_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.init(params)
        with pytest.raises(RuntimeError, match="non-finite gradient for parameter w"):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, state, lr=0.1)


class TestArmRoles:
    def test_base_arm_is_plain(self):
        for kind in ("cor", "dec", "fcor", "fdec"):
            assert arm_roles(kind)[0] == ArmRole(band=None, decorrelate=False)

    def test_fdec_is_fcor_bands_plus_dec_losses(self):
        fdec = arm_roles("fdec")
        fcor = arm_roles("fcor")
        dec = arm_roles("dec")
        assert [r.band for r in fdec] == [r.band for r in fcor]
        assert [r.decorrelate for r in fdec] == [r.decorrelate for r in dec]


class TestBatchSchedule:
    def test_exact_division(self):
        perm = np.arange(8)
        batches = batch_schedule(8, 4, perm)
        assert [list(b) for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_tail_extension(self):
        perm = np.arange(10)
        batches = batch_schedule(10, 4, perm)
        assert [len(b) for b in batches] == [4, 4, 4]
        assert list(batches[-1]) == [6, 7, 8, 9]

    def test_small_n(self):
        perm = np.arange(3)
        assert [list(b) for b in batch_schedule(3, 8, perm)] == [[0, 1, 2]]


def _metrics(correct):
    return evaluate_arms(correct, np.ones(correct.shape[1], dtype=bool))


class TestMetrics:
    def test_all_correct(self):
        m = _metrics(np.ones((3, 5), dtype=bool))
        assert m == {"average": 1.0, "p1": 1.0, "p2": 1.0, "p3": 1.0, "n_masked": 5}

    def test_disjoint_thirds(self):
        correct = np.zeros((3, 9), dtype=bool)
        correct[0, 0:3] = True
        correct[1, 3:6] = True
        correct[2, 6:9] = True
        m = _metrics(correct)
        assert m["average"] == pytest.approx(1 / 3)
        assert m["p1"] == 1.0 and m["p2"] == 0.0 and m["p3"] == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(62)
        correct = rng.random((3, 40)) < 0.6
        m = _metrics(correct)
        ref = ensemble_metrics_bruteforce(correct)
        for key, val in ref.items():
            assert m[key] == pytest.approx(val, abs=1e-12)

    def test_orderings(self):
        rng = np.random.default_rng(63)
        for _ in range(25):
            correct = rng.random((3, 17)) < rng.random()
            if not correct.any():
                continue
            m = _metrics(correct)
            assert m["p1"] >= m["p2"] >= m["p3"]
            assert m["p3"] <= m["average"] <= m["p1"]


class TestTraining:
    def test_cor_reduces_to_plain_ce(self, small_data):
        # identical seeds, decorrelation path never taken -> identical params
        train, _ = small_data
        x, y = train.signals, train.labels
        a = train_arm(1, ArmRole(None, False), x, y, ARCH, SMALL_TRAIN, SMALL_DECOR, [], BANK)
        b = train_arm(1, ArmRole(None, True), x, y, ARCH, SMALL_TRAIN,
                      SMALL_DECOR, [], BANK)  # decorrelate=True but no frozen features
        for name in a.params.tensors:
            assert np.array_equal(a.params.tensors[name], b.params.tensors[name])

    def test_dec_weight_zero_reproduces_cor(self, small_data):
        train, _ = small_data
        x, y = train.signals, train.labels
        lam0 = decor_from_config(small_cfg("decor", weight=0.0))
        cor = [r for _, r in train_ensemble("cor", x, y, ARCH, SMALL_TRAIN, lam0, BANK, {}, 1)]
        dec = [r for _, r in train_ensemble("dec", x, y, ARCH, SMALL_TRAIN, lam0, BANK, {}, 1)]
        for rc, rd in zip(cor, dec):
            for name in rc.params.tensors:
                assert np.array_equal(rc.params.tensors[name], rd.params.tensors[name])
            assert np.array_equal(rc.features, rd.features)

    def test_deterministic_retraining(self, small_data):
        train, _ = small_data
        x, y = train.signals, train.labels
        a = [r for _, r in train_ensemble("dec", x, y, ARCH, SMALL_TRAIN, SMALL_DECOR, BANK,
                                            {}, 1)]
        b = [r for _, r in train_ensemble("dec", x, y, ARCH, SMALL_TRAIN, SMALL_DECOR, BANK,
                                            {}, 1)]
        for ra, rb in zip(a, b):
            for name in ra.params.tensors:
                assert np.array_equal(ra.params.tensors[name], rb.params.tensors[name])

    def test_retraining_one_arm_leaves_others_untouched(self, small_data, tmp_path):
        train, _ = small_data
        x, y = train.signals, train.labels
        results = [r for _, r in train_ensemble("dec", x, y, ARCH, SMALL_TRAIN, SMALL_DECOR,
                                                BANK, {}, 1)]
        for k, res in enumerate(results):
            save_params(res.params, tmp_path / f"arm{k}.params", model_id=f"arm{k}")
        before = [(tmp_path / f"arm{k}.params").read_bytes() for k in range(2)]
        # retrain arm 2 alone from the stored features
        train_arm(2, arm_roles("dec")[2], x, y, ARCH, SMALL_TRAIN, SMALL_DECOR,
                  [results[0].features, results[1].features], BANK)
        after = [(tmp_path / f"arm{k}.params").read_bytes() for k in range(2)]
        assert before == after

    def test_decor_step_descends_ce_plus_weighted_decor_loss(self, small_data, monkeypatch):
        # a dec arm 1's first step: the gradients handed to Adam are those of
        # ce + weight * ensemble_decor_loss against arm 0's features, at the
        # step seed (decor.seed, k, step)
        train, _ = small_data
        x, y, ids = train.signals, train.labels, train.ids
        decor = decor_from_config(small_cfg("decor", weight=0.7))
        frozen = np.random.default_rng(65).normal(size=(len(ids), ARCH.feature_dim))
        seen = []
        real = ensemble.adam_step
        monkeypatch.setattr(ensemble, "adam_step", lambda params, grads, *a: seen.append(
            {k: g.copy() for k, g in grads.items()}) or real(params, grads, *a))
        one_epoch = train_from_config(small_cfg("train", epochs=1))
        train_arm(1, ArmRole(None, True), x, y, ARCH, one_epoch, decor, [frozen], BANK)

        params = init_params(ARCH, np.random.SeedSequence([one_epoch.init_seed, 1]))
        perm = np.random.default_rng(
            np.random.SeedSequence([one_epoch.shuffle_seed, 1])).permutation(len(ids))
        bidx = batch_schedule(len(ids), one_epoch.batch_size, perm)[0]
        ce_pt, cor_pt = make_param_tensors(params), make_param_tensors(params)
        ad.softmax_cross_entropy(forward(params, x[bidx], ce_pt)[0], y[bidx]).backward()
        ensemble_decor_loss(forward(params, x[bidx], cor_pt)[1], [frozen], bidx, decor,
                            np.random.SeedSequence([decor.seed, 1, 0])).backward()
        for name, g in seen[0].items():  # the head is not under the penalty
            cor_g = 0.0 if name.startswith("head.") else decor.weight * cor_pt[name].grad
            want = ce_pt[name].grad + cor_g
            assert np.allclose(g, want, rtol=1e-9, atol=1e-12), name
        assert not np.allclose(seen[0]["feat.w"], ce_pt["feat.w"].grad)  # the penalty acts

    def test_decor_arm_needs_large_batches(self, small_data):
        train, _ = small_data
        x, y = train.signals, train.labels
        base = train_arm(0, ArmRole(None, False), x, y, ARCH, SMALL_TRAIN, SMALL_DECOR, [], BANK)
        small_batches = train_from_config(small_cfg("train", epochs=1, batch_size=9))
        with pytest.raises(ValueError, match="underdetermined"):
            train_arm(1, ArmRole(None, True), x, y, ARCH, small_batches,
                      SMALL_DECOR, [base.features], BANK)

    def test_decor_batch_rule_names_the_binding_bound(self, small_data):
        # projection_dim 8 <= feature_dim 12, so the regressor's 12 columns bind
        train, _ = small_data
        x, y = train.signals, train.labels
        small_batches = train_from_config(small_cfg("train", epochs=1, batch_size=9))
        with pytest.raises(RuntimeError, match=re.escape(
                "arm 1 of dec failed: decorrelation regression needs batches larger than "
                "feature_dim+1=13, got 9")):
            list(train_ensemble("dec", x, y, ARCH, small_batches, SMALL_DECOR, BANK, {}, 1))

    def test_small_decor_batches_fail_before_any_arm_trains(self, small_data, monkeypatch):
        train, _ = small_data
        x, y = train.signals, train.labels
        calls = []
        real = ensemble.train_arm
        monkeypatch.setattr(ensemble, "train_arm",
                            lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        arch = ArchConfig(conv_blocks=((4, 5, 2),), feature_dim=8, num_classes=3,
                          input_length=64)
        small_batches = train_from_config(small_cfg("train", epochs=1, batch_size=9))
        decor = decor_from_config(small_cfg("decor", projection_dim=5))
        with pytest.raises(RuntimeError, match=re.escape(
                "arm 1 of dec failed: decorrelation regression needs batches larger than "
                "feature_dim+1=9, got 9")):
            list(train_ensemble("dec", x, y, arch, small_batches, decor, BANK, {}, 1))
        assert calls == []

    def test_yields_each_arm_before_the_next_trains(self, small_data, monkeypatch):
        # a known arm yields None and its given features reach the later arms
        train, _ = small_data
        frozen = []
        real = ensemble.train_arm
        monkeypatch.setattr(ensemble, "train_arm",
                            lambda *a: frozen.append((a[0], list(a[7]))) or real(*a))
        known = np.random.default_rng(66).normal(size=(len(train.ids), ARCH.feature_dim))
        arms = train_ensemble("dec", train.signals, train.labels, ARCH, SMALL_TRAIN,
                              SMALL_DECOR, BANK, {0: known}, 1)
        assert next(arms) == (0, None) and frozen == []
        k, arm1 = next(arms)
        assert k == 1 and [a for a, _ in frozen] == [1]
        assert [id(f) for f in frozen[0][1]] == [id(known)]
        assert next(arms)[0] == 2
        assert [id(f) for f in frozen[1][1]] == [id(known), id(arm1.features)]
        assert next(arms, None) is None

    def test_curve_columns(self, small_data):
        train, _ = small_data
        x, y = train.signals, train.labels
        results = [r for _, r in train_ensemble("dec", x, y, ARCH, SMALL_TRAIN, SMALL_DECOR,
                                                BANK, {}, 1)]
        assert all("cor" not in row for row in results[0].curve)
        assert all("cor" in row for row in results[1].curve)
        assert all("cor" in row for row in results[2].curve)


class TestEvaluate:
    def test_mask_restricts_scoring(self):
        correct = np.zeros((3, 6), dtype=bool)
        correct[:, :2] = True  # every arm right on the scored samples only
        mask = np.zeros(6, dtype=bool)
        mask[:2] = True
        m = evaluate_arms(correct, mask)
        assert m == {"average": 1.0, "p1": 1.0, "p2": 1.0, "p3": 1.0, "n_masked": 2}

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            evaluate_arms(np.ones((3, 4), dtype=bool), np.zeros(4, dtype=bool))


class TestCorrelationReport:
    def test_self_r2_is_one(self, small_data):
        train, _ = small_data
        x, y = train.signals, train.labels
        rep = correlation_report([r.features for _, r in train_ensemble(
            "cor", x, y, ARCH, SMALL_TRAIN, SMALL_DECOR, BANK, {}, 1)])
        for i in range(3):
            assert abs(rep["matrix"][i][i] - 1.0) < 1e-8

    def test_values_clamped_and_structured(self, small_data):
        train, _ = small_data
        x, y = train.signals, train.labels
        rep = correlation_report([r.features for _, r in train_ensemble(
            "cor", x, y, ARCH, SMALL_TRAIN, SMALL_DECOR, BANK, {}, 1)])
        for row in rep["matrix"]:
            assert all(0.0 <= v <= 1.0 for v in row)
        assert set(rep["pairs"]) == {"0-1", "0-2", "1-2"}
        for pair in rep["pairs"].values():
            assert pair["mean"] == pytest.approx(
                (pair["forward"] + pair["reverse"]) / 2
            )
