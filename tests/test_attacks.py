import re

import numpy as np
import pytest

from densemble.attacks import (
    DEFAULT_SAP_KERNELS,
    AttackSpec,
    craft_set,
    gaussian_kernel,
    load_attacked_set,
    pgd,
    sap,
    save_attacked_set,
)
from densemble.autodiff import next_pow2
from densemble.config import (
    arch_from_config,
    bank_from_config,
    decor_from_config,
    resolve_config,
    synth_from_config,
    train_from_config,
)
from densemble.ensemble import ArmRole, train_arm
from densemble.fourier import band_energy, design_bank
from densemble.model import predict
from densemble.signals import preprocess, split, synthesize

CFG = resolve_config({
    "data": {"records_per_class": 30, "length": 128},
    "arch": {"conv_blocks": [[6, 7, 2], [12, 5, 2]], "feature_dim": 16},
    "train": {"epochs": 40, "batch_size": 27, "seeds": {"init": 1, "shuffle": 2}},
    "decor": {"projection_dim": 8, "seed": 0},
})


@pytest.fixture(scope="module")
def toy():
    """Small trained model plus its test split; enough accuracy to attack."""
    ds = synthesize(synth_from_config(CFG), 77)
    train_raw, test_raw = split(ds, 0.9, 78)
    train = preprocess(train_raw, 128)
    test = preprocess(test_raw, 128, stats=train.normalization)
    res = train_arm(
        0, ArmRole(band=None, decorrelate=False),
        train.signals_matrix(), train.labels_array(), train.ids(),
        arch_from_config(CFG), train_from_config(CFG), decor_from_config(CFG), [],
        bank_from_config(CFG),
    )
    return res.params, test.signals_matrix(), test.labels_array(), test.ids()


class TestGaussianKernel:
    def test_degenerate(self):
        assert np.array_equal(gaussian_kernel(1, 0.5), [1.0])

    def test_unit_sum_and_symmetry(self):
        for s, sigma in DEFAULT_SAP_KERNELS:
            k = gaussian_kernel(s, sigma)
            assert abs(k.sum() - 1.0) < 1e-12
            assert np.allclose(k, k[::-1])
            assert np.all(k > 0)

    def test_closed_form(self):
        k = gaussian_kernel(5, 1.0)
        d = np.arange(5) - 2.0
        ref = np.exp(-(d**2) / 2.0)
        ref /= ref.sum()
        assert np.allclose(k, ref, atol=1e-15)

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel(4, 1.0)


class TestPgd:
    def test_zero_budget_identity(self, toy):
        params, x, y, _ = toy
        out = pgd(params, x, y, AttackSpec.make("pgd", 0.0))
        assert np.array_equal(out, x)

    def test_linf_ball_exact(self, toy):
        params, x, y, _ = toy
        for eps in (0.25, 1.0):
            out = pgd(params, x, y, AttackSpec.make("pgd", eps))
            # the internal delta is clipped exactly; recomputing x' - x can
            # round up by one ulp of x
            assert float(np.max(np.abs(out - x))) <= eps + 1e-12

    def test_accuracy_drops(self, toy):
        params, x, y, _ = toy
        natural_acc = float(np.mean(predict(params, x) == y))
        out = pgd(params, x, y, AttackSpec.make("pgd", 0.5))
        attacked_acc = float(np.mean(predict(params, out) == y))
        assert attacked_acc < natural_acc

    def test_loss_increases_on_most_samples(self, toy):
        from densemble import autodiff as ad
        from densemble.model import forward

        params, x, y, _ = toy
        out = pgd(params, x, y, AttackSpec.make("pgd", 0.25))

        def per_sample_ce(v):
            logits = forward(params, v)[0].data
            m = logits.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
            return lse - logits[np.arange(len(y)), y]

        frac = float(np.mean(per_sample_ce(out) >= per_sample_ce(x)))
        assert frac >= 0.9

    def test_deterministic(self, toy):
        params, x, y, _ = toy
        spec = AttackSpec.make("pgd", 0.3)
        assert np.array_equal(pgd(params, x, y, spec), pgd(params, x, y, spec))


class TestSap:
    def test_zero_budget_identity(self, toy):
        params, x, y, _ = toy
        out = sap(params, x, y, AttackSpec.make("sap", 0.0))
        assert np.array_equal(out, x)

    def test_induced_linf_bound(self, toy):
        params, x, y, _ = toy
        for eps in (0.25, 1.5):
            out = sap(params, x, y, AttackSpec.make("sap", eps))
            assert float(np.max(np.abs(out - x))) <= eps + 1e-12

    def test_smoother_than_pgd(self, toy):
        # the whole point of the kernel rendering: less high-band energy
        params, x, y, _ = toy
        bank = design_bank(next_pow2(128), 0.2, 0.0)
        eps = 0.5
        d_pgd = pgd(params, x, y, AttackSpec.make("pgd", eps)) - x
        d_sap = sap(params, x, y, AttackSpec.make("sap", eps)) - x
        e_pgd = band_energy(d_pgd, bank)
        e_sap = band_energy(d_sap, bank)
        frac_pgd = e_pgd[:, 1] / np.maximum(e_pgd.sum(axis=1), 1e-30)
        frac_sap = e_sap[:, 1] / np.maximum(e_sap.sum(axis=1), 1e-30)
        assert float(np.mean(frac_sap < frac_pgd)) >= 0.9

    def test_requires_kernels(self):
        with pytest.raises(ValueError):
            AttackSpec(family="sap", eps=0.1, alpha=0.01, steps=20, kernel_bank=())


class TestCraftSet:
    def test_mask_is_base_correct(self, toy):
        params, x, y, ids = toy
        aset = craft_set(params, x, y, ids, AttackSpec.make("pgd", 0.0), params)
        assert np.array_equal(aset.mask, predict(params, x) == y)
        # with zero budget the masked base accuracy is 100% by construction
        correct = predict(params, aset.perturbed) == aset.labels
        assert np.all(correct[aset.mask])

    def test_mask_fraction_equals_natural_accuracy(self, toy):
        params, x, y, ids = toy
        aset = craft_set(params, x, y, ids, AttackSpec.make("pgd", 0.25), params)
        assert aset.mask.mean() == np.mean(predict(params, x) == y)

    def test_monotone_trend_in_eps(self, toy):
        params, x, y, ids = toy
        grid = [0.0, 0.3, 0.8, 1.5]
        accs = []
        for eps in grid:
            aset = craft_set(params, x, y, ids, AttackSpec.make("pgd", eps), params)
            correct = predict(params, aset.perturbed) == aset.labels
            accs.append(float(np.mean(correct[aset.mask])))
        inversions = [accs[i + 1] - accs[i] for i in range(len(accs) - 1)
                      if accs[i + 1] > accs[i]]
        assert len(inversions) <= 1
        assert all(v <= 0.02 for v in inversions)

    def test_roundtrip_storage(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = craft_set(params, x, y, ids, AttackSpec.make("sap", 0.4), params)
        save_attacked_set(aset, tmp_path / "cell")
        back = load_attacked_set(tmp_path / "cell")
        assert back.ids == aset.ids
        assert np.array_equal(back.labels, aset.labels)
        assert np.array_equal(back.mask, aset.mask)
        assert np.array_equal(back.natural, aset.natural)
        assert np.array_equal(back.perturbed, aset.perturbed)
        assert back.spec.family == "sap" and back.spec.eps == 0.4

    def test_bad_signal_value_names_file_and_line(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = craft_set(params, x, y, ids, AttackSpec.make("pgd", 0.1, steps=1), params)
        save_attacked_set(aset, tmp_path / "cell")
        bad = tmp_path / "cell" / "perturbed" / f"{ids[0]}.txt"
        lines = bad.read_text().splitlines()
        lines[2] = "not-a-number"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}:3:")):
            load_attacked_set(tmp_path / "cell")

    def test_short_signal_names_its_file(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = craft_set(params, x, y, ids, AttackSpec.make("pgd", 0.1, steps=1), params)
        save_attacked_set(aset, tmp_path / "cell")
        short = tmp_path / "cell" / "perturbed" / f"{ids[1]}.txt"
        short.write_text("\n".join(short.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(short))):
            load_attacked_set(tmp_path / "cell")

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_attacked_set(tmp_path / "nope")


class TestAttackSpec:
    def test_alpha_default(self):
        assert AttackSpec.make("pgd", 1.0).alpha == 0.1

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            AttackSpec.make("fgsm", 0.1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(family="sap", eps=0.1, alpha=0.01, steps=20,
                       kernel_bank=((4, 1.0),))
