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
from densemble import autodiff as ad
from densemble.autodiff import Tensor, next_pow2
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
from densemble.model import ArchConfig, forward, init_params, predict
from densemble.signals import preprocess, signal_text, split, synthesize

from oracles import assert_traced_peak, smooth_mean_direct

CFG = resolve_config({
    "data": {"records_per_class": 30, "length": 128},
    "arch": {"conv_blocks": [[6, 7, 2], [12, 5, 2]], "feature_dim": 16},
    "train": {"epochs": 40, "batch_size": 27, "seeds": {"init": 1, "shuffle": 2}},
    "decor": {"projection_dim": 8, "seed": 0},
})
# what cli.attack records for the target's parameter file; craft_set only passes it on
TARGET_SHA = "5e" * 32


@pytest.fixture(scope="module")
def toy():
    """Small trained model plus its test split; enough accuracy to attack."""
    ds = synthesize(synth_from_config(CFG), 77)
    train_raw, test_raw = split(ds, 0.9, 78)
    train, test = preprocess(train_raw, test_raw, 128)
    res = train_arm(
        0, ArmRole(band=None, decorrelate=False),
        train.signals, train.labels,
        arch_from_config(CFG), train_from_config(CFG), decor_from_config(CFG), [],
        bank_from_config(CFG),
    )
    return res.params, test.signals, test.labels, test.ids


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

    def test_traced_peak_holds_one_step_graph(self):
        # a step's graph is freed before the next step builds its own, and
        # each conv block holds one activation: for a 45-row, 3-step attack
        # with the default arch one live step graph is about 7.8 MB (11.5 MB
        # with the bias add and ReLU as nodes of their own, 19.7 MB with two
        # step graphs live)
        params = init_params(ArchConfig(), np.random.SeedSequence(0))
        x = np.random.default_rng(0).standard_normal((45, 512))
        y = np.arange(45) % 3
        spec = AttackSpec.make("pgd", 0.5, steps=3)
        assert_traced_peak("a 45-row 3-step pgd", lambda: pgd(params, x, y, spec), 9_000_000)


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

    def test_one_step_is_the_mean_of_separate_convolutions(self, toy):
        # the merged filter against the paper's M separate convolutions: with
        # alpha = eps one step lands on the ball's sign vertex of the latent
        # gradient, which is the (self-adjoint) rendering of the input gradient
        params, x, y, _ = toy
        kernels = [gaussian_kernel(s, sigma) for s, sigma in DEFAULT_SAP_KERNELS]
        leaf = Tensor(x, requires_grad=True)
        ad.softmax_cross_entropy(forward(params, leaf)[0], y).backward()
        for eps in (0.1, 1.5):
            spec = AttackSpec(family="sap", eps=eps, alpha=eps, steps=1,
                              kernel_bank=DEFAULT_SAP_KERNELS)
            want = x + smooth_mean_direct(eps * np.sign(smooth_mean_direct(leaf.grad, kernels)),
                                          kernels)
            assert float(np.max(np.abs(sap(params, x, y, spec) - want))) <= 1e-12

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


def _craft(params, x, y, ids, spec):
    """craft_set as `attack` calls it: the mask is the base arm's natural correctness."""
    return craft_set(x, y, ids, predict(params, x) == y, spec, params, TARGET_SHA)


def _save(aset, out_dir):
    """save_attacked_set with the natural rows formatted as `attack` formats them."""
    save_attacked_set(aset, out_dir, [signal_text(row) for row in aset.natural])


class TestCraftSet:
    # `attack` computes the scoring mask once per grid (tested in test_cli.py)
    def test_mask_is_recorded_as_given(self, toy):
        params, x, y, ids = toy
        mask = np.arange(len(y)) % 3 == 0
        aset = craft_set(x, y, ids, mask, AttackSpec.make("pgd", 0.1, steps=1), params,
                         TARGET_SHA)
        assert aset.mask is mask

    def test_monotone_trend_in_eps(self, toy):
        params, x, y, ids = toy
        grid = [0.0, 0.3, 0.8, 1.5]
        accs = []
        for eps in grid:
            aset = _craft(params, x, y, ids, AttackSpec.make("pgd", eps))
            correct = predict(params, aset.perturbed) == aset.labels
            accs.append(float(np.mean(correct[aset.mask])))
        inversions = [accs[i + 1] - accs[i] for i in range(len(accs) - 1)
                      if accs[i + 1] > accs[i]]
        assert len(inversions) <= 1
        assert all(v <= 0.02 for v in inversions)

    def test_roundtrip_storage(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = _craft(params, x, y, ids, AttackSpec.make("sap", 0.4))
        _save(aset, tmp_path / "cell")
        back = load_attacked_set(tmp_path / "cell")
        assert back.ids == aset.ids
        assert np.array_equal(back.labels, aset.labels)
        assert np.array_equal(back.mask, aset.mask)
        assert np.array_equal(back.natural, aset.natural)
        assert np.array_equal(back.perturbed, aset.perturbed)
        assert back.spec.family == "sap" and back.spec.eps == 0.4
        assert back.target_params_sha256 == TARGET_SHA

    def test_bad_signal_value_names_file_and_line(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = _craft(params, x, y, ids, AttackSpec.make("pgd", 0.1, steps=1))
        _save(aset, tmp_path / "cell")
        bad = tmp_path / "cell" / "perturbed" / f"{ids[0]}.txt"
        lines = bad.read_text().splitlines()
        lines[2] = "not-a-number"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}:3:")):
            load_attacked_set(tmp_path / "cell")

    def test_short_signal_names_its_file(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = _craft(params, x, y, ids, AttackSpec.make("pgd", 0.1, steps=1))
        _save(aset, tmp_path / "cell")
        short = tmp_path / "cell" / "perturbed" / f"{ids[1]}.txt"
        short.write_text("\n".join(short.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(short))):
            load_attacked_set(tmp_path / "cell")

    def test_perturbation_outside_the_ball_names_its_file(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = _craft(params, x, y, ids, AttackSpec.make("pgd", 0.1, steps=1))
        _save(aset, tmp_path / "cell")
        far = tmp_path / "cell" / "perturbed" / f"{ids[1]}.txt"
        far.write_text("".join(f"{-20 * float(v)!r}\n" for v in far.read_text().split()))
        with pytest.raises(ValueError, match=re.escape(f"{far}: max|perturbed - natural| ")):
            load_attacked_set(tmp_path / "cell")

    def test_linf_delta_the_signals_do_not_give_names_its_line(self, toy, tmp_path):
        params, x, y, ids = toy
        aset = _craft(params, x, y, ids, AttackSpec.make("pgd", 0.1, steps=1))
        _save(aset, tmp_path / "cell")
        index = tmp_path / "cell" / "index.csv"
        lines = index.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{index}:3: linf_delta is 'x', but ")):
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

    @pytest.mark.parametrize("sigma", [0.0, -1.25])
    def test_non_positive_kernel_std_rejected(self, sigma):
        with pytest.raises(ValueError, match="kernel_bank: "):
            AttackSpec(family="sap", eps=0.1, alpha=0.01, steps=20, kernel_bank=((5, sigma),))

    @pytest.mark.parametrize("bank", [((5, True),), ((5, 1.25), (9, True)), ((5.0, 1.25),)])
    def test_bool_std_or_non_integer_width_rejected(self, bank):
        # True == 1 and 5.0 == 5: the spec once compared equal to the grid's
        with pytest.raises(ValueError, match="kernel_bank: "):
            AttackSpec(family="sap", eps=0.1, alpha=0.01, steps=2, kernel_bank=bank)

    @pytest.mark.parametrize("name, value", [
        ("eps", True), ("alpha", False), ("steps", True), ("steps", 2.0), ("eps", "1.0"),
    ])
    def test_bool_or_non_integer_steps_rejected(self, name, value):
        # a bool is an int, and True == 1.0: the spec refuses it as the config does
        fields = dict(family="pgd", eps=1.0, alpha=0.1, steps=2, kernel_bank=())
        with pytest.raises(ValueError, match=f"{name}: must be "):
            AttackSpec(**{**fields, name: value})
