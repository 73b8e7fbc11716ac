import numpy as np
import pytest

from densemble import autodiff as ad
from densemble.fourier import apply_band, band_energy, design_bank

from oracles import central_diff_grad, rel_err


class TestDesignBank:
    def test_partition_of_unity_exact(self):
        for cutoff, tw, length in [(0.25, 0.0, 8), (0.2, 0.05, 1024), (0.1, 0.02, 64)]:
            bank = design_bank(length, cutoff, tw)
            assert np.all(bank.responses[0] + bank.responses[1] == 1.0)

    def test_hard_cutoff_enumeration(self):
        # bin exactly at the cutoff belongs to the low band
        bank = design_bank(8, 0.25, 0.0)
        assert np.array_equal(bank.responses[0], [1, 1, 1, 0, 0, 0, 1, 1])
        assert np.array_equal(bank.responses[1], [0, 0, 0, 1, 1, 1, 0, 0])

    def test_closed_form_response(self):
        length, cutoff, tw = 64, 0.2, 0.1
        bank = design_bank(length, cutoff, tw)
        lo, hi = cutoff - tw / 2, cutoff + tw / 2
        for k in range(length):
            f = min(k, length - k) / length
            if f <= lo:
                expected = 1.0
            elif f > hi:
                expected = 0.0
            else:
                expected = 0.5 * (1 + np.cos(np.pi * (f - lo) / tw))
            assert abs(bank.responses[0][k] - expected) < 1e-12

    def test_impulse_response_real(self):
        bank = design_bank(256, 0.2, 0.05)
        for resp in bank.responses:
            imag = np.max(np.abs(np.imag(np.fft.ifft(resp))))
            assert imag < 1e-12

    def test_response_bounds_and_symmetry(self):
        bank = design_bank(129, 0.3, 0.1)
        for resp in bank.responses:
            assert np.all(resp >= 0) and np.all(resp <= 1)
            assert np.allclose(resp[1:], resp[1:][::-1])

    @pytest.mark.parametrize("cutoff,tw", [(0.0, 0.0), (0.5, 0.0), (0.25, 0.6), (0.49, 0.05)])
    def test_invalid_edges(self, cutoff, tw):
        with pytest.raises(ValueError):
            design_bank(64, cutoff, tw)


class TestApplyBand:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(31)
        bank = design_bank(1024, 0.2, 0.05)
        x = rng.normal(size=(10, 700))
        rec = apply_band(bank, 0, x) + apply_band(bank, 1, x)
        assert np.max(np.abs(rec - x)) / np.max(np.abs(x)) < 1e-9

    def test_tone_below_cutoff(self):
        length = 256
        bank = design_bank(length, 0.2, 0.0)
        k = 10  # f = 10/256 < 0.2
        x = np.sin(2 * np.pi * k * np.arange(length) / length)
        low = apply_band(bank, 0, x)
        high = apply_band(bank, 1, x)
        total = float(np.sum(x**2))
        assert np.sum(low**2) / total >= 0.999
        assert np.sum(high**2) / total <= 1e-3

    def test_idempotent_with_hard_cutoff(self):
        rng = np.random.default_rng(32)
        bank = design_bank(128, 0.25, 0.0)
        x = rng.normal(size=128)
        once = apply_band(bank, 0, x)
        twice = apply_band(bank, 0, once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(33)
        bank = design_bank(256, 0.2, 0.05)
        x, y = rng.normal(size=200), rng.normal(size=200)
        lhs = apply_band(bank, 0, 2.5 * x - 1.25 * y)
        rhs = 2.5 * apply_band(bank, 0, x) - 1.25 * apply_band(bank, 0, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_self_adjoint_inner_product(self):
        rng = np.random.default_rng(34)
        bank = design_bank(128, 0.3, 0.1)
        x, y = rng.normal(size=100), rng.normal(size=100)
        ax = apply_band(bank, 0, x)
        ay = apply_band(bank, 0, y)
        assert abs(np.sum(ax * y) - np.sum(x * ay)) < 1e-10

    def test_gradient_is_same_band_of_adjoint(self):
        rng = np.random.default_rng(35)
        bank = design_bank(64, 0.2, 0.05)
        x0 = rng.normal(size=(2, 50))
        w = rng.normal(size=(2, 50))

        def loss(v):
            out = apply_band(bank, 0, ad.Tensor(v))
            return ad.l2norm_sq(ad.add(out, ad.Tensor(w))).item()

        x = ad.Tensor(x0, requires_grad=True)
        out = apply_band(bank, 0, x)
        ad.l2norm_sq(ad.add(out, ad.Tensor(w))).backward()
        fd = central_diff_grad(loss, x0)
        assert rel_err(x.grad, fd) < 1e-6
        # adjoint contract: grad == band applied to upstream adjoint
        upstream = 2.0 * (out.data + w)
        assert np.allclose(x.grad, apply_band(bank, 0, upstream), atol=1e-12)


class TestBandEnergy:
    def test_dc_signal_in_low_band(self):
        bank = design_bank(64, 0.2, 0.0)
        e = band_energy(np.full(64, 3.0), bank)
        assert e[1] < 1e-20
        assert abs(e[0] - 64 * 9.0) < 1e-9

    def test_energies_sum_to_total_hard_bank(self):
        rng = np.random.default_rng(36)
        bank = design_bank(256, 0.2, 0.0)
        x = rng.normal(size=200)
        e = band_energy(x, bank)
        assert abs(e.sum() - np.sum(x**2)) / np.sum(x**2) < 1e-9

    def test_white_noise_split_follows_band_widths(self):
        rng = np.random.default_rng(37)
        length = 2**17
        bank = design_bank(length, 0.2, 0.0)
        x = rng.normal(size=length)
        e = band_energy(x, bank)
        expected_low = float(np.sum(bank.responses[0] ** 2)) / length
        measured_low = e[0] / e.sum()
        assert abs(measured_low - expected_low) / expected_low < 0.02

    def test_batched(self):
        rng = np.random.default_rng(38)
        bank = design_bank(64, 0.25, 0.0)
        x = rng.normal(size=(5, 64))
        e = band_energy(x, bank)
        assert e.shape == (5, 2)
        assert np.allclose(e.sum(axis=1), np.sum(x**2, axis=1), rtol=1e-9)
