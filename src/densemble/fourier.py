"""Complementary spectral band filters for 1-D signals.

A bank of "ring" filters is a set of non-negative frequency responses
that sum to one at every DFT bin, so the band outputs add back up to the
original signal.  Filtering is pointwise multiplication in the Fourier
domain; each response is symmetric about Nyquist, which keeps impulse
responses real and makes every band operator self-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

__all__ = ["RingFilterBank", "design_bank", "apply_band", "band_energy"]


@dataclass(frozen=True)
class RingFilterBank:
    length: int
    responses: tuple[np.ndarray, ...] = field(repr=False)


def design_bank(length: int, cutoff: float, transition_width: float) -> RingFilterBank:
    """Build a two-band partition-of-unity filter bank.

    The low band is 1 below ``cutoff - tw/2``, 0 above ``cutoff + tw/2``
    and a raised cosine in between (frequencies normalized to cycles per
    sample, Nyquist = 0.5).  With ``transition_width == 0`` a bin exactly
    at the cutoff belongs to the low band.  The high band is the exact
    complement, so the two responses sum to one at every bin.
    """
    if transition_width < 0:
        raise ValueError(f"transition_width: must be >= 0, got {transition_width!r}")
    lo = cutoff - transition_width / 2.0
    hi = cutoff + transition_width / 2.0
    if not (0.0 < lo and hi < 0.5):
        raise ValueError(
            f"cutoff: cutoff +/- transition_width/2 must lie inside (0, 0.5); got [{lo}, {hi}]"
        )

    k = np.arange(length)
    freq = np.minimum(k, length - k) / length  # symmetric about Nyquist
    if transition_width == 0.0:
        low = np.where(freq <= cutoff, 1.0, 0.0)
    else:
        ramp = 0.5 * (1.0 + np.cos(np.pi * (freq - lo) / transition_width))
        low = np.where(freq <= lo, 1.0, np.where(freq > hi, 0.0, ramp))
    high = 1.0 - low
    for resp in (low, high):
        resp.flags.writeable = False
    return RingFilterBank(length, (low, high))


def _filter_values(bank: RingFilterBank, j: int, values: np.ndarray) -> np.ndarray:
    length = values.shape[-1]
    half = bank.responses[j][: bank.length // 2 + 1]
    spectrum = np.fft.rfft(values, n=bank.length, axis=-1)
    out = np.fft.irfft(spectrum * half, n=bank.length, axis=-1)
    return out[..., :length]


def apply_band(bank: RingFilterBank, j: int, x):
    """Apply band j (0 or 1) to signals no longer than the bank, time last.

    Accepts a plain ndarray or a graph :class:`Tensor`.  The operator is
    linear and self-adjoint (real symmetric spectral multiplier), so the
    backward pass applies the same band to the upstream adjoint.
    """
    if isinstance(x, Tensor):
        out = _filter_values(bank, j, x.data)

        def bw(g: np.ndarray) -> None:
            x._accumulate(_filter_values(bank, j, g))

        return Tensor(out, parents=(x,), backward_fn=bw)
    return _filter_values(bank, j, np.asarray(x, dtype=np.float64))


def band_energy(x, bank: RingFilterBank) -> np.ndarray:
    """Per-band energies of a signal no longer than the bank, Parseval-consistent.

    Returns ``[..., 2]``; with a hard (tw=0) bank the energies
    sum to ``||x||^2`` exactly up to FFT roundoff.
    """
    values = np.asarray(x, dtype=np.float64)
    spectrum = np.fft.fft(values, n=bank.length, axis=-1)
    power = np.abs(spectrum) ** 2
    out = np.stack(
        [np.sum(power * resp**2, axis=-1) / bank.length for resp in bank.responses],
        axis=-1,
    )
    return out
