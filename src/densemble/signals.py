"""Dataset ingestion, synthetic ECG-like generation, preprocessing, splits.

Signal files are plain text, one decimal float per line; a dataset is
described by a CSV manifest with header ``record_id,label,path``.  A
:class:`Dataset` holds its records as columns: ids, int64 labels and the
signals, one array per record at their raw lengths until :func:`preprocess`
stacks them into one ``(n, length)`` matrix.  The synthetic generator
produces beat trains whose class differences live in both the low and the
high end of the spectrum (rhythm regularity, QRS sharpness, broadband
noise), so band-limited views of the data stay partially discriminative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .storage import read_csv, write_bytes, write_csv

__all__ = [
    "Dataset",
    "SynthConfig",
    "synthesize",
    "load_dataset",
    "check_record_id",
    "save_dataset",
    "read_signal",
    "signal_text",
    "preprocess",
    "split",
]


@dataclass
class Dataset:
    """Records as columns; `labels` are dense class indices."""

    ids: list[str]
    labels: np.ndarray
    signals: list[np.ndarray] | np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, indices: list[int]) -> Dataset:
        """The records at `indices`, in that order; the signals as a list."""
        return Dataset([self.ids[i] for i in indices], self.labels[indices],
                       [self.signals[i] for i in indices])


# Longest record, in samples.  The filter bank and every batch grow with
# the length, so a longer one is refused at load, not mid-run by numpy.
MAX_LENGTH = 2**20


@dataclass(frozen=True)
class SynthConfig:
    """Dataset shape; built by :mod:`densemble.config`, no defaults."""

    num_classes: int
    records_per_class: int
    length: int
    sample_rate_hz: float

    def __post_init__(self):
        if self.num_classes not in (2, 3, 4):
            raise ValueError(f"num_classes: must be 2, 3 or 4, got {self.num_classes!r}")
        for name, low in (("records_per_class", 2), ("length", 16)):
            if getattr(self, name) < low:
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)!r}")
        if self.length > MAX_LENGTH:
            raise ValueError(f"length: must be <= {MAX_LENGTH}, got {self.length!r}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz: must be > 0, got {self.sample_rate_hz!r}")


def _gaussian_bumps(t: np.ndarray, centers, amp: float, width: float) -> np.ndarray:
    out = np.zeros_like(t)
    for c in centers:
        out += amp * np.exp(-0.5 * ((t - c) / width) ** 2)
    return out


def _beat_times(rng: np.random.Generator, duration: float, regular: bool) -> np.ndarray:
    """Beat onset times covering [0, duration] with margin for edge tails."""
    times = []
    if regular:
        base = rng.uniform(0.62, 0.95)
        tau = rng.uniform(0.0, base) - base
        while tau < duration + 0.3:
            times.append(tau)
            tau += base * (1.0 + rng.normal(0.0, 0.02))
    else:
        tau = rng.uniform(0.0, 0.6) - 0.6
        while tau < duration + 0.3:
            times.append(tau)
            tau += rng.uniform(0.40, 0.90)
    return np.array(times)


def _synth_signal(label: int, length: int, fs: float, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(length) / fs
    duration = length / fs
    amp = rng.uniform(0.7, 1.3)

    if label == 1:
        # Irregular rhythm, no P wave, sharp narrow QRS, reduced T.
        beats = _beat_times(rng, duration, regular=False)
        sig = _gaussian_bumps(t, beats, amp, rng.uniform(0.006, 0.009))
        sig += _gaussian_bumps(t, beats + 0.20, rng.uniform(0.06, 0.20) * amp, 0.050)
    else:
        # Regular morphology: P wave, wide QRS, prominent T wave.
        beats = _beat_times(rng, duration, regular=True)
        sig = _gaussian_bumps(t, beats - 0.18, rng.uniform(0.10, 0.28) * amp, 0.030)
        sig += _gaussian_bumps(t, beats, amp, rng.uniform(0.013, 0.019))
        sig += _gaussian_bumps(t, beats + 0.26, rng.uniform(0.20, 0.45) * amp, 0.060)

    if label == 2:
        # Regular beats drowned in broadband noise at 5 dB SNR.
        rms = float(np.sqrt(np.mean(sig**2)))
        sig = sig + rng.normal(0.0, rms / 10 ** (5 / 20), length)
    elif label == 3:
        # Baseline wander dominates scaled-down beats.
        f_w = rng.uniform(0.15, 0.35)
        sig = 0.35 * sig + rng.uniform(1.2, 1.8) * np.sin(
            2 * np.pi * f_w * t + rng.uniform(0, 2 * np.pi)
        )

    # Per-record colored sensor noise: white noise shaped by a random
    # spectral tilt, so every record carries idiosyncratic texture.
    white = rng.normal(0.0, 1.0, length)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(length, 1.0 / fs)
    tilt = rng.uniform(-0.8, 0.8)
    spectrum *= (1.0 + freqs / freqs[-1]) ** tilt
    colored = np.fft.irfft(spectrum, n=length)
    sig += 0.08 * colored / max(np.std(colored), 1e-12)
    return sig


def synthesize(cfg: SynthConfig, seed: int) -> Dataset:
    """Deterministic synthetic dataset; each record gets its own RNG stream."""
    ids, signals = [], []
    for label in range(cfg.num_classes):
        for i in range(cfg.records_per_class):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), label, i]))
            ids.append(f"r{label}_{i:04d}")
            signals.append(_synth_signal(label, cfg.length, cfg.sample_rate_hz, rng))
    labels = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), cfg.records_per_class)
    return Dataset(ids, labels, signals)


MANIFEST_HEADER = ["record_id", "label", "path"]


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load records listed in a manifest CSV; labels become dense indices
    in first-appearance order."""
    base = Path(manifest_path).parent
    label_names: list[str] = []
    ids, labels, signals, seen = [], [], [], set()
    for ln, (rid, label_str, rel) in read_csv(manifest_path, MANIFEST_HEADER):
        check_record_id(rid, seen, f"{manifest_path}:{ln}")
        if label_str not in label_names:
            label_names.append(label_str)
        path = base / rel
        if not path.is_file():
            raise FileNotFoundError(f"{manifest_path}:{ln}: signal file missing: {path}")
        ids.append(rid)
        labels.append(label_names.index(label_str))
        signals.append(read_signal(path))
    return Dataset(ids, np.array(labels, dtype=np.int64), signals)


def check_record_id(rid: str, seen: set[str], where: str) -> None:
    """Add `rid` to `seen`; it names a file in every attacked set, so it must be a new file name."""
    if rid in ("", ".", "..") or "/" in rid or "\\" in rid or rid in seen:
        raise ValueError(f"{where}: record_id {rid!r} must be a unique file name")
    seen.add(rid)


def read_signal(path: str | Path) -> np.ndarray:
    """One finite float per line; a bad value fails as ``path:line``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    values = []
    for ln, line in enumerate(text.split("\n"), 1):
        if not (line := line.strip()):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(f"{path}:{ln}: unparsable float {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{ln}: non-finite value {line!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: empty signal")
    return np.array(values, dtype=np.float64)


def signal_text(values: np.ndarray) -> bytes:
    """One repr() float per line, so :func:`read_signal` gets every bit back."""
    return ("\n".join(map(repr, values.tolist())) + "\n").encode("utf-8")


def save_dataset(ds: Dataset, out_dir: str | Path) -> Path:
    """Write manifest + one signal file per record; returns the manifest path."""
    out_dir = Path(out_dir)
    rows = []
    for rid, label, signal in zip(ds.ids, ds.labels, ds.signals):
        rel = f"signals/{rid}.txt"
        write_bytes(out_dir / rel, signal_text(signal))
        rows.append([rid, str(label), rel])
    manifest = out_dir / "manifest.csv"
    write_csv(manifest, MANIFEST_HEADER, rows)
    return manifest


def _fit_length(sig: np.ndarray, length: int) -> np.ndarray:
    d = length - len(sig)  # samples to pad with zeros, or to crop when negative
    if d < 0:
        return sig[-d // 2 : -d // 2 + length]
    return np.pad(sig, (d // 2, d - d // 2))


def preprocess(train: Dataset, test: Dataset, length: int) -> tuple[Dataset, Dataset]:
    """Crop/pad every record of both splits to `length`, stack each split into
    one matrix, then z-score both with the train split's mean and std."""
    train_x = np.stack([_fit_length(s, length) for s in train.signals])
    test_x = np.stack([_fit_length(s, length) for s in test.signals])
    mean, std = float(train_x.mean()), max(float(train_x.std()), 1e-8)
    return (Dataset(list(train.ids), train.labels, (train_x - mean) / std),
            Dataset(list(test.ids), test.labels, (test_x - mean) / std))


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Label-stratified disjoint split, deterministic given the seed.

    Record order inside each split follows the original dataset order,
    which downstream code treats as the canonical sample ordering.
    """
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in np.unique(ds.labels):
        idxs = np.flatnonzero(ds.labels == label)
        if len(idxs) < 2:
            raise ValueError(f"class {label} has fewer than 2 records; cannot split")
        perm = rng.permutation(len(idxs))
        n_tr = min(len(idxs) - 1, max(1, int(len(idxs) * train_fraction)))
        train_idx.extend(idxs[perm[:n_tr]])
        test_idx.extend(idxs[perm[n_tr:]])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))
