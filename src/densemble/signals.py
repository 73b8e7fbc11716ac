"""Dataset ingestion, synthetic ECG-like generation, preprocessing, splits.

Signal files are plain text, one decimal float per line; a dataset is
described by a CSV manifest with header ``record_id,label,path``.  The
synthetic generator produces beat trains whose class differences live in
both the low and the high end of the spectrum (rhythm regularity, QRS
sharpness, broadband noise), so band-limited views of the data stay
partially discriminative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .storage import read_csv, write_bytes, write_csv

__all__ = [
    "Record",
    "NormalizationStats",
    "Dataset",
    "SynthConfig",
    "synthesize",
    "load_dataset",
    "save_dataset",
    "read_signal",
    "write_signal",
    "preprocess",
    "split",
]


@dataclass
class Record:
    id: str
    signal: np.ndarray
    label: int


@dataclass(frozen=True)
class NormalizationStats:
    mean: float
    std: float


@dataclass
class Dataset:
    records: list[Record]
    num_classes: int
    label_names: list[str]
    fixed_length: int | None = None
    normalization: NormalizationStats | None = None

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [r.id for r in self.records]

    def labels_array(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def signals_matrix(self) -> np.ndarray:
        """Stack all signals; requires a fixed post-preprocessing length."""
        if self.fixed_length is None:
            raise ValueError("dataset has no fixed length; preprocess first")
        return np.stack([r.signal for r in self.records])


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 3
    records_per_class: int = 50
    length: int = 512
    sample_rate_hz: float = 128.0

    def __post_init__(self):
        if self.num_classes not in (2, 3, 4):
            raise ValueError(f"num_classes: must be 2, 3 or 4, got {self.num_classes!r}")
        for name, low in (("records_per_class", 2), ("length", 16)):
            if getattr(self, name) < low:
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)!r}")
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
    records = []
    for label in range(cfg.num_classes):
        for i in range(cfg.records_per_class):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), label, i]))
            sig = _synth_signal(label, cfg.length, cfg.sample_rate_hz, rng)
            records.append(Record(id=f"r{label}_{i:04d}", signal=sig, label=label))
    return Dataset(
        records=records,
        num_classes=cfg.num_classes,
        label_names=[str(c) for c in range(cfg.num_classes)],
    )


MANIFEST_HEADER = ["record_id", "label", "path"]


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load records listed in a manifest CSV; labels become dense indices
    in first-appearance order."""
    base = Path(manifest_path).parent
    label_names: list[str] = []
    records = []
    for _, (rid, label_str, rel) in read_csv(manifest_path, MANIFEST_HEADER):
        if label_str not in label_names:
            label_names.append(label_str)
        path = base / rel
        if not path.exists():
            raise FileNotFoundError(f"signal file missing: {path}")
        sig = read_signal(path)
        records.append(Record(id=rid, signal=sig, label=label_names.index(label_str)))
    return Dataset(records=records, num_classes=len(label_names), label_names=label_names)


def read_signal(path: str | Path) -> np.ndarray:
    """One finite float per line; a bad value fails as ``path:line``."""
    values = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{ln}: unparsable float {line!r}") from None
    if not values:
        raise ValueError(f"{path}: empty signal")
    signal = np.array(values, dtype=np.float64)
    if not np.isfinite(signal).all():  # rare, so re-read the file to name the line
        lines = enumerate(Path(path).read_text().split("\n"), 1)
        ln, line = next((ln, s) for ln, s in lines if s.strip() and not math.isfinite(float(s)))
        raise ValueError(f"{path}:{ln}: non-finite value {line.strip()!r}")
    return signal


def write_signal(path: str | Path, values: np.ndarray) -> None:
    """One repr() float per line, so :func:`read_signal` gets every bit back."""
    write_bytes(path, ("\n".join(map(repr, values.tolist())) + "\n").encode("utf-8"))


def save_dataset(ds: Dataset, out_dir: str | Path) -> Path:
    """Write manifest + one signal file per record; returns the manifest path."""
    out_dir = Path(out_dir)
    rows = []
    for rec in ds.records:
        rel = f"signals/{rec.id}.txt"
        write_signal(out_dir / rel, rec.signal)
        rows.append([rec.id, ds.label_names[rec.label], rel])
    manifest = out_dir / "manifest.csv"
    write_csv(manifest, MANIFEST_HEADER, rows)
    return manifest


def _fit_length(sig: np.ndarray, length: int) -> np.ndarray:
    n = len(sig)
    if n == length:
        return sig
    if n > length:
        start = (n - length) // 2
        return sig[start : start + length]
    d = length - n
    return np.pad(sig, (d // 2, d - d // 2))


def preprocess(
    ds: Dataset, length: int, stats: NormalizationStats | None = None
) -> Dataset:
    """Crop/pad every record to `length`, then z-score.

    When `stats` is None the normalization statistics are computed from
    this dataset (call on the training split first and pass its stats
    when preprocessing the test split, so nothing leaks).
    """
    if length <= 0:
        raise ValueError("length must be positive")
    fitted = [_fit_length(r.signal, length) for r in ds.records]
    if stats is None:
        stacked = np.stack(fitted)
        stats = NormalizationStats(
            mean=float(stacked.mean()), std=max(float(stacked.std()), 1e-8)
        )
    records = [
        Record(id=r.id, signal=(s - stats.mean) / stats.std, label=r.label)
        for r, s in zip(ds.records, fitted)
    ]
    return Dataset(
        records=records,
        num_classes=ds.num_classes,
        label_names=list(ds.label_names),
        fixed_length=length,
        normalization=stats,
    )


def split(ds: Dataset, train_fraction: float = 0.9, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Label-stratified disjoint split, deterministic given the seed.

    Record order inside each split follows the original dataset order,
    which downstream code treats as the canonical sample ordering.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    by_label: dict[int, list[int]] = {}
    for i, rec in enumerate(ds.records):
        by_label.setdefault(rec.label, []).append(i)

    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        idxs = by_label[label]
        if len(idxs) < 2:
            raise ValueError(f"class {label} has fewer than 2 records; cannot split")
        perm = rng.permutation(len(idxs))
        n_tr = min(len(idxs) - 1, max(1, int(len(idxs) * train_fraction)))
        train_idx.extend(idxs[j] for j in perm[:n_tr])
        test_idx.extend(idxs[j] for j in perm[n_tr:])

    def subset(indices: list[int]) -> Dataset:
        indices = sorted(indices)
        return Dataset(
            records=[ds.records[i] for i in indices],
            num_classes=ds.num_classes,
            label_names=list(ds.label_names),
            fixed_length=ds.fixed_length,
            normalization=ds.normalization,
        )

    return subset(train_idx), subset(test_idx)
