"""Feature decorrelation losses and the per-model feature cache.

The training penalty measures how well one model's penultimate-layer
features linearly explain another's (OLS R^2 with intercept) and pushes
that explained variance down.  To keep the regression cheap and
overdetermined at practical batch sizes, one side is compressed through
a fresh Gaussian random projection every step, and which side plays the
regressor is a per-step coin flip, so no fixed subspace can be gamed.

Previously trained models never run during training: their features over
the full training set are cached once and looked up by batch indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ClassifierParams, forward
from .storage import read_container, write_container

__all__ = [
    "DecorConfig",
    "FeatureCache",
    "correlation_r2",
    "decor_loss",
    "draw_projection",
    "pair_loss",
    "ensemble_decor_loss",
    "total_loss",
    "build_cache",
    "save_cache",
    "load_cache",
]


# Rows per forward pass when a trained arm's feature cache is built.
CACHE_BATCH = 256


@dataclass(frozen=True)
class DecorConfig:
    """Decorrelation penalty; built by :mod:`densemble.config`, no defaults."""

    projection_dim: int
    weight: float
    stab_eps: float
    seed: int

    def __post_init__(self):
        if self.projection_dim < 1:
            raise ValueError(f"projection_dim: must be >= 1, got {self.projection_dim!r}")
        if self.weight < 0:
            raise ValueError(f"weight: must be >= 0, got {self.weight!r}")
        if self.stab_eps <= 0:
            raise ValueError(f"stab_eps: must be > 0, got {self.stab_eps!r}")


def correlation_r2(zr, zt) -> float:
    """Fraction of zt's total sum of squares explained by OLS on [zr, 1].

    Unbounded below; callers clamp to [0, 1] for reporting only.
    """
    ss_res, ss_tot = ad.least_squares_residual(Tensor(zr), Tensor(zt))
    if ss_tot.item() == 0.0:
        return 0.0
    return 1.0 - ss_res.item() / ss_tot.item()


def decor_loss(zr: Tensor, zt: Tensor, stab_eps: float) -> Tensor:
    """log(SS_total + eps) - log(SS_res + eps); ~0 when zr explains nothing
    of zt, large when the fit is tight."""
    ss_res, ss_tot = ad.least_squares_residual(zr, zt)
    return ad.sub(ad.log(ad.add(ss_tot, stab_eps)), ad.log(ad.add(ss_res, stab_eps)))


def draw_projection(d: int, r: int, seed) -> np.ndarray:
    """(d, r) matrix of i.i.d. N(0, 1/sqrt(d)) entries."""
    if r > d:
        raise ValueError(f"projection dim {r} exceeds feature dim {d}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(d), (d, r))


def pair_loss(zk: Tensor, zi: np.ndarray, cfg: DecorConfig, step_seed) -> Tensor:
    """Randomized decorrelation loss between the training model's batch
    features `zk` and a frozen feature batch `zi`.

    A coin flip (from `step_seed`) picks which side is compressed: either
    `zi` is projected and regressed on `zk`, or `zk` is projected and
    regressed on frozen `zi`.  The projected side is always the
    regression target; projection is right-multiplication (N,D)@(D,r).
    """
    if zk.ndim != 2 or zi.ndim != 2 or zk.shape[0] != zi.shape[0]:
        raise ValueError("pair_loss needs two feature batches with equal row counts")
    n = zk.shape[0]
    if n <= cfg.projection_dim + 1:
        raise ValueError(
            f"batch of {n} rows is too small for projection dim {cfg.projection_dim}"
        )
    rng = np.random.default_rng(step_seed)
    if rng.random() < 0.5:  # project the frozen side
        proj = draw_projection(zi.shape[1], cfg.projection_dim, rng)
        return decor_loss(zk, Tensor(zi @ proj), cfg.stab_eps)
    proj = draw_projection(zk.shape[1], cfg.projection_dim, rng)
    return decor_loss(Tensor(zi), ad.matmul(zk, Tensor(proj)), cfg.stab_eps)


@dataclass(frozen=True)
class FeatureCache:
    """Frozen features of one trained model over the full training set,
    row i matching training sample i under the canonical ordering."""

    model_id: str
    sample_ids: tuple[str, ...]
    features: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] != len(self.sample_ids):
            raise ValueError("feature cache rows must match sample ids")
        self.features.flags.writeable = False

    def rows(self, indices) -> np.ndarray:
        idx = np.asarray(indices)
        if idx.size == 0 or idx.min() < 0 or idx.max() >= self.features.shape[0]:
            raise IndexError(
                f"cache {self.model_id}: batch indices outside cached range"
            )
        return self.features[idx]


def ensemble_decor_loss(
    zk: Tensor,
    caches: Sequence[FeatureCache],
    batch_indices,
    cfg: DecorConfig,
    step_seed,
) -> Tensor:
    """Arithmetic mean of pair_loss against every previously trained model.

    All pairs share the same per-step seed, so one coin flip and one
    projection draw govern the whole step.
    """
    if not caches:
        raise ValueError("ensemble_decor_loss needs at least one previous model")
    terms = [pair_loss(zk, c.rows(batch_indices), cfg, step_seed) for c in caches]
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(terms))


def total_loss(
    logits: Tensor,
    labels,
    zk: Tensor,
    caches: Sequence[FeatureCache],
    batch_indices,
    cfg: DecorConfig,
    step_seed,
) -> tuple[Tensor, Tensor, Tensor | None]:
    """Cross entropy plus weighted decorrelation, returned as
    ``(loss, ce, cor)``; with weight 0 (or no previous models) the loss
    is exactly the cross entropy and ``cor`` is None."""
    ce = ad.softmax_cross_entropy(logits, labels)
    if cfg.weight == 0.0 or not caches:
        return ce, ce, None
    cor = ensemble_decor_loss(zk, caches, batch_indices, cfg, step_seed)
    return ad.add(ce, ad.scale(cor, cfg.weight)), ce, cor


def build_cache(
    params: ClassifierParams,
    signals: np.ndarray,
    sample_ids: Sequence[str],
    model_id: str,
) -> FeatureCache:
    """One forward pass over the training set (canonical order) collecting
    the feature layer."""
    chunks = []
    for start in range(0, signals.shape[0], CACHE_BATCH):
        _, feats = forward(params, signals[start : start + CACHE_BATCH])
        chunks.append(feats.data)
    return FeatureCache(
        model_id=model_id,
        sample_ids=tuple(sample_ids),
        features=np.concatenate(chunks, axis=0),
    )


def save_cache(cache: FeatureCache, path) -> None:
    write_container(
        path,
        {
            "kind": "feature-cache",
            "model_id": cache.model_id,
            "sample_ids": list(cache.sample_ids),
        },
        {"features": cache.features},
    )


def load_cache(path) -> FeatureCache:
    header, arrays = read_container(path)
    if header.get("kind") != "feature-cache":
        raise ValueError(f"{path}: not a feature cache file")
    return FeatureCache(
        model_id=header["model_id"],
        sample_ids=tuple(header["sample_ids"]),
        features=arrays["features"],
    )
