"""Feature decorrelation losses and the per-model feature cache.

The training penalty measures how well one model's penultimate-layer
features linearly explain another's (OLS R^2 with intercept) and pushes
that explained variance down.  To keep the regression cheap and
overdetermined at practical batch sizes, one side is compressed through
a fresh Gaussian random projection every step, and which side plays the
regressor is a per-step coin flip, so no fixed subspace can be gamed.
One coin flip and one projection per step are shared by every earlier
model the step regresses against.

Previously trained models never run during training: their features over
the full training set are cached once and looked up by batch indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
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
    "ensemble_decor_loss",
    "build_cache",
    "save_cache",
    "load_cache",
]


# Rows per forward pass when a trained arm's feature cache is built: the reference train
# batch, so the build peaks below a step (never 1 row: one-row products take another path).
CACHE_BATCH = 80


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
    log_tot, log_res = ad.log(ad.add(ss_tot, stab_eps)), ad.log(ad.add(ss_res, stab_eps))
    return ad.add(log_tot, ad.scale(log_res, -1.0))


# Header fields tying a saved cache to its arm: the arm's key, the sha256 of
# the arm{k}.params beside it and the digest of the train split.
PROVENANCE = ("arm_key", "params_sha256", "train_digest")


@dataclass(frozen=True)
class FeatureCache:
    """A saved ``arm{k}.cache``: the frozen features of one trained model
    over the full training set, row i matching training sample i under the
    canonical ordering, and the ``PROVENANCE`` fields that tie it to its arm."""

    model_id: str
    sample_ids: tuple[str, ...]
    features: np.ndarray = field(repr=False)
    provenance: dict[str, str]

    def __post_init__(self):
        if self.features.dtype != np.float64:
            raise ValueError(f"features must be float64, got {self.features.dtype.str}")
        if self.features.ndim != 2 or self.features.shape[0] != len(self.sample_ids):
            raise ValueError("feature cache rows must match sample ids")
        self.features.flags.writeable = False


def ensemble_decor_loss(
    zk: Tensor,
    frozen: Sequence[np.ndarray],
    batch_indices,
    cfg: DecorConfig,
    step_seed,
) -> Tensor:
    """Mean decorrelation loss of the training model's batch features `zk`
    against the frozen features of every previously trained model.
    `batch_indices` are rows of the training split, which each `frozen` matrix covers.

    One coin flip and one (D, projection_dim) matrix of N(0, 1/sqrt(D))
    entries, both drawn from `step_seed`, govern the whole step: either
    each frozen batch is projected and regressed on `zk`, or `zk` is
    projected and regressed on each frozen batch."""
    rng = np.random.default_rng(step_seed)
    project_frozen = rng.random() < 0.5
    d = zk.shape[1]
    proj = rng.normal(0.0, 1.0 / np.sqrt(d), (d, cfg.projection_dim))
    total = None
    for features in frozen:
        zi = features[batch_indices]
        term = (decor_loss(zk, Tensor(zi @ proj), cfg.stab_eps) if project_frozen
                else decor_loss(Tensor(zi), ad.matmul(zk, Tensor(proj)), cfg.stab_eps))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / len(frozen))


def build_cache(params: ClassifierParams, signals: np.ndarray) -> np.ndarray:
    """One forward pass over the training set (canonical order) collecting
    the feature layer, as a read-only matrix."""
    chunks = []
    for start in range(0, signals.shape[0], CACHE_BATCH):
        _, feats = forward(params, signals[start : start + CACHE_BATCH])
        chunks.append(feats.data)
    features = np.concatenate(chunks, axis=0)
    features.flags.writeable = False
    return features


def save_cache(cache: FeatureCache, path) -> None:
    write_container(
        path,
        {
            **cache.provenance,
            "kind": "feature-cache",
            "model_id": cache.model_id,
            "sample_ids": list(cache.sample_ids),
        },
        {"features": cache.features},
    )


def load_cache(path) -> FeatureCache:
    header, arrays = read_container(path, Path(path).read_bytes())
    if header.get("kind") != "feature-cache":
        raise ValueError(f"{path}: not a feature cache file")
    try:  # a missing field or array, features not float64, or rows that do not match the ids
        return FeatureCache(
            model_id=header["model_id"],
            sample_ids=tuple(header["sample_ids"]),
            features=arrays["features"],
            provenance={k: header[k] for k in PROVENANCE if k in header},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad feature cache: {exc}") from None
