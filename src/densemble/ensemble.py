"""Sequential training of three-arm ensembles and their evaluation.

Four ensemble kinds share one recipe: arm 0 is always an unfiltered
cross-entropy baseline (the attack target); arms 1 and 2 optionally see
a single spectral band of the input (fcor / fdec) and optionally carry
the decorrelation penalty against all previously trained arms (dec /
fdec).  Arms train strictly in order because each decorrelating arm
regresses against the frozen feature caches of its predecessors.

Everything is deterministic given the config seeds: data shuffling,
initialization and projection draws use separate named streams, so a
kind that skips the decorrelation path reproduces the plain baseline
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decorrelation import (
    DecorConfig,
    FeatureCache,
    build_cache,
    correlation_r2,
    total_loss,
)
from .fourier import RingFilterBank, apply_band
from .model import ArchConfig, ClassifierParams, forward, init_params, make_param_tensors

__all__ = [
    "KINDS",
    "ARMS_PER_ENSEMBLE",
    "ArmRole",
    "arm_roles",
    "AdamConfig",
    "AdamState",
    "adam_step",
    "TrainConfig",
    "batch_schedule",
    "train_arm",
    "train_ensemble",
    "metrics_from_correctness",
    "evaluate_arms",
    "correlation_report",
]

KINDS = ("cor", "dec", "fcor", "fdec")
ARMS_PER_ENSEMBLE = 3


@dataclass(frozen=True)
class ArmRole:
    band: int | None  # index into the filter bank, None = unfiltered
    decorrelate: bool


def arm_roles(kind: str) -> tuple[ArmRole, ...]:
    """Arm descriptors for one ensemble kind; arm 0 is always the
    unfiltered cross-entropy base model."""
    if kind not in KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    filtered = kind in ("fcor", "fdec")
    decor = kind in ("dec", "fdec")
    return (
        ArmRole(band=None, decorrelate=False),
        ArmRole(band=0 if filtered else None, decorrelate=decor),
        ArmRole(band=1 if filtered else None, decorrelate=decor),
    )


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name}: must be in [0, 1), got {getattr(self, name)!r}")
        if self.eps <= 0:
            raise ValueError(f"eps: must be > 0, got {self.eps!r}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def init(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    cfg: AdamConfig = AdamConfig(),
) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient for parameter {name}")
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1**state.t)
        v_hat = state.v[name] / (1 - b2**state.t)
        p -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule and seeds; built by :mod:`densemble.config`, no defaults."""

    epochs: int
    batch_size: int
    learning_rate: float
    adam: AdamConfig
    init_seed: int
    shuffle_seed: int

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate: must be > 0, got {self.learning_rate!r}")


def batch_schedule(n: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    """Slice a shuffled permutation into batches.

    A short tail is extended backwards to full size (overlapping the
    previous batch) so every batch has exactly `batch_size` rows whenever
    n >= batch_size.  The rule depends only on (n, batch_size), never on
    the ensemble kind, which keeps reduction runs bit-identical.
    """
    if n <= batch_size:
        return [perm]
    batches = [perm[i : i + batch_size] for i in range(0, n - batch_size + 1, batch_size)]
    if n % batch_size:
        batches.append(perm[n - batch_size :])
    return batches


@dataclass
class ArmResult:
    params: ClassifierParams
    cache: FeatureCache
    curve: list[dict] = field(repr=False)


def _arm_view(x: np.ndarray, role: ArmRole, bank: RingFilterBank) -> np.ndarray:
    return x if role.band is None else apply_band(bank, role.band, x)


def _check_decor_batches(n: int, arch: ArchConfig, cfg: TrainConfig, decor: DecorConfig) -> None:
    min_batch = min(cfg.batch_size, n)
    for what, name, dim in (("decorrelation", "projection_dim", decor.projection_dim),
                            ("decorrelation regression", "feature_dim", arch.feature_dim)):
        if min_batch <= dim + 1:
            raise ValueError(f"{what} needs batches larger than {name}+1={dim + 1}, "
                             f"got {min_batch}")


def train_arm(
    k: int,
    role: ArmRole,
    train_x: np.ndarray,
    train_y: np.ndarray,
    sample_ids: Sequence[str],
    arch: ArchConfig,
    cfg: TrainConfig,
    decor_cfg: DecorConfig,
    caches: Sequence[FeatureCache],
    bank: RingFilterBank,
) -> ArmResult:
    """Train one arm on its own (possibly band-filtered) view of the data.

    `train_x` is the unfiltered preprocessed training matrix; the arm's
    band is applied here once.  Returns the trained parameters, the
    arm's feature cache over the full training set, and the per-epoch
    loss curve.
    """
    n = train_x.shape[0]
    view = _arm_view(train_x, role, bank)
    active = role.decorrelate and decor_cfg.weight > 0 and len(caches) > 0
    if active:
        _check_decor_batches(n, arch, cfg, decor_cfg)

    params = init_params(arch, np.random.SeedSequence([cfg.init_seed, k]))
    state = AdamState.init(params.tensors)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.shuffle_seed, k]))
    curve: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        ce_vals, cor_vals = [], []
        for bidx in batch_schedule(n, cfg.batch_size, perm):
            pt = make_param_tensors(params, requires_grad=True)
            logits, feats = forward(params, view[bidx], param_tensors=pt)
            step_seed = np.random.SeedSequence([decor_cfg.seed, k, step])
            loss, ce, cor = total_loss(
                logits, train_y[bidx], feats, caches if active else [], bidx, decor_cfg,
                step_seed,
            )
            if cor is not None:
                cor_vals.append(cor.item())
            loss.backward()
            grads = {name: t.grad for name, t in pt.items()}
            adam_step(params.tensors, grads, state, cfg.learning_rate, cfg.adam)
            ce_vals.append(ce.item())
            step += 1
        row = {"epoch": epoch, "ce": float(np.mean(ce_vals))}
        if active:
            row["cor"] = float(np.mean(cor_vals))
        curve.append(row)

    cache = build_cache(params, view, sample_ids, model_id=f"arm{k}")
    return ArmResult(params=params, cache=cache, curve=curve)


def train_ensemble(
    kind: str,
    train_x: np.ndarray,
    train_y: np.ndarray,
    sample_ids: Sequence[str],
    arch: ArchConfig,
    cfg: TrainConfig,
    decor_cfg: DecorConfig,
    bank: RingFilterBank,
) -> list[ArmResult]:
    """Train the three arms strictly sequentially; each decorrelating arm
    sees the caches of every arm trained before it."""
    roles = arm_roles(kind)
    results: list[ArmResult] = []
    try:
        for k, role in enumerate(roles):  # check every arm's batches before any trains
            if role.decorrelate and decor_cfg.weight > 0 and k > 0:
                _check_decor_batches(train_x.shape[0], arch, cfg, decor_cfg)
        for k, role in enumerate(roles):
            caches = [r.cache for r in results] if role.decorrelate else []
            results.append(
                train_arm(
                    k, role, train_x, train_y, sample_ids, arch, cfg, decor_cfg,
                    caches, bank,
                )
            )
    except Exception as exc:
        raise RuntimeError(f"arm {k} of {kind} failed: {exc}") from exc
    return results


def metrics_from_correctness(correct: np.ndarray) -> dict[str, float]:
    """Ensemble metrics from an (arms, samples) boolean matrix."""
    if correct.ndim != 2 or correct.shape[1] == 0:
        raise ValueError("need a non-empty (arms, samples) correctness matrix")
    arms = correct.shape[0]
    hits = correct.sum(axis=0)
    out = {"average": float(correct.mean())}
    for x in range(1, arms + 1):
        out[f"p{x}"] = float(np.mean(hits >= x))
    return out


def evaluate_arms(
    arms: Sequence[ClassifierParams],
    roles: Sequence[ArmRole],
    x: np.ndarray,
    y: np.ndarray,
    mask: np.ndarray | None,
    bank: RingFilterBank,
) -> dict[str, float]:
    """Per-sample correctness over all arms (each on its own filtered
    view), reduced to average and P(>=x) metrics.  `mask` restricts the
    scored samples (attacked sets score only base-correct naturals)."""
    if mask is None:
        mask = np.ones(len(y), dtype=bool)
    if not np.any(mask):
        raise ValueError("evaluation mask is empty")
    correct = np.stack(
        [
            np.argmax(forward(p, _arm_view(x, role, bank))[0].data, axis=1) == y
            for p, role in zip(arms, roles)
        ]
    )
    metrics = metrics_from_correctness(correct[:, mask])
    metrics["n_masked"] = int(mask.sum())
    return metrics


def correlation_report(feats: Sequence[np.ndarray]) -> dict:
    """Pairwise R^2 between the arms' features over the full training
    set (the rows of their feature caches).

    OLS R^2 is direction dependent, so the full ordered matrix is
    reported along with the per-pair mean of both directions as the
    headline number.  Values are clamped to [0, 1] for reporting.
    """
    a = len(feats)
    raw = [[correlation_r2(feats[i], feats[j]) for j in range(a)] for i in range(a)]
    clamp = lambda v: float(min(1.0, max(0.0, v)))
    matrix = [[clamp(v) for v in row] for row in raw]
    pairs = {}
    off_diag = []
    for i in range(a):
        for j in range(i + 1, a):
            fwd, rev = matrix[i][j], matrix[j][i]
            pairs[f"{i}-{j}"] = {"forward": fwd, "reverse": rev, "mean": (fwd + rev) / 2}
            off_diag.extend([fwd, rev])
    return {
        "matrix": matrix,
        "matrix_raw": [[float(v) for v in row] for row in raw],
        "pairs": pairs,
        "mean_offdiag": float(np.mean(off_diag)),
    }
