"""Training of three-arm ensembles and their evaluation.

Four ensemble kinds share one recipe: arm 0 is always an unfiltered
cross-entropy baseline (the attack target); arms 1 and 2 optionally see
a single spectral band of the input (fcor / fdec) and optionally carry
the decorrelation penalty against all previously trained arms (dec /
fdec).  A decorrelating arm waits for the frozen features of every arm
before it, which it regresses against; the other arms train side by side
on threads.  An arm whose features are known (from another kind) is skipped.

Everything is deterministic given the config seeds, on any thread:
initialization and projection draws use separate named streams, so a
kind that skips the decorrelation path reproduces the plain baseline
bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .decorrelation import (
    DecorConfig,
    build_cache,
    correlation_r2,
    ensemble_decor_loss,
)
from .fourier import RingFilterBank, apply_band
from .model import ArchConfig, ClassifierParams, forward, init_params, make_param_tensors

__all__ = [
    "KINDS",
    "ArmRole",
    "arm_roles",
    "AdamConfig",
    "AdamState",
    "adam_step",
    "TrainConfig",
    "batch_schedule",
    "train_arm",
    "arm_view",
    "train_ensemble",
    "evaluate_arms",
    "correlation_report",
]

KINDS = ("cor", "dec", "fcor", "fdec")


@dataclass(frozen=True)
class ArmRole:
    band: int | None  # index into the filter bank, None = unfiltered
    decorrelate: bool

    def decorrelates(self, decor: DecorConfig) -> bool:
        """Whether the arm trains with the penalty: its role asks for it and
        the weight is positive.  Arm 0's role never asks."""
        return self.decorrelate and decor.weight > 0


def arm_roles(kind: str) -> tuple[ArmRole, ...]:
    """Arm descriptors for one ensemble kind; arm 0 is always the
    unfiltered cross-entropy base model.  `kind` is one of ``KINDS``."""
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
    features: np.ndarray = field(repr=False)
    curve: list[dict] = field(repr=False)


def arm_view(x: np.ndarray, role: ArmRole, bank: RingFilterBank) -> np.ndarray:
    """The input as the arm sees it: its band of `x`, or `x` if unfiltered."""
    return x if role.band is None else apply_band(bank, role.band, x)


def train_arm(
    k: int,
    role: ArmRole,
    train_x: np.ndarray,
    train_y: np.ndarray,
    arch: ArchConfig,
    cfg: TrainConfig,
    decor_cfg: DecorConfig,
    frozen: Sequence[np.ndarray],
    bank: RingFilterBank,
) -> ArmResult:
    """Train one arm on its own (possibly band-filtered) view of the data.

    `train_x` is the unfiltered preprocessed training matrix; the arm's
    band is applied here once, and the penalty runs against every feature
    matrix in `frozen`.  Returns the trained parameters, the arm's features
    over the full training set, and the per-epoch loss curve.
    """
    n = train_x.shape[0]
    view = arm_view(train_x, role, bank)

    params = init_params(arch, np.random.SeedSequence([cfg.init_seed, k]))
    state = AdamState.init(params.tensors)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.shuffle_seed, k]))
    curve: list[dict] = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        ce_vals, cor_vals = [], []
        for bidx in batch_schedule(n, cfg.batch_size, perm):
            pt = make_param_tensors(params, requires_grad=True)
            logits, feats = forward(params, view[bidx], param_tensors=pt)
            loss = ce = ad.softmax_cross_entropy(logits, train_y[bidx])
            if frozen:  # state.t counts the steps taken so far
                cor = ensemble_decor_loss(feats, frozen, bidx, decor_cfg,
                                          np.random.SeedSequence([decor_cfg.seed, k, state.t]))
                loss = ad.add(ce, ad.scale(cor, decor_cfg.weight))
                cor_vals.append(cor.item())
            loss.backward()
            grads = {name: t.grad for name, t in pt.items()}
            adam_step(params.tensors, grads, state, cfg.learning_rate, cfg.adam)
            ce_vals.append(ce.item())
        row = {"epoch": epoch, "ce": float(np.mean(ce_vals))}
        if cor_vals:
            row["cor"] = float(np.mean(cor_vals))
        curve.append(row)

    return ArmResult(params=params, features=build_cache(params, view), curve=curve)


def train_ensemble(
    kind: str,
    train_x: np.ndarray,
    train_y: np.ndarray,
    arch: ArchConfig,
    cfg: TrainConfig,
    decor_cfg: DecorConfig,
    bank: RingFilterBank,
    known: Mapping[int, np.ndarray],
    workers: int,
) -> Iterator[tuple[int, ArmResult | None]]:
    """Train the three arms on a pool of `workers` threads and yield `(k, result)` in arm
    order; the arms in `known`, whose features are given, yield None.  A decorrelating
    arm starts once every arm before it has features, the others with the first trained."""
    roles = arm_roles(kind)
    decor = [role.decorrelates(decor_cfg) for role in roles]
    feats, futures = [], {}
    batch = min(cfg.batch_size, train_x.shape[0])  # every regressor has feature_dim columns
    pool = ThreadPoolExecutor(workers)
    try:
        for k in range(len(roles)):  # check every arm's batches before any trains
            if decor[k] and batch <= arch.feature_dim + 1:
                raise ValueError("decorrelation regression needs batches larger than "
                                 f"feature_dim+1={arch.feature_dim + 1}, got {batch}")
        for k in range(len(roles)):
            for j in () if k in known else range(k, len(roles)):  # each arm whose regressors exist
                if j not in known and j not in futures and (j == k or not decor[j]):
                    futures[j] = pool.submit(train_arm, j, roles[j], train_x, train_y, arch, cfg,
                                             decor_cfg, list(feats) if decor[j] else [], bank)
            res = futures[k].result() if k in futures else None
            feats.append(known[k] if res is None else res.features)
            yield k, res
    except Exception as exc:
        raise RuntimeError(f"arm {k} of {kind} failed: {exc}") from exc
    finally:  # however the loop ends, the arms not started are dropped
        pool.shutdown(cancel_futures=True)


def evaluate_arms(correct: np.ndarray, mask: np.ndarray) -> dict[str, float]:
    """Average and P(>=x) metrics of an (arms, samples) boolean correctness matrix over
    the samples `mask` selects, and their count (attacked sets score base-correct naturals)."""
    if not np.any(mask):
        raise ValueError("evaluation mask is empty")
    correct = correct[:, mask]
    hits = correct.sum(axis=0)
    out = {"average": float(correct.mean())}
    for x in range(1, correct.shape[0] + 1):
        out[f"p{x}"] = float(np.mean(hits >= x))
    out["n_masked"] = int(mask.sum())
    return out


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
