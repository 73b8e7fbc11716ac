"""PGD and smoothed (SAP) adversarial perturbation crafting.

Both attacks maximize the target model's cross entropy with signed
gradient steps under an l-infinity budget.  PGD perturbs the input
directly and projects back into the epsilon ball after every step.  SAP
optimizes a latent variable that is rendered through an average of
unit-sum Gaussian kernels before being added to the input; the kernels
suppress high-frequency content, so the induced perturbation stays
smooth while the latent keeps the full budget.

Attacks are deterministic: no random start, sgn(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ClassifierParams, forward, predict
from .signals import read_signal, write_signal
from .storage import read_csv, read_json, write_csv, write_json

__all__ = [
    "DEFAULT_SAP_KERNELS",
    "AttackSpec",
    "AttackedSet",
    "gaussian_kernel",
    "pgd",
    "sap",
    "craft_set",
    "save_attacked_set",
    "load_attacked_set",
]

INDEX_HEADER = ["record_id", "label", "masked", "linf_delta"]
MANIFEST_KEYS = ("family", "epsilon", "alpha", "steps", "kernel_bank", "target_model_id")

# (width in samples, std in samples); widths odd, std = width / 4.
DEFAULT_SAP_KERNELS = ((5, 1.25), (9, 2.25), (13, 3.25), (17, 4.25), (21, 5.25))


@dataclass(frozen=True)
class AttackSpec:
    """One attack grid cell; built by :mod:`densemble.config` or :meth:`make`,
    no defaults."""

    family: str
    eps: float
    alpha: float
    steps: int
    kernel_bank: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.family not in ("pgd", "sap"):
            raise ValueError(f"family: unknown attack family {self.family!r}")
        for name, low in (("eps", 0), ("alpha", 0), ("steps", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)!r}")
        if self.family == "sap" and not self.kernel_bank:
            raise ValueError("kernel_bank: sap needs a non-empty kernel bank")
        for s, sigma in self.kernel_bank:
            if s % 2 == 0 or s < 1 or sigma <= 0:
                raise ValueError(f"kernel_bank: need [odd width, std > 0], got ({s}, {sigma})")

    @staticmethod
    def make(family: str, eps: float, steps: int = 20, alpha: float | None = None,
             kernel_bank=DEFAULT_SAP_KERNELS) -> "AttackSpec":
        """Default step size is eps * 0.1, as ``attack.alpha_scale``."""
        return AttackSpec(
            family=family,
            eps=float(eps),
            alpha=float(eps) * 0.1 if alpha is None else float(alpha),
            steps=steps,
            kernel_bank=tuple(tuple(k) for k in kernel_bank) if family == "sap" else (),
        )


def gaussian_kernel(s: int, sigma: float) -> np.ndarray:
    """Discretized Gaussian of odd width s, centered, normalized to sum 1."""
    if s < 1 or s % 2 == 0:
        raise ValueError("kernel width must be a positive odd integer")
    if sigma <= 0:
        raise ValueError("kernel std must be positive")
    d = np.arange(s) - (s - 1) / 2.0
    k = np.exp(-0.5 * (d / sigma) ** 2)
    return k / k.sum()


def _loss_and_grad(
    params: ClassifierParams, leaf: Tensor, x_input: Tensor, y: np.ndarray, step: int
) -> tuple[float, np.ndarray]:
    logits, _ = forward(params, x_input)
    loss = ad.softmax_cross_entropy(logits, y)
    loss.backward()
    g = leaf.grad
    if g is None or not np.all(np.isfinite(g)):
        gmax = None if g is None else float(np.max(np.abs(g)))
        raise RuntimeError(
            f"non-finite attack gradient at step {step} (loss={loss.item()}, "
            f"max|grad|={gmax})"
        )
    return loss.item(), g


def _ascend(params: ClassifierParams, x, y, spec: AttackSpec, render) -> np.ndarray:
    """Signed-gradient ascent on a latent clipped to the epsilon ball after
    every step; the model sees x + render(latent).  Iterating on the latent
    rather than on x keeps the ball constraint exact in floats."""
    x = np.asarray(x, dtype=np.float64)
    latent = np.zeros_like(x)
    for step in range(spec.steps):
        leaf = Tensor(latent, requires_grad=True)
        _, g = _loss_and_grad(params, leaf, ad.add(Tensor(x), render(leaf)), y, step)
        latent = np.clip(latent + spec.alpha * np.sign(g), -spec.eps, spec.eps)
    return x + render(Tensor(latent)).data


def pgd(
    params: ClassifierParams,
    x: np.ndarray,
    y: np.ndarray,
    spec: AttackSpec,
) -> np.ndarray:
    """Signed-gradient ascent on the input with per-step projection into
    the epsilon ball around x.  No data-domain box: amplitudes are
    unbounded after z-scoring."""
    if spec.family != "pgd":
        raise ValueError("pgd called with a non-pgd spec")
    return _ascend(params, x, y, spec, lambda delta: delta)


def _render_smooth(theta: Tensor, kernels: list[np.ndarray]) -> Tensor:
    """(1/M) sum_m theta (*) K_m with same-length zero-padded convolution."""
    n, length = theta.shape
    th3 = ad.reshape(theta, (n, 1, length))
    acc = None
    for k in kernels:
        term = ad.conv1d(th3, Tensor(k.reshape(1, 1, -1)), stride=1, pad=(len(k) - 1) // 2)
        acc = term if acc is None else ad.add(acc, term)
    return ad.reshape(ad.scale(acc, 1.0 / len(kernels)), (n, length))


def sap(
    params: ClassifierParams,
    x: np.ndarray,
    y: np.ndarray,
    spec: AttackSpec,
) -> np.ndarray:
    """Smoothed perturbation: optimize a latent theta (clipped to the
    epsilon ball) whose kernel-smoothed average is added to x.  Since the
    kernels are non-negative with unit sum, the induced perturbation also
    stays inside the epsilon ball."""
    if spec.family != "sap":
        raise ValueError("sap called with a non-sap spec")
    kernels = [gaussian_kernel(s, sigma) for s, sigma in spec.kernel_bank]
    return _ascend(params, x, y, spec, lambda theta: _render_smooth(theta, kernels))


@dataclass
class AttackedSet:
    ids: list[str]
    labels: np.ndarray
    natural: np.ndarray = field(repr=False)
    perturbed: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)  # base model correct on naturals
    spec: AttackSpec
    target_model_id: str

    def linf_deltas(self) -> np.ndarray:
        return np.max(np.abs(self.perturbed - self.natural), axis=1)


def craft_set(
    target: ClassifierParams,
    x: np.ndarray,
    y: np.ndarray,
    ids,
    spec: AttackSpec,
    base: ClassifierParams,
) -> AttackedSet:
    """Perturb every sample against `target`; the scoring mask keeps only
    samples the base model classifies correctly in natural form."""
    attack = pgd if spec.family == "pgd" else sap
    perturbed = attack(target, x, y, spec)
    mask = predict(base, x) == y
    return AttackedSet(
        ids=list(ids),
        labels=np.asarray(y),
        natural=np.asarray(x, dtype=np.float64),
        perturbed=perturbed,
        mask=mask,
        spec=spec,
        target_model_id="arm0",
    )


def save_attacked_set(aset: AttackedSet, out_dir: str | Path) -> None:
    """Signals, manifest, then ``index.csv``: a cell with an index is complete."""
    out_dir = Path(out_dir)
    for sub, matrix in (("natural", aset.natural), ("perturbed", aset.perturbed)):
        for rid, row in zip(aset.ids, matrix):
            write_signal(out_dir / sub / f"{rid}.txt", row)
    manifest = {
        "family": aset.spec.family,
        "epsilon": aset.spec.eps,
        "alpha": aset.spec.alpha,
        "steps": aset.spec.steps,
        "kernel_bank": [list(k) for k in aset.spec.kernel_bank],
        "target_model_id": aset.target_model_id,
    }
    write_json(out_dir / "attack_manifest.json", manifest)
    deltas = aset.linf_deltas()
    write_csv(out_dir / "index.csv", INDEX_HEADER, [
        [rid, int(aset.labels[i]), int(aset.mask[i]), repr(float(deltas[i]))]
        for i, rid in enumerate(aset.ids)
    ])


def load_attacked_set(in_dir: str | Path) -> AttackedSet:
    in_dir = Path(in_dir)
    index = in_dir / "index.csv"
    if not index.exists():
        raise FileNotFoundError(f"missing artifact: {index}")
    manifest = read_json(in_dir / "attack_manifest.json")
    if missing := [k for k in MANIFEST_KEYS if k not in manifest]:
        raise ValueError(f"{in_dir / 'attack_manifest.json'}: missing key {missing[0]!r}")
    ids, labels, mask = [], [], []
    for ln, (rid, label, masked, _delta) in read_csv(index, INDEX_HEADER):
        try:
            labels.append(int(label))
            mask.append(bool(int(masked)))
        except ValueError as exc:
            raise ValueError(f"{index}:{ln}: {exc}") from None
        ids.append(rid)
    paths = [in_dir / sub / f"{rid}.txt" for sub in ("natural", "perturbed") for rid in ids]
    rows = [read_signal(p) for p in paths]
    common = np.bincount([len(r) for r in rows]).argmax()
    for path, row in zip(paths, rows):
        if len(row) != common:
            raise ValueError(f"{path}: {len(row)} values, but the other signals have {common}")
    natural, perturbed = np.stack(rows[: len(ids)]), np.stack(rows[len(ids):])

    try:
        spec = AttackSpec.make(manifest["family"], manifest["epsilon"], steps=manifest["steps"],
                               alpha=manifest["alpha"], kernel_bank=manifest["kernel_bank"])
    except (TypeError, ValueError) as exc:  # a recorded value the spec refuses
        raise ValueError(f"{in_dir / 'attack_manifest.json'}: {exc}") from None
    return AttackedSet(
        ids=ids,
        labels=np.array(labels, dtype=np.int64),
        natural=natural,
        perturbed=perturbed,
        mask=np.array(mask, dtype=bool),
        spec=spec,
        target_model_id=manifest["target_model_id"],
    )
