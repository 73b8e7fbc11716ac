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
from .model import ClassifierParams, forward
from .signals import check_record_id, read_signal, signal_text
from .storage import read_csv, read_json, write_bytes, write_csv, write_json

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
MANIFEST_KEYS = ("family", "epsilon", "alpha", "steps", "kernel_bank", "target_model_id",
                 "target_params_sha256")

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
        for name, low, kinds in (("eps", 0, (int, float)), ("alpha", 0, (int, float)),
                                 ("steps", 1, int)):
            value = getattr(self, name)  # a bool is an int, and JSON true == 1.0
            if isinstance(value, bool) or not isinstance(value, kinds) or value < low:
                what = "an integer" if kinds is int else "a number"
                raise ValueError(f"{name}: must be {what} >= {low}, got {value!r}")
        if (self.family == "sap") != bool(self.kernel_bank):
            raise ValueError(f"kernel_bank: sap needs kernels, pgd none; got {self.kernel_bank!r}")
        for s, sigma in self.kernel_bank:  # as above: neither a width nor a std is a bool
            if (isinstance(s, bool) or not isinstance(s, int) or isinstance(sigma, bool)
                    or not isinstance(sigma, (int, float)) or s % 2 == 0 or s < 1 or sigma <= 0):
                raise ValueError(f"kernel_bank: need [odd int width, std > 0], got {(s, sigma)!r}")

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
    """Discretized Gaussian of odd width s, centered, normalized to sum 1;
    :class:`AttackSpec` checks the width and the positive std."""
    d = np.arange(s) - (s - 1) / 2.0
    k = np.exp(-0.5 * (d / sigma) ** 2)
    return k / k.sum()


def _ascend(params: ClassifierParams, x, y, spec: AttackSpec, render) -> np.ndarray:
    """Signed-gradient ascent on a latent clipped to the epsilon ball after
    every step; the model sees x + render(latent).  Iterating on the latent
    rather than on x keeps the ball constraint exact in floats."""
    x = np.asarray(x, dtype=np.float64)
    latent = np.zeros_like(x)
    for step in range(spec.steps):
        leaf = Tensor(latent, requires_grad=True)
        logits, _ = forward(params, ad.add(Tensor(x), render(leaf)))
        loss = ad.softmax_cross_entropy(logits, y)
        loss.backward()
        g = leaf.grad
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite attack gradient at step {step} "
                               f"(loss={loss.item()}, max|grad|={float(np.max(np.abs(g)))})")
        latent = np.clip(latent + spec.alpha * np.sign(g), -spec.eps, spec.eps)
    return x + render(Tensor(latent)).data


def pgd(
    params: ClassifierParams,
    x: np.ndarray,
    y: np.ndarray,
    spec: AttackSpec,
) -> np.ndarray:
    """Signed-gradient ascent on the input with per-step projection into
    the epsilon ball around x, for a "pgd" spec.  No data-domain box:
    amplitudes are unbounded after z-scoring."""
    return _ascend(params, x, y, spec, lambda delta: delta)


def sap(
    params: ClassifierParams,
    x: np.ndarray,
    y: np.ndarray,
    spec: AttackSpec,
) -> np.ndarray:
    """Smoothed perturbation for a "sap" spec: optimize a latent theta
    (clipped to the epsilon ball) rendered by one convolution with the mean
    of the centred kernels and added to x.  That kernel is non-negative with
    unit sum, so the induced perturbation also stays inside the epsilon ball."""
    width = max(s for s, _ in spec.kernel_bank)
    kernel = np.zeros((1, 1, width))
    for s, sigma in spec.kernel_bank:
        kernel[..., (width - s) // 2 : (width + s) // 2] += gaussian_kernel(s, sigma)
    mean = Tensor(kernel / len(spec.kernel_bank))
    return _ascend(params, x, y, spec, lambda theta: ad.reshape(ad.conv1d(
        ad.reshape(theta, (len(x), 1, -1)), mean, stride=1, pad=width // 2), theta.shape))


@dataclass
class AttackedSet:
    ids: list[str]
    labels: np.ndarray
    natural: np.ndarray = field(repr=False)
    perturbed: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)  # base model correct on naturals
    spec: AttackSpec
    target_params_sha256: str  # of the target's arm0.params bytes


def craft_set(
    x: np.ndarray,
    y: np.ndarray,
    ids,
    mask: np.ndarray,
    spec: AttackSpec,
    base: ClassifierParams,
    target_params_sha256: str,
) -> AttackedSet:
    """Perturb every sample against `base`; `mask`, the samples the base
    model classifies correctly in natural form, is recorded as given."""
    attack = pgd if spec.family == "pgd" else sap
    return AttackedSet(
        ids=list(ids),
        labels=np.asarray(y),
        natural=np.asarray(x, dtype=np.float64),
        perturbed=attack(base, x, y, spec),
        mask=mask,
        spec=spec,
        target_params_sha256=target_params_sha256,
    )


def save_attacked_set(aset: AttackedSet, out_dir: str | Path, natural_text: list[bytes]) -> None:
    """Signals, manifest, then ``index.csv``: a cell with an index is complete.
    `natural_text` is :func:`signal_text` of each natural row, shared by a grid."""
    out_dir = Path(out_dir)
    for rid, text, row in zip(aset.ids, natural_text, aset.perturbed, strict=True):
        write_bytes(out_dir / "natural" / f"{rid}.txt", text)
        write_bytes(out_dir / "perturbed" / f"{rid}.txt", signal_text(row))
    manifest = {
        "family": aset.spec.family,
        "epsilon": aset.spec.eps,
        "alpha": aset.spec.alpha,
        "steps": aset.spec.steps,
        "kernel_bank": [list(k) for k in aset.spec.kernel_bank],
        "target_model_id": "arm0",
        "target_params_sha256": aset.target_params_sha256,
    }
    write_json(out_dir / "attack_manifest.json", manifest)
    deltas = np.max(np.abs(aset.perturbed - aset.natural), axis=1)
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
    if not isinstance(manifest, dict):
        raise ValueError(f"{in_dir / 'attack_manifest.json'}: not a JSON object")
    if missing := [k for k in MANIFEST_KEYS if k not in manifest]:
        raise ValueError(f"{in_dir / 'attack_manifest.json'}: missing key {missing[0]!r}")
    ids, labels, mask, seen = [], [], [], set()
    for ln, (rid, label, masked, _) in (index_rows := read_csv(index, INDEX_HEADER)):
        check_record_id(rid, seen, f"{index}:{ln}")
        try:
            labels.append(int(label))
            if masked not in ("0", "1"):
                raise ValueError(f"masked must be 0 or 1, got {masked!r}")
            mask.append(masked == "1")
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

    try:  # as written: no default fills or drops a recorded value
        if (target := manifest["target_model_id"]) != "arm0":
            raise ValueError(f"target_model_id: must be 'arm0', got {target!r}")
        spec = AttackSpec(family=manifest["family"], eps=manifest["epsilon"],
                          alpha=manifest["alpha"], steps=manifest["steps"],
                          kernel_bank=tuple(tuple(k) for k in manifest["kernel_bank"]))
    except (TypeError, ValueError) as exc:  # a recorded value the spec refuses
        raise ValueError(f"{in_dir / 'attack_manifest.json'}: {exc}") from None
    deltas = np.max(np.abs(perturbed - natural), axis=1)
    for (ln, (rid, _, _, linf)), delta in zip(index_rows, deltas.tolist()):
        if delta > spec.eps + 1e-12:
            raise ValueError(f"{in_dir / 'perturbed' / rid}.txt: max|perturbed - natural| "
                             f"{delta!r} exceeds epsilon {spec.eps!r}")
        if linf != repr(delta):
            raise ValueError(f"{index}:{ln}: linf_delta is {linf!r}, but the signals and arm0 "
                             f"give {repr(delta)!r}; rerun attack")
    return AttackedSet(ids=ids, labels=np.array(labels, dtype=np.int64), natural=natural,
                       perturbed=perturbed, mask=np.array(mask, dtype=bool), spec=spec,
                       target_params_sha256=manifest["target_params_sha256"])

