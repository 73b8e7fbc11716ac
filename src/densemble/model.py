"""Small 1-D convolutional classifier with an exposed feature layer.

Architecture: a few strided conv+ReLU blocks, global average pooling,
one dense+ReLU layer producing the penultimate features, and a final
dense layer producing logits.  The feature layer is the decorrelation
target elsewhere, so `forward` always returns it alongside the logits.
No batch norm or dropout: inference is deterministic per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .storage import read_container, write_container

__all__ = [
    "ArchConfig",
    "ClassifierParams",
    "init_params",
    "make_param_tensors",
    "forward",
    "predict",
    "save_params",
    "load_params",
]


@dataclass(frozen=True)
class ArchConfig:
    conv_blocks: tuple[tuple[int, int, int], ...] = ((8, 7, 2), (16, 7, 2), (32, 5, 2))
    feature_dim: int = 64
    num_classes: int = 3
    input_length: int = 512

    def __post_init__(self):
        for name, low in (("feature_dim", 1), ("num_classes", 2), ("input_length", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)!r}")
        for ch, k, s in self.conv_blocks:
            if ch < 1 or k < 1 or s < 1:
                raise ValueError(f"conv_blocks: need sizes >= 1, got ({ch}, {k}, {s})")

    def to_dict(self) -> dict:
        return {
            "conv_blocks": [list(b) for b in self.conv_blocks],
            "feature_dim": self.feature_dim,
            "num_classes": self.num_classes,
            "input_length": self.input_length,
        }

    @staticmethod
    def from_dict(d: dict) -> "ArchConfig":
        return ArchConfig(
            conv_blocks=tuple(tuple(b) for b in d["conv_blocks"]),
            feature_dim=int(d["feature_dim"]),
            num_classes=int(d["num_classes"]),
            input_length=int(d["input_length"]),
        )


@dataclass
class ClassifierParams:
    arch: ArchConfig
    tensors: dict[str, np.ndarray] = field(repr=False)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.arch, {k: v.copy() for k, v in self.tensors.items()})


def init_params(arch: ArchConfig, seed) -> ClassifierParams:
    """He-style fan-in scaled normal init, biases zero, deterministic per seed."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    c_in = 1
    for i, (c_out, k, _stride) in enumerate(arch.conv_blocks):
        fan_in = c_in * k
        tensors[f"conv{i}.w"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), (c_out, c_in, k))
        tensors[f"conv{i}.b"] = np.zeros(c_out)
        c_in = c_out
    tensors["feat.w"] = rng.normal(0.0, np.sqrt(2.0 / c_in), (c_in, arch.feature_dim))
    tensors["feat.b"] = np.zeros(arch.feature_dim)
    tensors["head.w"] = rng.normal(
        0.0, np.sqrt(2.0 / arch.feature_dim), (arch.feature_dim, arch.num_classes)
    )
    tensors["head.b"] = np.zeros(arch.num_classes)
    return ClassifierParams(arch, tensors)


def make_param_tensors(
    params: ClassifierParams, requires_grad: bool = True
) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.tensors.items()}


def forward(
    params: ClassifierParams,
    x,
    param_tensors: dict[str, Tensor] | None = None,
) -> tuple[Tensor, Tensor]:
    """Run the network; returns (logits [N,C], features [N,D]).

    `x` may be an ndarray or a graph Tensor of shape (N, L).  Pass
    `param_tensors` (from :func:`make_param_tensors`) to collect
    parameter gradients during training.
    """
    arch = params.arch
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if xt.ndim != 2 or xt.shape[1] != arch.input_length:
        raise ValueError(
            f"expected input shape (N, {arch.input_length}), got {xt.shape}"
        )
    pt = param_tensors if param_tensors is not None else make_param_tensors(params, False)

    n = xt.shape[0]
    h = ad.reshape(xt, (n, 1, arch.input_length))
    for i, (c_out, k, stride) in enumerate(arch.conv_blocks):
        h = ad.conv1d(h, pt[f"conv{i}.w"], stride=stride, pad=k // 2)
        h = ad.add(h, ad.reshape(pt[f"conv{i}.b"], (1, c_out, 1)))
        h = ad.relu(h)
    pooled = ad.mean(h, axis=2)
    features = ad.relu(ad.add(ad.matmul(pooled, pt["feat.w"]), pt["feat.b"]))
    logits = ad.add(ad.matmul(features, pt["head.w"]), pt["head.b"])
    if not (np.isfinite(logits.data).all() and np.isfinite(features.data).all()):
        raise FloatingPointError("non-finite logits or features (the network overflowed)")
    return logits, features


def predict(params: ClassifierParams, x) -> np.ndarray:
    """Argmax labels; ties resolve to the lowest class index."""
    logits, _ = forward(params, x)
    return np.argmax(logits.data, axis=1)


def save_params(params: ClassifierParams, path, model_id: str) -> None:
    write_container(
        path,
        {"kind": "classifier-params", "model_id": model_id, "arch": params.arch.to_dict()},
        params.tensors,
    )


def load_params(path) -> ClassifierParams:
    header, arrays = read_container(path)
    if header.get("kind") != "classifier-params":
        raise ValueError(f"{path}: not a classifier parameter file")
    arch = ArchConfig.from_dict(header["arch"])
    expected = init_params(arch, seed=0).tensors
    if set(arrays) != set(expected):
        raise ValueError(f"{path}: parameter names do not match the architecture")
    for name, ref in expected.items():
        if arrays[name].shape != ref.shape:
            raise ValueError(
                f"{path}: tensor {name} has shape {arrays[name].shape}, "
                f"architecture expects {ref.shape}"
            )
    ordered = {name: arrays[name] for name in expected}
    return ClassifierParams(arch, ordered)
