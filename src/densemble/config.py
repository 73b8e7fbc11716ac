"""Declarative run configuration: one JSON file drives every command.

User files are merged over the defaults below; unknown keys are
rejected with their dotted path, every seed is explicit in the resolved
config, and each command writes the fully resolved config into its run
manifest so any artifact can be reproduced from the manifest alone.

Every value is checked once, when the config loads: its type against
its default, its range by the typed object the commands build from its
section, and a bad value raises :class:`ConfigError` naming its key.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import fields
from pathlib import Path

from .attacks import DEFAULT_SAP_KERNELS, AttackSpec
from .autodiff import next_pow2
from .decorrelation import DecorConfig
from .ensemble import AdamConfig, TrainConfig
from .fourier import RingFilterBank, design_bank
from .model import ArchConfig
from .signals import SynthConfig
from .storage import read_json

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "resolve_config",
    "resolve_root",
    "arch_from_config",
    "synth_from_config",
    "train_from_config",
    "decor_from_config",
    "bank_from_config",
    "attack_cells",
]

OUTPUT_ROOT_ENV = "DENSEMBLE_ROOT"


class ConfigError(ValueError):
    """Invalid or unknown configuration content; exit code 2 at the CLI."""


# The one source of every default.  The typed configs have none, except
# the mirrors the benchmark pins (ArchConfig, AdamConfig, AttackSpec.make),
# which tests/test_config.py keeps equal to these values.
DEFAULT_CONFIG: dict = {
    "data": {
        "source": "synthetic",
        "dir": "data",
        "manifest": None,
        "num_classes": 3,
        "records_per_class": 50,
        "length": 512,
        "sample_rate_hz": 128.0,
        "train_fraction": 0.9,
        "seeds": {"synth": 101, "split": 202},
    },
    "arch": {
        "conv_blocks": [[8, 7, 2], [16, 7, 2], [32, 5, 2]],
        "feature_dim": 64,
    },
    "train": {
        "epochs": 60,
        "batch_size": 80,
        "learning_rate": 1e-3,
        "adam": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
        "seeds": {"init": 303, "shuffle": 404},
    },
    "decor": {
        "projection_dim": 50,
        "weight": 0.2,
        "stab_eps": 1e-5,
        "seed": 505,
    },
    "bank": {"cutoff": 0.2, "transition_width": 0.05},
    "attack": {
        "families": ["pgd", "sap"],
        "epsilons": [0.1, 0.25, 0.5, 1.0, 1.5],
        "steps": 20,
        "alpha_scale": 0.1,
        "sap_kernels": [list(k) for k in DEFAULT_SAP_KERNELS],
    },
    "output": {"root": "."},
}


def _fits(default, value) -> bool:
    """Whether `value` has the JSON type of `default`: a finite number (not
    a bool) where the default is a float, a string or null where it is
    null, and a list of the same length whose items fit item by item."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_fits, default, value)))
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def _kind(default) -> str:
    if isinstance(default, list):
        return "[" + ", ".join(map(_kind, default)) + "]"
    kinds = {float: "finite number", int: "integer", str: "string"}
    return kinds.get(type(default), "string or null")


def _merge(defaults: dict, user: dict, path: str) -> dict:
    """User values over the defaults, each typed like its default; a list
    must be non-empty and each of its rows must fit the default's first row."""
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {dotted}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected a section (object)")
            out[key] = _merge(default, value, dotted)
            continue
        if isinstance(default, list):
            ok = isinstance(value, list) and value and all(_fits(default[0], v) for v in value)
            expected = f"a non-empty list of {_kind(default[0])} items"
        else:
            ok, expected = _fits(default, value), _kind(default)
        if not ok:
            raise ConfigError(f"{dotted}: expected {expected}, got {value!r}")
        out[key] = copy.deepcopy(value)
    return out


def resolve_config(user: dict) -> dict:
    """Merge `user` over the defaults and check every value, naming its
    dotted key: each section's typed object checks its own ranges."""
    cfg = _merge(DEFAULT_CONFIG, user, "")
    for section, build, renames in _BUILDS:
        try:
            build(cfg)
        except ValueError as exc:  # "field: why", see _BUILDS
            field, _, why = str(exc).partition(": ")
            key = renames.get(field, field)
            if key.split(".")[0] not in cfg[section]:  # no such key: name the section
                raise ConfigError(f"{section}: {exc}") from None
            named = key if key.endswith(field) else f"{key} ({field})"
            raise ConfigError(f"{section}.{named}: {why}") from None
    data = cfg["data"]
    for dotted, ok, what in (
        ("data.source", data["source"] in ("synthetic", "manifest"),
         "one of 'synthetic'|'manifest'"),
        ("data.manifest", data["source"] != "manifest" or data["manifest"] is not None,
         "set when data.source is 'manifest'"),
        ("data.dir", data["dir"] != "", "a non-empty path"),
        ("output.root", cfg["output"]["root"] != "", "a non-empty path"),
        ("data.train_fraction", 0 < data["train_fraction"] < 1, "in (0, 1)"),
        ("attack.alpha_scale", cfg["attack"]["alpha_scale"] > 0, "> 0"),
        ("decor.projection_dim", cfg["decor"]["projection_dim"] <= cfg["arch"]["feature_dim"],
         "<= arch.feature_dim"),
    ):
        if not ok:
            raise ConfigError(f"{dotted}: must be {what}")
    return cfg


def load_config(path: str | Path) -> dict:
    try:
        user = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return resolve_config(user)


def resolve_root(cfg: dict) -> Path:
    """Output root: environment override, then config, then cwd."""
    return Path(os.environ.get(OUTPUT_ROOT_ENV, cfg["output"]["root"]))


def resolve_path(cfg: dict, p: str | Path) -> Path:
    p = Path(p)
    return p if p.is_absolute() else resolve_root(cfg) / p


def arch_from_config(cfg: dict) -> ArchConfig:
    return ArchConfig(
        conv_blocks=tuple(tuple(b) for b in cfg["arch"]["conv_blocks"]),
        feature_dim=cfg["arch"]["feature_dim"],
        num_classes=cfg["data"]["num_classes"],
        input_length=cfg["data"]["length"],
    )


def synth_from_config(cfg: dict) -> SynthConfig:
    return SynthConfig(**{f.name: cfg["data"][f.name] for f in fields(SynthConfig)})


def train_from_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        epochs=t["epochs"],
        batch_size=t["batch_size"],
        learning_rate=t["learning_rate"],
        adam=AdamConfig(**t["adam"]),
        init_seed=t["seeds"]["init"],
        shuffle_seed=t["seeds"]["shuffle"],
    )


def decor_from_config(cfg: dict) -> DecorConfig:
    return DecorConfig(**cfg["decor"])


def bank_from_config(cfg: dict) -> RingFilterBank:
    return design_bank(
        next_pow2(cfg["data"]["length"]),
        cfg["bank"]["cutoff"],
        cfg["bank"]["transition_width"],
    )


def attack_cells(cfg: dict) -> list[tuple[str, AttackSpec]]:
    """(cell dir name, spec) for every cell of the attack grid."""
    a = cfg["attack"]
    return [
        (f"{fam}_eps{i:02d}",
         AttackSpec.make(fam, eps, steps=a["steps"], alpha=eps * a["alpha_scale"],
                         kernel_bank=a["sap_kernels"]))
        for fam in a["families"] for i, eps in enumerate(a["epsilons"])
    ]


# The typed objects of each section, in the order resolve_config builds
# them, with the fields whose name differs from their key in the section.
# Each owner's ValueError starts with the field it rejects ("field: why").
# The extra sap spec checks attack.sap_kernels whatever attack.families is.
_BUILDS = (
    ("data", synth_from_config, {}),
    ("arch", arch_from_config, {}),
    ("train", train_from_config, {f: f"adam.{f}" for f in ("beta1", "beta2", "eps")}),
    ("decor", decor_from_config, {}),
    ("bank", bank_from_config, {}),
    ("attack",
     lambda cfg: (attack_cells(cfg),
                  AttackSpec.make("sap", 0.0, kernel_bank=cfg["attack"]["sap_kernels"])),
     {"family": "families", "eps": "epsilons", "alpha": "alpha_scale",
      "kernel_bank": "sap_kernels"}),
)
