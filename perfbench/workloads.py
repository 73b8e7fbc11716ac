"""The benchmark's workloads: configs, CLI command lists and expectations.

Every workload drives the four public CLI commands in-process, one at a
time (a closed loop with a single client).  Inputs come only from the
workload seed; the amount of work comes only from the run length, so the
same ``(seed, seconds)`` always does the same work and writes the same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

DEFAULT_SEED = 0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads unless the caller sets THREAD_VARS.  One thread runs a training
# step as fast as two on a 2-core box, but two threads wait on each other
# whenever another process takes the second core, and the run-to-run spread
# grows threefold; one thread also leaves that core to the program itself.
BLAS_THREADS = "1"
CONFIG = "config.json"
OUTPUT_ROOT = "art"  # relative to the run dir, so manifests repeat byte for byte
KINDS = ("cor", "dec", "fcor", "fdec")

GENERATE = ("generate-data", "--config", CONFIG, "--out", "data")
ATTACK = ("attack", "--config", CONFIG, "--ensemble-dir", "ens", "--out", "atk")
EVALUATE = ("evaluate", "--config", CONFIG, "--ensemble-dir", "ens", "--attacks", "atk",
            "--out", "report/report.csv")


def train(kind: str) -> tuple[str, ...]:
    return ("train", "--config", CONFIG, "--kind", kind, "--out", "ens")


def seeded(seed: int) -> dict:
    """Config seeds for a workload seed; seed 0 gives the README defaults."""
    off = 1000 * seed
    return {
        "data": {"seeds": {"synth": 101 + off, "split": 202 + off}},
        "train": {"seeds": {"init": 303 + off, "shuffle": 404 + off}},
        "decor": {"seed": 505 + off},
    }


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out[key], value) if isinstance(value, dict) and key in out else value
    return out


# Spans every workload must record in its traced run.  Several of them are
# reached only through a by-name import (cli -> train_ensemble, craft_set,
# ...; ensemble/attacks/decorrelation -> forward), so a zero count means a
# binding site went unpatched.
COMMON_SPANS = (
    "cli.train", "cli.attack", "cli.evaluate", "config.load_config",
    "signals.load_dataset", "signals.synthesize", "signals.save_dataset",
    "ensemble.train_ensemble", "ensemble.train_arm", "ensemble.adam_step",
    "model.forward", "model.save_params", "model.load_params", "autodiff.backward",
    "autodiff.conv1d.conv0", "autodiff.conv1d.conv1", "autodiff.conv1d.conv2",
    "autodiff.conv1d.smooth", "autodiff.least_squares_residual",
    "decorrelation.ensemble_decor_loss", "decorrelation.build_cache",
    "decorrelation.save_cache", "storage.write_container", "storage.read_container",
    "attacks.craft_set", "attacks.pgd", "attacks.sap", "attacks.save_attacked_set",
    "attacks.load_attacked_set", "ensemble.evaluate_arms", "ensemble.correlation_report",
)


BASE_CONFIG = {"data": {"records_per_class": 150}, "output": {"root": OUTPUT_ROOT}}


@dataclass(frozen=True)
class Workload:
    name: str
    # Config overrides from the run length alone, never from a measured
    # speed; the constants size a run to about `seconds` on a 2-core x86 box.
    shape: Callable[[int], dict]
    setup: tuple[tuple[str, ...], ...]  # CLI commands of the set-up
    timed: tuple[tuple[str, ...], ...]  # CLI commands whose wall time is measured
    kinds: tuple[str, ...]  # ensemble kinds the run trains
    # Times a stage runs in a row, each over a fresh output dir; the stage's
    # time is their median.  Short stages repeat so that one slow moment of a
    # shared machine does not make the run's figure.
    reps: Mapping[str, int] = field(default_factory=dict)
    extra_spans: tuple[str, ...] = ()

    def config(self, seed: int, seconds: int) -> dict:
        return _merge(_merge(BASE_CONFIG, self.shape(seconds)), seeded(seed))

    def expected_spans(self) -> tuple[str, ...]:
        return COMMON_SPANS + self.extra_spans


WORKLOADS = {
    w.name: w
    for w in (
        # The README job end to end: the only workload where the four kinds
        # share arm 0 and where independent arms could run side by side.
        # 12 arms x 6 steps per epoch (~2.5 s), plus ~23 s of generate,
        # three attacks and evaluate.
        Workload(
            "pipeline",
            shape=lambda s: {"train": {"epochs": max(1, round((s - 23) / 2.5))}},
            setup=(),
            timed=(GENERATE,) + tuple(train(k) for k in KINDS) + (ATTACK, EVALUATE),
            kinds=KINDS,
            reps={"attack": 3},
            extra_spans=("cli.generate-data", "fourier.apply_band"),
        ),
        # One strict arm0 -> dec1 -> dec2 chain with no sibling kind, so arm
        # sharing and arm parallelism must show no change here, while the
        # step engine and the decorrelation regression do the work; then the
        # attacks (large-batch forward/backward, SAP's smoothing convs, the
        # (N,C,L,k) conv backward), attacked-set text I/O and evaluation at
        # twice the reference test split at 40 s (the split grows with the
        # run length).  3 arms x 5 steps per epoch (~0.6 s), plus ~27 s of
        # two attacks and evaluate.
        Workload(
            "dec-attack",
            shape=lambda s: {"data": {"train_fraction": round(1 - min(0.8, 0.2 * s / 40), 2)},
                             "train": {"epochs": max(1, round((s - 27) / 0.6))}},
            setup=(GENERATE,),
            timed=(train("dec"), ATTACK, EVALUATE),
            kinds=("dec",),
            reps={"attack": 2},
        ),
    )
}
