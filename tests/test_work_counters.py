"""Exact work counters over tiny CLI runs and one training step.

Calls and rows are counted, not timed, so no machine noise blurs them.
Each counter is pinned at its value: a rise is a regression, and a change
that lowers one lowers its pin in the same change.
"""

import json
import sys
import threading
from collections import Counter

import numpy as np

from densemble import autodiff as ad
from densemble import ensemble, model, signals

from conftest import KINDS, run_cli
from test_cli import TINY

COUNTED = ((signals, "load_dataset"), (signals, "read_signal"), (model, "forward"),
           (ensemble, "train_arm"), (ensemble, "adam_step"))

# "<command> <counter>": value.  `model.forward.rows` sums the rows of
# every input, ndarray or graph Tensor.
PINNED = {
    "generate-data signals.load_dataset": 0,
    "generate-data signals.read_signal": 0,
    "train signals.load_dataset": 1,
    "train signals.read_signal": 24,
    "train ensemble.train_arm": 3,
    "train ensemble.adam_step": 12,
    "attack signals.load_dataset": 1,
    "attack signals.read_signal": 24,
    "attack model.forward": 21,
    "attack model.forward.rows": 84,
    "evaluate signals.load_dataset": 1,
    "evaluate signals.read_signal": 104,
    "evaluate model.forward": 33,
    "evaluate model.forward.rows": 132,
}

# `train --kind K` for the four kinds in turn into one --out: 9 of 12 arms
# train, since each kind after cor copies cor's arm 0.
PINNED_FOUR_KINDS = {
    "train cor ensemble.train_arm": 3,
    "train dec ensemble.train_arm": 2,
    "train fcor ensemble.train_arm": 2,
    "train fdec ensemble.train_arm": 2,
}

# `attack` and `evaluate` over that four-kind --out.  evaluate predicts each
# distinct arm (params bytes and band) once on each of the 11 inputs, the
# natural split and 10 cells: dec, fcor and fdec copy cor's arm 0, so 9 of the
# 12 arms are distinct and 9 * 11 = 99 forwards run.  The scoring mask is arm
# 0's natural row of that table, so no forward of its own.
PINNED_FOUR_KINDS_SCORING = {
    "attack signals.load_dataset": 1,
    "attack signals.read_signal": 24,
    "attack model.forward": 21,
    "attack model.forward.rows": 84,
    "evaluate signals.load_dataset": 1,
    "evaluate signals.read_signal": 104,
    "evaluate model.forward": 99,
    "evaluate model.forward.rows": 396,
}

# `Tensor` constructions in one batch-80 cross-entropy step (forward, loss,
# backward) of the default arch: its leaves and one node per op
PINNED_STEP_TENSORS = 25


def _check(seen: dict, pinned: dict) -> None:
    wrong = [f"{key}: {seen.get(key, 0)}, pinned at {pin}"
             for key, pin in pinned.items() if seen.get(key, 0) != pin]
    assert not wrong, f"work counters moved (numpy {np.__version__}): " + "; ".join(wrong)


def _counting(real, name, counts, lock):
    def counted(*args, **kwargs):
        with lock:  # `attack` crafts its cells on pool threads
            counts[name] += 1
            if name == "model.forward":
                counts["model.forward.rows"] += args[1].shape[0]
        return real(*args, **kwargs)
    return counted


def _count_everywhere(monkeypatch) -> Counter:
    """Wrap each counted function in every densemble module that binds it."""
    counts, lock = Counter(), threading.Lock()
    for home, attr in COUNTED:
        real = getattr(home, attr)
        name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
        for module in [m for n, m in sys.modules.items() if n.startswith("densemble")]:
            if getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, _counting(real, name, counts, lock))
    return counts


def test_tiny_run_work_is_pinned(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, output={"root": str(tmp_path)})))
    counts = _count_everywhere(monkeypatch)
    seen = {}
    for argv in (("generate-data", "--out", "data"),
                 ("train", "--kind", "dec", "--out", "ens"),
                 ("attack", "--ensemble-dir", "ens", "--out", "atk"),
                 ("evaluate", "--ensemble-dir", "ens", "--attacks", "atk",
                  "--out", "r/report.csv")):
        counts.clear()
        assert run_cli(argv[0], "--config", str(cfg), *argv[1:]) == 0
        seen.update({f"{argv[0]} {name}": value for name, value in counts.items()})
    _check(seen, PINNED)


def test_four_kind_run_trains_each_distinct_arm_once(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, output={"root": str(tmp_path)})))
    assert run_cli("generate-data", "--config", str(cfg), "--out", "data") == 0
    counts = _count_everywhere(monkeypatch)
    seen = {}
    for kind in KINDS:
        counts.clear()
        assert run_cli("train", "--config", str(cfg), "--kind", kind, "--out", "ens") == 0
        seen[f"train {kind} ensemble.train_arm"] = counts["ensemble.train_arm"]
    _check(seen, PINNED_FOUR_KINDS)


def test_four_kind_run_attack_and_evaluate_work_is_pinned(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, output={"root": str(tmp_path)})))
    assert run_cli("generate-data", "--config", str(cfg), "--out", "data") == 0
    for kind in KINDS:
        assert run_cli("train", "--config", str(cfg), "--kind", kind, "--out", "ens") == 0
    counts = _count_everywhere(monkeypatch)
    seen = {}
    for argv in (("attack", "--ensemble-dir", "ens", "--out", "atk"),
                 ("evaluate", "--ensemble-dir", "ens", "--attacks", "atk",
                  "--out", "r/report.csv")):
        counts.clear()
        assert run_cli(argv[0], "--config", str(cfg), *argv[1:]) == 0
        seen.update({f"{argv[0]} {name}": value for name, value in counts.items()})
    _check(seen, PINNED_FOUR_KINDS_SCORING)


def test_graph_nodes_of_a_training_step_are_pinned(monkeypatch):
    params = model.init_params(model.ArchConfig(), np.random.SeedSequence(0))
    x = np.random.default_rng(1).standard_normal((80, params.arch.input_length))
    y = np.arange(80) % 3
    nodes, real = [], ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        nodes.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    logits, _ = model.forward(params, x, param_tensors=model.make_param_tensors(params))
    ad.softmax_cross_entropy(logits, y).backward()
    _check({"step autodiff.Tensor": len(nodes)}, {"step autodiff.Tensor": PINNED_STEP_TENSORS})
