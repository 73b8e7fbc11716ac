"""Exact work counters over the tiny CLI run.

Calls and rows are counted, not timed, so no machine noise blurs them.
Each counter is pinned at its value: a rise is a regression, and a change
that lowers one lowers its pin in the same change.
"""

import json
import sys
import threading
from collections import Counter

import numpy as np

from densemble import ensemble, model, signals

from conftest import run_cli
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
    "evaluate model.forward": 34,
    "evaluate model.forward.rows": 136,
}


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
    wrong = [f"{key}: {seen.get(key, 0)}, ceiling {pin}"
             for key, pin in PINNED.items() if seen.get(key, 0) != pin]
    assert not wrong, f"work counters moved (numpy {np.__version__}): " + "; ".join(wrong)
