"""Every field that `train`, `attack` or `evaluate` reads is held to what it
can recompute.

One tiny run (`cor` and `fcor`, attacked and evaluated) is built once.  Each
case changes one field of one artifact, once to a value of another type and
once to another value of the same type, reruns a command and restores the
file.  Every case reruns `evaluate`; a case on an arm container also reruns
`attack`, which reads arm 0 of the first kind, and `train --kind dec
--force`, which copies an arm from a sibling kind that passes its checks.
A case passes when the command exits 1 naming the mutated file (for a file
inside an attacked cell, that cell's directory is enough), or exits 0 with
its output dir byte-identical to the unmutated run's.
"""

import json
import shutil
import struct

import pytest

from conftest import run_cli
from test_cli import TINY

CELLS = ("pgd_eps01", "sap_eps01")
ROWS = ("masked", "unmasked")
INDEX_COLUMNS = ("record_id", "label", "masked", "linf_delta")
MANIFEST_KEYS = ("family", "epsilon", "alpha", "steps", "kernel_bank", "target_model_id",
                 "target_params_sha256")
PARAMS_KEYS = ("format_version", "kind", "model_id", "arch", "arrays")
CACHE_KEYS = ("format_version", "kind", "model_id", "sample_ids", "arm_key",
              "params_sha256", "train_digest", "arrays")
HOW = ("type", "value")
# each rerun's command line after the config, and the output dir it compares
RERUNS = {
    "evaluate": (["evaluate", "--ensemble-dir", "ens", "--attacks", "atk",
                  "--out", "r/report.csv"], "r"),
    "attack": (["attack", "--ensemble-dir", "ens", "--out", "a"], "a"),
    "train": (["train", "--kind", "dec", "--out", "ens", "--force"], "ens/dec"),
}

CASES = (
    [("index", cell, row, col, how)
     for cell in CELLS for row in ROWS for col in INDEX_COLUMNS for how in HOW]
    + [("manifest", cell, None, key, how) for cell in CELLS for key in MANIFEST_KEYS
       for how in HOW]
    + [("signal", cell, "masked", sub, how) for cell in CELLS
       for sub in ("natural", "perturbed") for how in HOW]
    + [("container", kind, f"arm{k}.{ext}", key, how) for kind in ("cor", "fcor")
       for k in (0, 1) for ext, keys in (("params", PARAMS_KEYS), ("cache", CACHE_KEYS))
       for key in keys for how in HOW]
)


def _changed(value, how):
    """A JSON value of another type, or another value of the same type."""
    if how == "type":
        return 0 if isinstance(value, str) else json.dumps(value)
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, dict):
        return dict(list(value.items())[:-1])
    return value[:-1] if value else [[5, 1.25]]


def _tree(d):
    return {p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}


def _rerun(root, cfg, command):
    """Exit code and output tree of one rerun.  The output is removed after,
    so every rerun sees the two-kind run."""
    argv, out = RERUNS[command]
    shutil.rmtree(root / out, ignore_errors=True)
    try:
        return run_cli(argv[0], "--config", cfg, *argv[1:]), _tree(root / out)
    finally:
        shutil.rmtree(root / out, ignore_errors=True)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({**TINY, "output": {"root": str(root)}}))
    cfg = str(cfg)
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    for kind in ("cor", "fcor"):
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    outputs = {}
    for command in RERUNS:
        code, outputs[command] = _rerun(root, cfg, command)
        assert code == 0 and outputs[command], command
    return root, cfg, outputs


def _index_mutation(cell, row, column, how):
    """(file, new bytes) for one column of the first masked or unmasked row."""
    index = cell / "index.csv"
    lines = index.read_bytes().decode().split("\r\n")
    ln = next(i for i, line in enumerate(lines[1:-1], 1)
              if line.split(",")[2] == ("1" if row == "masked" else "0"))
    fields = lines[ln].split(",")
    col = INDEX_COLUMNS.index(column)
    if how == "type":
        fields[col] = "x" if column != "record_id" else ""
    else:
        fields[col] = {"record_id": fields[0] + "x", "label": str(1 - int(fields[1])),
                       "masked": str(1 - int(fields[2])),
                       "linf_delta": repr(float(fields[3]) + 1.0)}[column]
    lines[ln] = ",".join(fields)
    return index, "\r\n".join(lines).encode()


def _signal_mutation(cell, sub, how):
    """(file, new bytes) for the first value of the first masked record."""
    rid = next(line.split(",")[0] for line in (cell / "index.csv").read_text().splitlines()[1:]
               if line.split(",")[2] == "1")
    path = cell / sub / f"{rid}.txt"
    lines = path.read_text().split("\n")
    lines[0] = "x" if how == "type" else repr(float(lines[0]) + 1.0)
    return path, "\n".join(lines).encode()


def _json_mutation(path, key, how):
    fields = json.loads(path.read_text())
    fields[key] = _changed(fields[key], how)
    return path, (json.dumps(fields, sort_keys=True, indent=2) + "\n").encode()


def _container_mutation(path, key, how):
    blob = path.read_bytes()
    (hlen,) = struct.unpack(">I", blob[4:8])
    meta = json.loads(blob[8:8 + hlen])
    meta[key] = _changed(meta[key], how)
    header = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return path, blob[:4] + struct.pack(">I", len(header)) + header + blob[8 + hlen:]


def test_masked_and_unmasked_rows_exist(run):
    root, _, _ = run
    for cell in CELLS:
        masked = [line.split(",")[2] for line in
                  (root / "atk" / cell / "index.csv").read_text().splitlines()[1:]]
        assert {"0", "1"} <= set(masked), cell


def _mutation(root, what, where, part, field, how):
    """(the file or cell an error must name, the file to change, its new bytes)"""
    if what == "container":
        named = root / "ens" / where / part
        return (named, *_container_mutation(named, field, how))
    named = root / "atk" / where
    if what == "index":
        return (named, *_index_mutation(named, part, field, how))
    if what == "manifest":
        return (named, *_json_mutation(named / "attack_manifest.json", field, how))
    return (named, *_signal_mutation(named, field, how))


def _refused_or_harmless(run, capsys, command, case):
    root, cfg, outputs = run
    named, path, mutated = _mutation(root, *case)
    original = path.read_bytes()
    assert mutated != original
    capsys.readouterr()
    try:
        path.write_bytes(mutated)
        code, tree = _rerun(root, cfg, command)
    finally:
        path.write_bytes(original)
    err = capsys.readouterr().err
    if code == 0:
        assert tree == outputs[command]
    else:
        assert code == 1 and str(named) in err, err


@pytest.mark.parametrize("what,where,part,field,how", CASES,
                         ids=["-".join(str(c) for c in case if c) for case in CASES])
def test_mutation_is_refused_or_harmless(run, capsys, what, where, part, field, how):
    _refused_or_harmless(run, capsys, "evaluate", (what, where, part, field, how))


ARM_CASES = [(command, *case) for command in ("attack", "train") for case in CASES
             if case[0] == "container"]


@pytest.mark.parametrize("command,what,where,part,field,how", ARM_CASES,
                         ids=["-".join(str(c) for c in case) for case in ARM_CASES])
def test_rerun_over_mutated_arm_is_refused_or_harmless(run, capsys, command, what, where,
                                                       part, field, how):
    _refused_or_harmless(run, capsys, command, (what, where, part, field, how))
