import builtins
import csv
import dataclasses
import io
import json
import os
import platform
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import densemble
from densemble import attacks, cli, config, ensemble, model
from densemble.attacks import load_attacked_set
from densemble.decorrelation import FeatureCache, load_cache, save_cache

from conftest import KINDS, read_report, run_cli

TINY = {
    "data": {
        "num_classes": 2,
        "records_per_class": 12,
        "length": 64,
        "seeds": {"synth": 11, "split": 12},
    },
    "arch": {"conv_blocks": [[4, 5, 2], [8, 3, 2]], "feature_dim": 8},
    "train": {"epochs": 2, "batch_size": 16, "seeds": {"init": 13, "shuffle": 14}},
    "decor": {"projection_dim": 5, "seed": 15},
    "attack": {"epsilons": [0.0, 0.1, 0.5, 1.0, 1.5], "steps": 2},
}


@pytest.fixture()
def workdir(tmp_path):
    cfg = dict(TINY)
    cfg["output"] = {"root": str(tmp_path)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, str(cfg_path)


def test_generate_default_config_counts(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"output": {"root": str(tmp_path)}}))
    assert run_cli("generate-data", "--config", str(cfg_path), "--out", "data") == 0
    data = tmp_path / "data"
    assert len(list((data / "signals").glob("*.txt"))) == 150
    assert (data / "manifest.csv").exists()
    assert (data / "split.json").exists()
    split = json.loads((data / "split.json").read_text())
    assert len(split["train_ids"]) == 135 and len(split["test_ids"]) == 15


def test_generate_rerun_byte_identical(workdir):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "a") == 0
    a = tmp_path / "a"
    before = {p.relative_to(a): p.read_bytes() for p in a.rglob("*") if p.is_file()}
    # true rerun into the same directory reproduces every byte
    assert run_cli("generate-data", "--config", cfg, "--out", "a") == 0
    after = {p.relative_to(a): p.read_bytes() for p in a.rglob("*") if p.is_file()}
    assert before == after
    # a second output dir gets identical data artifacts (manifest records
    # the differing --out argument, so it is excluded)
    assert run_cli("generate-data", "--config", cfg, "--out", "b") == 0
    b = tmp_path / "b"
    for rel in ["manifest.csv", "split.json"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    for sig in sorted((a / "signals").glob("*.txt")):
        assert sig.read_bytes() == (b / "signals" / sig.name).read_bytes()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": {"recrods_per_class": 10}}))
    assert run_cli("generate-data", "--config", str(cfg_path), "--out", "x") == 2
    assert "data.recrods_per_class" in capsys.readouterr().err


# One bad value per checked key: (dotted key named in the error, config).
BAD_VALUES = [
    ("data.source", {"data": {"source": "database"}}),
    ("data.source", {"data": {"source": 1}}),
    ("data.dir", {"data": {"dir": ""}}),
    ("data.manifest", {"data": {"source": "manifest"}}),
    ("data.manifest", {"data": {"manifest": 3}}),
    ("data.num_classes", {"data": {"num_classes": 5}}),
    ("data.num_classes", {"data": {"num_classes": 2.5}}),
    ("data.records_per_class", {"data": {"records_per_class": 1}}),
    ("data.length", {"data": {"length": 8}}),
    ("data.sample_rate_hz", {"data": {"sample_rate_hz": 0}}),
    ("data.sample_rate_hz", {"data": {"sample_rate_hz": True}}),
    ("data.train_fraction", {"data": {"train_fraction": 1.0}}),
    ("data.seeds.synth", {"data": {"seeds": {"synth": "1"}}}),
    ("data.seeds.split", {"data": {"seeds": {"split": 1.5}}}),
    ("arch.conv_blocks", {"arch": {"conv_blocks": []}}),
    ("arch.conv_blocks", {"arch": {"conv_blocks": [[8, 7]]}}),
    ("arch.conv_blocks", {"arch": {"conv_blocks": [[8, 0, 2]]}}),
    ("arch.feature_dim", {"arch": {"feature_dim": 0}}),
    ("train.epochs", {"train": {"epochs": 0}}),
    ("train.batch_size", {"train": {"batch_size": 1}}),
    ("train.learning_rate", {"train": {"learning_rate": 0}}),
    ("train.learning_rate", {"train": {"learning_rate": "fast"}}),
    ("train.adam.beta1", {"train": {"adam": {"beta1": 1.0}}}),
    ("train.adam.beta2", {"train": {"adam": {"beta2": -0.1}}}),
    ("train.adam.eps", {"train": {"adam": {"eps": 0}}}),
    ("train.seeds.init", {"train": {"seeds": {"init": True}}}),
    ("train.seeds.shuffle", {"train": {"seeds": {"shuffle": None}}}),
    ("decor.projection_dim", {"decor": {"projection_dim": 0}}),
    ("decor.projection_dim", {"decor": {"projection_dim": 65}}),
    ("decor.weight", {"decor": {"weight": -0.5}}),
    ("decor.stab_eps", {"decor": {"stab_eps": 0}}),
    ("decor.seed", {"decor": {"seed": "505"}}),
    ("bank.cutoff", {"bank": {"cutoff": 0.5}}),
    ("bank.transition_width", {"bank": {"transition_width": -0.1}}),
    ("bank.cutoff", {"bank": {"cutoff": 0.45, "transition_width": 0.2}}),
    ("attack.families", {"attack": {"families": ["fgsm"]}}),
    ("attack.families", {"attack": {"families": []}}),
    ("attack.epsilons", {"attack": {"epsilons": [0.1, -0.1]}}),
    ("attack.epsilons", {"attack": {"epsilons": ["0.1"]}}),
    # a repeated family or epsilon would craft and report its cells twice
    ("attack.families", {"attack": {"families": ["pgd", "pgd"]}}),
    ("attack.epsilons", {"attack": {"epsilons": [0.1, 0.1]}}),
    ("attack.steps", {"attack": {"steps": 0}}),
    ("attack.alpha_scale", {"attack": {"alpha_scale": 0}}),
    ("attack.alpha_scale", {"attack": {"alpha_scale": -0.1}}),
    ("attack.sap_kernels", {"attack": {"sap_kernels": [[4, 1.0]]}}),
    ("attack.sap_kernels", {"attack": {"sap_kernels": [[5, 0]]}}),
    ("attack.sap_kernels", {"attack": {"sap_kernels": [[5]]}}),
    ("output.root", {"output": {"root": ""}}),
    # json.load parses NaN and Infinity
    ("data.sample_rate_hz", {"data": {"sample_rate_hz": float("nan")}}),
    ("train.learning_rate", {"train": {"learning_rate": float("nan")}}),
    ("train.learning_rate", {"train": {"learning_rate": float("inf")}}),
    ("train.adam.eps", {"train": {"adam": {"eps": float("nan")}}}),
    ("decor.weight", {"decor": {"weight": float("nan")}}),
    ("decor.stab_eps", {"decor": {"stab_eps": float("nan")}}),
    ("attack.epsilons", {"attack": {"epsilons": [0.1, float("nan")]}}),
    # the kernels are checked even when sap is not run
    ("attack.sap_kernels", {"attack": {"families": ["pgd"], "sap_kernels": [[4, 1.0]]}}),
    # data.length has an upper bound, so a huge length fails here, not allocating
    ("data.length", {"data": {"length": 2**40}}),
    ("data.length", {"data": {"length": 10**400}}),
]


@pytest.mark.parametrize("key,bad", BAD_VALUES)
def test_invalid_value_exits_2_with_key_path(tmp_path, capsys, key, bad):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"output": {"root": str(tmp_path)}, **bad}))
    assert run_cli("generate-data", "--config", str(cfg_path), "--out", "x") == 2
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_owner_error_without_field_names_its_section(monkeypatch):
    def build(cfg):
        raise ValueError("kernel too wide: 99")
    monkeypatch.setattr(config, "_BUILDS", (("bank", build, {}),))
    with pytest.raises(config.ConfigError, match=r"^bank: kernel too wide: 99$"):
        config.resolve_config({})


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_cli("generate-data", "--config", str(tmp_path / "nope.json"),
                   "--out", "x") == 2
    # a config that exists but cannot be read is a config error too
    (tmp_path / "cfgdir").mkdir()
    assert run_cli("generate-data", "--config", str(tmp_path / "cfgdir"), "--out", "x") == 2
    assert f"config error: {tmp_path / 'cfgdir'}: cannot read config: " in capsys.readouterr().err


def test_module_run_executes_the_cli(tmp_path):
    # `python -m densemble.cli` runs the same main as the `densemble` script
    env = dict(os.environ, PYTHONPATH=str(Path(densemble.__file__).parents[1]))
    missing = tmp_path / "nonexistent.json"
    done = subprocess.run([sys.executable, "-m", "densemble.cli", "generate-data",
                           "--config", str(missing), "--out", "d"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert f"config error: config file not found: {missing}" in done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_importing_the_package_loads_no_module(tmp_path):
    # `import densemble` runs only the package docstring: import what you use
    env = dict(os.environ, PYTHONPATH=str(Path(densemble.__file__).parents[1]))
    code = ("import sys, densemble; "
            "print(sorted(m for m in sys.modules if m.startswith(('densemble.', 'numpy'))))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_each_command_records_its_args_and_resolved_config(workdir):
    tmp_path, cfg = workdir
    resolved = json.loads(json.dumps(config.resolve_config(json.loads(Path(cfg).read_text()))))
    runs = [
        (("generate-data", "--out", "data"), "data", {"out": "data"}),
        (("train", "--kind", "dec", "--out", "ens", "--force"), "ens/dec",
         {"kind": "dec", "out": "ens"}),
        (("attack", "--ensemble-dir", "ens", "--out", "atk"), "atk",
         {"ensemble_dir": "ens", "out": "atk"}),
        (("evaluate", "--ensemble-dir", "ens", "--attacks", "atk", "--out", "res/report.csv"),
         "res", {"ensemble_dir": "ens", "attacks": "atk", "out": "res/report.csv"}),
    ]
    for (command, *flags), out, args in runs:
        assert run_cli(command, "--config", cfg, *flags) == 0
        manifest = json.loads((tmp_path / out / "run_manifest.json").read_text())
        assert manifest == {"command": command, "args": args, "config": resolved}


def test_train_writes_artifacts_and_curves(workdir):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("train", "--config", cfg, "--kind", "fdec", "--out", "ens") == 0

    cor_dir, fdec_dir = tmp_path / "ens" / "cor", tmp_path / "ens" / "fdec"
    for d in (cor_dir, fdec_dir):
        for k in range(3):
            assert (d / f"arm{k}.params").exists()
            assert (d / f"arm{k}.cache").exists()
            assert (d / f"arm{k}_curve.csv").exists()

    with open(cor_dir / "arm1_curve.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["epoch", "ce"]
    with open(fdec_dir / "arm1_curve.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["epoch", "ce", "cor"]
    # base arm never decorrelates, so no cor column even for fdec
    with open(fdec_dir / "arm0_curve.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["epoch", "ce"]


def test_train_resume_guard(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 1
    assert "--force" in capsys.readouterr().err
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens",
                   "--force") == 0


def test_train_rerun_byte_identical(workdir):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "e1") == 0
    d1 = tmp_path / "e1" / "dec"
    before = {p.name: p.read_bytes() for p in d1.iterdir()}
    # retraining in place (--force) reproduces every byte, manifest included
    assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "e1",
                   "--force") == 0
    assert {p.name: p.read_bytes() for p in d1.iterdir()} == before
    # a second output dir gets identical model artifacts
    assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "e2") == 0
    d2 = tmp_path / "e2" / "dec"
    for path in sorted(d1.iterdir()):
        if path.name != "run_manifest.json":
            assert path.read_bytes() == (d2 / path.name).read_bytes(), path.name


def _count_arm_trainings(monkeypatch) -> list[int]:
    calls = []
    real = ensemble.train_arm
    monkeypatch.setattr(ensemble, "train_arm", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    return calls


def _tree(d):
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))
            if p.is_file()}


def test_kinds_under_one_out_share_arms_and_bytes(tmp_path, monkeypatch, capsys):
    # the roots differ only through DENSEMBLE_ROOT, so even the manifests can match
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY, data=dict(TINY["data"], dir=str(tmp_path / "data")))))
    cfg = str(cfg_path)
    assert run_cli("generate-data", "--config", cfg, "--out", str(tmp_path / "data")) == 0
    calls = _count_arm_trainings(monkeypatch)
    monkeypatch.setenv("DENSEMBLE_ROOT", str(tmp_path / "shared"))
    for kind in KINDS:
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    shared_calls, out = len(calls), capsys.readouterr().out
    alone = {}
    for kind in KINDS:
        monkeypatch.setenv("DENSEMBLE_ROOT", str(tmp_path / f"alone_{kind}"))
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
        alone.update(_tree(tmp_path / f"alone_{kind}" / "ens"))
    assert (shared_calls, len(calls) - shared_calls) == (9, 12)
    assert _tree(tmp_path / "shared" / "ens") == alone
    key = load_cache(tmp_path / "shared" / "ens" / "cor" / "arm0.cache").provenance["arm_key"]
    assert out.count(f"arm0: copied from ens/cor (key {key[:8]})") == 3
    assert "arm1: copied" not in out and "arm2: copied" not in out


def test_weight_zero_dec_trained_alone_equals_cor(workdir, monkeypatch):
    # each kind under its own output root, so no arm can be copied from the other
    tmp_path, cfg = workdir
    other = json.loads((tmp_path / "config.json").read_text())
    other["decor"] = dict(other["decor"], weight=0.0)
    for root in ("r_cor", "r_dec"):
        other["output"] = {"root": str(tmp_path / root)}
        (tmp_path / f"{root}.json").write_text(json.dumps(other))
        assert run_cli("generate-data", "--config", str(tmp_path / f"{root}.json"),
                       "--out", "data") == 0
    calls = _count_arm_trainings(monkeypatch)
    for kind in ("cor", "dec"):
        assert run_cli("train", "--config", str(tmp_path / f"r_{kind}.json"), "--kind", kind,
                       "--out", "ens") == 0
    assert calls == [0, 1, 2, 0, 1, 2]
    for k in range(3):
        for name in (f"arm{k}.params", f"arm{k}.cache", f"arm{k}_curve.csv"):
            assert (tmp_path / "r_cor" / "ens" / "cor" / name).read_bytes() == (
                tmp_path / "r_dec" / "ens" / "dec" / name).read_bytes(), name


def test_sibling_whose_params_differ_from_its_cache_is_retrained(workdir, monkeypatch, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    params = tmp_path / "ens" / "cor" / "arm0.params"
    blob = bytearray(params.read_bytes())
    blob[-1] ^= 1
    params.write_bytes(bytes(blob))
    calls = _count_arm_trainings(monkeypatch)
    assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "ens") == 0
    assert calls == [0, 1, 2]
    assert "copied" not in capsys.readouterr().out
    assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "clean") == 0
    for path in sorted((tmp_path / "clean" / "dec").iterdir()):
        if path.name != "run_manifest.json":
            assert path.read_bytes() == (tmp_path / "ens" / "dec" / path.name).read_bytes()


@pytest.mark.parametrize("model_id", ["arm0x", 0])
def test_cache_naming_another_arm_is_refused(workdir, monkeypatch, capsys, model_id):
    # a copied cache keeps its header, so its model_id must be its own arm's
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    cache = tmp_path / "ens" / "cor" / "arm0.cache"
    save_cache(dataclasses.replace(load_cache(cache), model_id=model_id), cache)
    message = f"{cache}: model_id is {model_id!r}, not 'arm0'; retrain"
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk2") == 1
    assert message in capsys.readouterr().err
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens", "--attacks", "atk",
                   "--out", "r/report.csv") == 1
    assert message in capsys.readouterr().err
    calls = _count_arm_trainings(monkeypatch)
    assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "ens") == 0
    assert calls == [0, 1, 2] and "copied" not in capsys.readouterr().out


def _edit_header(path, edit):
    # rewritten by hand, since write_container always writes a true `arrays` index
    blob = path.read_bytes()
    (hlen,) = struct.unpack(">I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    edit(header)
    hjson = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack(">I", len(hjson)) + hjson + blob[8 + hlen :])


def _drop_header_field(path, name):
    _edit_header(path, lambda header: header.pop(name))


def test_sibling_cache_missing_a_header_field_is_retrained(workdir, monkeypatch, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    cache = tmp_path / "ens" / "cor" / "arm0.cache"
    good = cache.read_bytes()
    calls = _count_arm_trainings(monkeypatch)
    for field in ("model_id", "arrays"):  # a cache's field, then the container's own index
        cache.write_bytes(good)
        _drop_header_field(cache, field)
        calls.clear()
        assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "ens", "--force") == 0
        assert calls == [0, 1, 2]
        assert "copied" not in capsys.readouterr().out


def test_sibling_curve_that_does_not_parse_is_retrained(workdir, monkeypatch, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    curve = tmp_path / "ens" / "cor" / "arm0_curve.csv"
    good = curve.read_bytes()
    calls = _count_arm_trainings(monkeypatch)
    capsys.readouterr()
    # the intact curve is a source; garbage, a curve cut after its first row and a
    # field over csv's 131,072-character limit are not
    for bad, trained in ((good, [1, 2]), (b"garbage\x00\n", [0, 1, 2]),
                         (b"".join(good.splitlines(keepends=True)[:2]), [0, 1, 2]),
                         (b"a" * 200_000, [0, 1, 2])):
        curve.write_bytes(bad)
        calls.clear()
        assert run_cli("train", "--config", cfg, "--kind", "dec", "--out", "ens", "--force") == 0
        assert calls == trained
        assert ("arm0: copied from" in capsys.readouterr().out) == (trained == [1, 2])
        assert (tmp_path / "ens" / "dec" / "arm0_curve.csv").read_bytes() == good


def _fail_cells(monkeypatch, fails, why):
    # craft_set raises `why` for every spec that `fails` accepts
    real = cli.craft_set

    def craft(x, y, ids, mask, spec, *rest):
        if fails(spec):
            raise RuntimeError(why)
        return real(x, y, ids, mask, spec, *rest)

    monkeypatch.setattr(cli, "craft_set", craft)


def test_attack_stops_at_first_failed_cell_before_manifest(workdir, monkeypatch, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    _fail_cells(monkeypatch, lambda spec: spec.family == "sap", "no SAP today")
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    err = capsys.readouterr().err
    assert "attack cell sap_eps00 failed: no SAP today" in err and err.count("failed") == 1
    assert not (tmp_path / "atk" / "run_manifest.json").exists()
    cells = sorted(p.name for p in (tmp_path / "atk").iterdir())
    assert cells == [f"pgd_eps{i:02d}" for i in range(len(TINY["attack"]["epsilons"]))]
    for name in cells:  # every cell crafted before the failure is whole
        assert load_attacked_set(tmp_path / "atk" / name).spec.family == "pgd"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpus(monkeypatch, n):
    # attack counts the CPUs it may use by the process's affinity mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pool_sizes(monkeypatch, module=cli) -> list[int]:
    # the worker count of every pool that `module` opens: cli's for attack,
    # ensemble's for train
    sizes, real = [], module.ThreadPoolExecutor
    monkeypatch.setattr(module, "ThreadPoolExecutor", lambda n: sizes.append(n) or real(n))
    return sizes


def test_attack_pool_leaves_blas_its_threads(workdir, monkeypatch):
    # workers = cpus // the first positive thread variable, else cpus // cpus,
    # for attack's pool and train's alike
    _, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    sizes, train_sizes = _pool_sizes(monkeypatch), _pool_sizes(monkeypatch, ensemble)
    cases = [({}, 2, 1), ({}, 1, 1),  # unset: numpy's BLAS starts one thread per CPU
             ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4), ({"OMP_NUM_THREADS": "2"}, 4, 2),
             ({"MKL_NUM_THREADS": "4"}, 2, 1),
             ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x", "MKL_NUM_THREADS": "1"}, 2, 2),
             ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2)]
    for i, (env, cpus, _) in enumerate(cases):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        _cpus(monkeypatch, cpus)
        assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", f"atk{i}") == 0
        assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", f"ens{i}") == 0
    assert sizes == train_sizes == [workers for _, _, workers in cases]


def test_attack_bytes_do_not_depend_on_cpus(workdir, monkeypatch):
    # cells crafted side by side on pool threads are the cells a serial loop
    # crafts; one --out for every run, since run_manifest.json records it
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # so the pool has cpus threads
    sizes = _pool_sizes(monkeypatch)
    trees, interval = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a shared write would show
    try:
        for n in (1, 2, 4):  # 4: four pool threads, more than a 2-core host has cores
            _cpus(monkeypatch, n)
            assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                           "--out", "atk") == 0
            (tmp_path / "atk").rename(tmp_path / f"atk{n}")
            trees[n] = _tree(tmp_path / f"atk{n}")
    finally:
        sys.setswitchinterval(interval)
    assert sum(p.endswith("/index.csv") for p in trees[1]) == 10
    assert trees[1] == trees[2] == trees[4] and sizes == [1, 2, 4]


def test_train_bytes_do_not_depend_on_cpus(workdir, monkeypatch):
    # arms trained side by side on pool threads are the arms a serial loop
    # trains: cor's three at once, fcor's two beside each other after the
    # copied arm 0, and dec's chain one after another
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # so the pool has cpus threads
    sizes = _pool_sizes(monkeypatch, ensemble)
    trees, interval = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a shared write would show
    try:
        for n in (1, 2, 4):  # 4: more pool threads than cor has arms
            _cpus(monkeypatch, n)
            for kind in ("cor", "fcor", "dec"):
                assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
            (tmp_path / "ens").rename(tmp_path / f"ens{n}")
            trees[n] = _tree(tmp_path / f"ens{n}")
    finally:
        sys.setswitchinterval(interval)
    assert sum(p.endswith(".params") for p in trees[1]) == 9
    assert trees[1] == trees[2] == trees[4] and sizes == [1] * 3 + [2] * 3 + [4] * 3


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_train_failure_keeps_arm_order_at_any_cpu_count(workdir, monkeypatch, capsys, cpus):
    # arm 1 fails while arm 2 may already be training on another thread:
    # arm 0 is whole, nothing after it is written and no manifest is left
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "full") == 0
    real = ensemble.train_arm

    def train_arm(k, *args):
        if k == 1:
            raise RuntimeError("killed")
        return real(k, *args)

    monkeypatch.setattr(ensemble, "train_arm", train_arm)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # so the pool has cpus threads
    _cpus(monkeypatch, cpus)
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "part") == 1
    err = capsys.readouterr().err
    assert "error: arm 1 of cor failed: killed" in err and err.count("failed") == 1
    part, full = tmp_path / "part" / "cor", tmp_path / "full" / "cor"
    assert sorted(p.name for p in part.iterdir()) == ["arm0.cache", "arm0.params", "arm0_curve.csv"]
    for p in part.iterdir():
        assert p.read_bytes() == (full / p.name).read_bytes(), p.name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_main_keeps_the_heap_a_step_frees():
    # four 5 MiB temporaries, freed and allocated again 20 times as a step
    # would, stay mapped once main has run (about 40,000 refaults without it)
    script = textwrap.dedent("""
        import contextlib, io, resource
        import numpy as np
        from densemble import cli
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["train"]) == 2  # exits at the parse
        def step():
            temporaries = [np.ones(5 << 17) for _ in range(4)]
            del temporaries
        step()  # the first allocation faults its pages in
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            step()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(densemble.__file__).parents[1]))
    faults = int(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert faults < 1000, f"{faults} minor faults over 20 steps of 20 MiB"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc arenas")
def test_main_lets_pool_threads_reuse_the_heap_the_command_freed():
    # a pool thread allocates from the heap the command's thread freed, not
    # from an arena of its own (about 20 MB more peak RSS and 2,000 faults)
    script = textwrap.dedent("""
        import contextlib, io, resource, threading
        import numpy as np
        from densemble import cli
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["train"]) == 2  # exits at the parse
        def step():
            temporaries = [np.ones(5 << 17) for _ in range(4)]
            del temporaries
        step()  # the command's thread faults the pages in, then frees them
        before = resource.getrusage(resource.RUSAGE_SELF)
        worker = threading.Thread(target=lambda: [step() for _ in range(20)])
        worker.start()
        worker.join()
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(after.ru_maxrss - before.ru_maxrss, after.ru_minflt - before.ru_minflt)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(densemble.__file__).parents[1]))
    rise_kb, faults = map(int, subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                              capture_output=True, text=True).stdout.split())
    assert rise_kb < 4096 and faults < 1000, (
        f"a pool thread's 20 steps of 20 MiB: peak RSS +{rise_kb} kB, {faults} minor faults")


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_attack_failure_keeps_grid_order_at_any_cpu_count(workdir, monkeypatch, capsys, cpus):
    # with one pool thread or several crafting ahead, the cells before
    # pgd_eps02 are whole, nothing after it is written and no manifest is left
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    eps = TINY["attack"]["epsilons"]
    _fail_cells(monkeypatch, lambda spec: (spec.family, spec.eps) == ("pgd", eps[2]),
                "no third epsilon today")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # so the pool has cpus threads
    _cpus(monkeypatch, cpus)
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    err = capsys.readouterr().err
    assert "attack cell pgd_eps02 failed: no third epsilon today" in err
    assert err.count("failed") == 1
    assert sorted(p.name for p in (tmp_path / "atk").iterdir()) == ["pgd_eps00", "pgd_eps01"]
    for i, name in enumerate(["pgd_eps00", "pgd_eps01"]):  # whole: every file loads
        assert load_attacked_set(tmp_path / "atk" / name).spec.eps == eps[i]


def test_attack_grid_and_zero_epsilon(workdir):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                   "--out", "atk") == 0

    cells = sorted(p.name for p in (tmp_path / "atk").iterdir() if p.is_dir())
    assert len(cells) == 10  # 2 families x 5 epsilons
    assert cells == sorted(
        f"{fam}_eps{i:02d}" for fam in ("pgd", "sap") for i in range(5)
    )

    # epsilon 0 cell: perturbed files byte-equal the naturals
    zero = tmp_path / "atk" / "pgd_eps00"
    for nat in sorted((zero / "natural").iterdir()):
        assert nat.read_bytes() == (zero / "perturbed" / nat.name).read_bytes()

    # linf_delta column matches the files and respects the budget
    for i, eps in enumerate(TINY["attack"]["epsilons"]):
        cell = tmp_path / "atk" / f"pgd_eps{i:02d}"
        with open(cell / "index.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            nat = np.loadtxt(cell / "natural" / f"{row['record_id']}.txt")
            pert = np.loadtxt(cell / "perturbed" / f"{row['record_id']}.txt")
            delta = float(np.max(np.abs(pert - nat)))
            assert delta <= eps + 1e-12
            assert abs(delta - float(row["linf_delta"])) < 1e-15


def test_attack_runs_one_natural_forward(workdir, monkeypatch):
    # the scoring mask is computed once per command, not once per cell; the
    # attack steps feed the model graph Tensors, the mask an ndarray
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    inputs, real = [], model.forward

    def counting_forward(params, x, *args, **kwargs):
        inputs.append(type(x))
        return real(params, x, *args, **kwargs)

    for module in (model, attacks):
        monkeypatch.setattr(module, "forward", counting_forward)
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    assert inputs.count(np.ndarray) == 1 and len(inputs) > 1


def _base_correct(tmp_path):
    """arm0's natural correctness on the test split, as `evaluate` scores it."""
    _, test, _ = cli._load_splits(config.load_config(str(tmp_path / "config.json")))
    path = tmp_path / "ens" / "cor" / "arm0.params"
    arm0 = model.load_params(path, path.read_bytes())
    return test, arm0, model.predict(arm0, test.signals) == test.labels


def test_attack_mask_is_base_correct(attacked):
    tmp_path, _ = attacked
    test, arm0, correct = _base_correct(tmp_path)
    cells = sorted((tmp_path / "atk").glob("*/index.csv"))
    assert len(cells) == 10 and 0 < correct.sum() < len(correct)
    for index in cells:
        with open(index, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["record_id"] for r in rows] == test.ids
        assert [r["masked"] for r in rows] == [str(int(c)) for c in correct], index
    # with zero budget every masked sample stays correctly classified
    aset = load_attacked_set(tmp_path / "atk" / "pgd_eps00")
    assert np.all((model.predict(arm0, aset.perturbed) == aset.labels)[aset.mask])


def test_attack_mask_fraction_equals_natural_accuracy(attacked):
    tmp_path, _ = attacked
    *_, correct = _base_correct(tmp_path)
    for cell in sorted((tmp_path / "atk").iterdir()):
        if cell.is_dir():
            assert load_attacked_set(cell).mask.mean() == np.mean(correct), cell.name


def test_attack_requires_trained_base(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                   "--out", "atk") == 1
    assert "no trained ensembles" in capsys.readouterr().err


@pytest.mark.parametrize("bad_id", ["r0_0000", "../../escaped"])
def test_bad_record_id_fails_every_command_naming_manifest_line(workdir, capsys, bad_id):
    # a record id names the record's file in every attacked set, so a repeated
    # or path-like one must stop each command before it trains or writes
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    manifest = tmp_path / "data" / "manifest.csv"
    good = manifest.read_text()
    lines = good.splitlines(keepends=True)
    lines[2] = bad_id + lines[2][lines[2].index(","):]  # line 3: the second record
    bad = "".join(lines)
    message = f"{manifest}:3: record_id {bad_id!r} must be a unique file name"
    manifest.write_text(bad)
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ens").exists()
    manifest.write_text(good)
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    manifest.write_text(bad)
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "atk").exists() and not (tmp_path / "escaped.txt").exists()
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("labels", [["0"], ["0", "1", "2"]], ids=["fewer", "more"])
def test_train_refuses_manifest_of_another_label_count(workdir, capsys, labels):
    # the head has data.num_classes outputs, so a manifest with another label
    # count is refused before any arm trains
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    manifest = tmp_path / "data" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    for i, line in enumerate(lines[1:]):
        rid, _, path = line.split(",")
        lines[i + 1] = f"{rid},{labels[i % len(labels)]},{path}"
    manifest.write_text("\n".join(lines) + "\n")
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 1
    assert (f"{manifest}: {len(labels)} labels, but data.num_classes is 2"
            in capsys.readouterr().err)
    assert not (tmp_path / "ens").exists()


def test_attack_and_evaluate_refuse_another_num_classes(attacked, capsys):
    # data of two classes read under data.num_classes 3 would mix two runs
    tmp_path, cfg = attacked
    other_cfg = _other_config(tmp_path, "data.num_classes", 3)
    message = f"{tmp_path / 'data' / 'manifest.csv'}: 2 labels, but data.num_classes is 3"
    assert run_cli("attack", "--config", other_cfg, "--ensemble-dir", "ens",
                   "--out", "atk2") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "atk2").exists()
    assert run_cli("evaluate", "--config", other_cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_evaluate_rows_and_determinism(workdir):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    for kind in ("cor", "fdec"):
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                   "--out", "atk") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r1/report.csv") == 0

    rows = read_report(tmp_path / "r1" / "report.csv")
    # natural row plus one per grid cell, for each trained kind
    assert len(rows) == 2 * (1 + 2 * 5)
    naturals = [r for r in rows if r["attack"] == "none"]
    assert {r["kind"] for r in naturals} == {"cor", "fdec"}
    assert all(r["epsilon"] == "0.0" for r in naturals)
    for r in rows:
        p1, p2, p3 = float(r["p1"]), float(r["p2"]), float(r["p3"])
        assert p1 >= p2 >= p3
        assert p3 <= float(r["average"]) <= p1

    corr = json.loads((tmp_path / "r1" / "correlation.json").read_text())
    assert set(corr) == {"cor", "fdec"}

    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r2/report.csv") == 0
    assert (tmp_path / "r1" / "report.csv").read_bytes() == (
        tmp_path / "r2" / "report.csv"
    ).read_bytes()
    assert (tmp_path / "r1" / "correlation.json").read_bytes() == (
        tmp_path / "r2" / "correlation.json"
    ).read_bytes()


def test_filtered_kinds_score_each_arm_on_its_band(tmp_path):
    # every fcor and fdec row, recomputed arm by arm from the files on disk.  At
    # TINY's size every filtered arm predicts one class on any input, so its
    # band would change nothing: the run has twice the records and 10 epochs.
    cfg = str(tmp_path / "config.json")
    Path(cfg).write_text(json.dumps(dict(TINY, data=dict(TINY["data"], records_per_class=24),
                                         train=dict(TINY["train"], epochs=10),
                                         output={"root": str(tmp_path)})))
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    for kind in KINDS:
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 0
    resolved = config.load_config(cfg)
    bank = config.bank_from_config(resolved)
    test, _, base_correct = _base_correct(tmp_path)
    inputs = {("none", "0.0"): (test.signals, np.ones(len(test), dtype=bool))}
    for name, spec in config.attack_cells(resolved):
        aset = load_attacked_set(tmp_path / "atk" / name)
        inputs[spec.family, repr(float(spec.eps))] = (aset.perturbed, base_correct)
    rows = [r for r in read_report(tmp_path / "r" / "report.csv")
            if r["kind"] in ("fcor", "fdec")]
    assert len(rows) == 2 * len(inputs)
    band_changes_a_prediction = False
    for row in rows:
        x, scored = inputs[row["attack"], row["epsilon"]]
        predictions = []
        for k, role in enumerate(ensemble.arm_roles(row["kind"])):
            path = tmp_path / "ens" / row["kind"] / f"arm{k}.params"
            params = model.load_params(path, path.read_bytes())
            predictions.append(model.predict(params, ensemble.arm_view(x, role, bank)))
            band_changes_a_prediction |= bool(np.any(predictions[-1] != model.predict(params, x)))
        m = ensemble.evaluate_arms(np.stack(predictions) == test.labels, scored)
        assert [row[c] for c in ("average", "p1", "p2", "p3", "n_masked")] == [
            repr(m[c]) for c in ("average", "p1", "p2", "p3")] + [str(m["n_masked"])], row
    assert band_changes_a_prediction  # else scoring the unfiltered input would pass too


def test_evaluate_missing_artifact_exits_1(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert "missing artifact" in capsys.readouterr().err


@pytest.mark.parametrize("feature_dim", [19, 24])
def test_evaluate_refuses_too_few_train_rows_before_predicting(workdir, monkeypatch, capsys,
                                                               feature_dim):
    # correlation.json regresses each arm's features over the 20 train rows,
    # so they must exceed feature_dim+1 (19 is the boundary): train and attack
    # refuse before they write anything, and evaluate before it predicts
    tmp_path, _ = workdir
    refusal = ("error: correlation.json regresses each arm's features over the 20 train rows, "
               f"which must exceed arch.feature_dim+1 = {feature_dim + 1}\n")
    fits = str(Path(_other_config(tmp_path, "arch.feature_dim", 18))  # 20 rows > 19
               .rename(tmp_path / "fits.json"))
    cfg = _other_config(tmp_path, "arch.feature_dim", feature_dim)
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    capsys.readouterr()
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 1
    assert capsys.readouterr().err == refusal
    assert not (tmp_path / "ens").exists()
    assert run_cli("train", "--config", fits, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    assert capsys.readouterr().err == refusal
    assert not (tmp_path / "atk").exists()
    assert run_cli("attack", "--config", fits, "--ensemble-dir", "ens", "--out", "atk") == 0
    capsys.readouterr()
    calls, real = [], cli.predict
    monkeypatch.setattr(cli, "predict", lambda *a: calls.append(1) or real(*a))
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert capsys.readouterr().err == refusal
    assert calls == []
    assert not (tmp_path / "r").exists()


@pytest.fixture()
def attacked(workdir):
    """A trained cor ensemble and its attack grid, ready for evaluate."""
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                   "--out", "atk") == 0
    return tmp_path, cfg


def _count_opens(monkeypatch) -> list[str]:
    """Every file opened from now on; Path.read_* and the builtin open both
    open through io.open."""
    opened, real_open = [], io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


def test_evaluate_reads_each_index_once(attacked, monkeypatch):
    # every check on a cell's index.csv sits in the one read that loads it
    tmp_path, cfg = attacked
    opened = _count_opens(monkeypatch)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 0
    indexes = sorted(str(p) for p in (tmp_path / "atk").glob("*/index.csv"))
    assert len(indexes) == 10
    assert {p: opened.count(p) for p in indexes} == dict.fromkeys(indexes, 1)


def test_attack_and_evaluate_read_each_arm_file_once(attacked, monkeypatch):
    # the bytes hashed against a cache are the bytes parsed, and the base
    # arms compared across kinds are read once with them
    tmp_path, cfg = attacked
    assert run_cli("train", "--config", cfg, "--kind", "fcor", "--out", "ens") == 0
    ens, opened = tmp_path / "ens", _count_opens(monkeypatch)
    for argv, expected in (
            (("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk"),
             [ens / k / "arm0.params" for k in ("cor", "fcor")] + [ens / "cor" / "arm0.cache"]),
            (("evaluate", "--config", cfg, "--ensemble-dir", "ens", "--attacks", "atk",
              "--out", "r/report.csv"), [*ens.glob("*/arm*.params"), *ens.glob("*/arm*.cache")])):
        opened.clear()
        assert run_cli(*argv) == 0
        arm_files = [p for p in opened if p.endswith((".params", ".cache"))]
        assert sorted(arm_files) == sorted(map(str, expected)), argv[0]


def test_params_swapped_after_the_hash_is_not_scored(attacked, monkeypatch, capsys):
    # arm1.params is replaced by arm2.params after its bytes are hashed and
    # before they are parsed, as a concurrent `train --force` could rename a
    # new file into place: evaluate scores the bytes it checked, or refuses
    # naming the file
    tmp_path, cfg = attacked
    argv = ("evaluate", "--config", cfg, "--ensemble-dir", "ens", "--attacks", "atk",
            "--out", "r/report.csv")
    assert run_cli(*argv) == 0
    report = (tmp_path / "r" / "report.csv").read_bytes()
    arm1, arm2 = (tmp_path / "ens" / "cor" / f"arm{k}.params" for k in (1, 2))
    real_load_params = cli.load_params

    def swapping_load_params(path, *blob):  # called once the bytes were hashed
        if path == arm1:
            arm1.write_bytes(arm2.read_bytes())
        return real_load_params(path, *blob)

    monkeypatch.setattr(cli, "load_params", swapping_load_params)
    code = run_cli(*argv)
    assert arm1.read_bytes() == arm2.read_bytes()  # the swap happened
    if code == 1:
        assert str(arm1) in capsys.readouterr().err
    else:
        assert code == 0 and (tmp_path / "r" / "report.csv").read_bytes() == report


def test_params_replaced_after_the_write_are_not_scored(workdir, monkeypatch, capsys):
    # arm1.params is replaced by arm 0's bytes right after train writes it, as
    # a concurrent writer could: the cache holds the hash of the bytes train
    # wrote, not of the file read back, so evaluate refuses to score arm 0 as arm 1
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    real = cli.save_params

    def save(params, path, model_id):
        blob = real(params, path, model_id=model_id)
        if model_id == "arm1":
            path.write_bytes((path.parent / "arm0.params").read_bytes())
        return blob

    with monkeypatch.context() as m:
        m.setattr(cli, "save_params", save)
        assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    d = tmp_path / "ens" / "cor"
    assert (f"{d / 'arm1.cache'}: params_sha256 differs from {d / 'arm1.params'}; retrain"
            in capsys.readouterr().err)


def test_evaluate_missing_cache_exits_1(attacked, capsys):
    tmp_path, cfg = attacked
    cache = tmp_path / "ens" / "cor" / "arm1.cache"
    cache.unlink()
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"missing artifact: {cache}" in capsys.readouterr().err


def test_evaluate_cache_of_other_sample_order_exits_1(attacked, capsys):
    tmp_path, cfg = attacked
    path = tmp_path / "ens" / "cor" / "arm2.cache"
    cache = load_cache(path)
    permuted = tuple(reversed(cache.sample_ids))
    save_cache(FeatureCache(cache.model_id, permuted, cache.features, cache.provenance), path)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    err = capsys.readouterr().err
    assert str(path) in err and "sample_ids" in err
    assert not (tmp_path / "r" / "correlation.json").exists()


def test_evaluate_cache_missing_a_header_field_names_file(attacked, capsys):
    tmp_path, cfg = attacked
    path = tmp_path / "ens" / "cor" / "arm1.cache"
    _drop_header_field(path, "model_id")
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{path}: bad feature cache: 'model_id'" in capsys.readouterr().err


def test_evaluate_refuses_cache_features_of_another_dtype(attacked, capsys):
    # the payload stays; its index entry says to read the bytes as other numbers
    tmp_path, cfg = attacked
    path = tmp_path / "ens" / "cor" / "arm1.cache"
    good = path.read_bytes()
    for dtype in ("<i8", "<u8", ">f8"):
        path.write_bytes(good)
        _edit_header(path, lambda header: header["arrays"][0].update(dtype=dtype))
        assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                       "--attacks", "atk", "--out", "r/report.csv") == 1, dtype
        assert f"{path}: bad feature cache: " in capsys.readouterr().err
        assert not (tmp_path / "r" / "correlation.json").exists()


def test_usage_error_exits_2(capsys):
    assert run_cli("train", "--config", "x.json") == 2  # missing required flags


def test_env_var_overrides_output_root(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": {"records_per_class": 2, "length": 64}}))
    monkeypatch.setenv("DENSEMBLE_ROOT", str(tmp_path / "rooted"))
    assert run_cli("generate-data", "--config", str(cfg_path), "--out", "data") == 0
    assert (tmp_path / "rooted" / "data" / "manifest.csv").exists()


def test_empty_env_var_root_exits_2_creating_nothing(tmp_path, monkeypatch, capsys):
    # an empty DENSEMBLE_ROOT would resolve every path against the working dir
    (tmp_path / "config.json").write_text(json.dumps({"output": {"root": "outroot"}}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DENSEMBLE_ROOT", "")
    assert run_cli("generate-data", "--config", "config.json", "--out", "data") == 2
    assert capsys.readouterr().err == (
        "config error: DENSEMBLE_ROOT: must be a non-empty path when set\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_evaluate_refuses_attacked_sets_of_another_grid(workdir, capsys):
    tmp_path, cfg = workdir
    other = json.loads((tmp_path / "config.json").read_text())
    other["attack"] = dict(other["attack"], epsilons=[0.1, 0.5])
    (tmp_path / "attack_config.json").write_text(json.dumps(other))
    other["attack"]["epsilons"] = [0.3, 1.5]
    (tmp_path / "evaluate_config.json").write_text(json.dumps(other))
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", str(tmp_path / "attack_config.json"),
                   "--ensemble-dir", "ens", "--out", "atk") == 0
    assert run_cli("evaluate", "--config", str(tmp_path / "evaluate_config.json"),
                   "--ensemble-dir", "ens", "--attacks", "atk", "--out", "r/report.csv") == 1
    assert str(tmp_path / "atk" / "pgd_eps00" / "attack_manifest.json") in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()


def test_evaluate_refuses_attacked_set_of_another_split(attacked, capsys):
    tmp_path, cfg = attacked
    index = tmp_path / "atk" / "sap_eps01" / "index.csv"
    header, *rows = index.read_text().splitlines()
    rid, label, rest = rows[0].split(",", 2)
    flipped = ",".join([rid, str(1 - int(label)), rest])  # TINY has two classes
    for changed in (list(reversed(rows)), [flipped, *rows[1:]]):  # the order, then one label
        index.write_text("\n".join([header, *changed]) + "\n")
        assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                       "--attacks", "atk", "--out", "r/report.csv") == 1
        assert str(index.parent / "attack_manifest.json") in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bad", ["path", "repeat"])
def test_evaluate_refuses_bad_record_id_in_attacked_set(attacked, capsys, bad):
    # an attacked set's ids follow the dataset's rule, checked before any of
    # the cell's signal files is opened
    tmp_path, cfg = attacked
    index = tmp_path / "atk" / "pgd_eps00" / "index.csv"
    lines = index.read_text().splitlines(keepends=True)
    bad_id = "../../outside" if bad == "path" else lines[1].split(",")[0]
    lines[2] = bad_id + lines[2][lines[2].index(","):]  # line 3: the second record
    index.write_text("".join(lines))
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{index}:3: record_id {bad_id!r} must be a unique file name" \
        in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_evaluate_index_row_of_wrong_width_names_line(attacked, capsys):
    tmp_path, cfg = attacked
    index = tmp_path / "atk" / "pgd_eps02" / "index.csv"
    lines = index.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3])
    index.write_text("\n".join(lines) + "\n")
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{index}:3: expected 4 columns, got 3" in capsys.readouterr().err


def test_evaluate_truncated_attack_manifest_names_file(attacked, capsys):
    tmp_path, cfg = attacked
    manifest = tmp_path / "atk" / "sap_eps03" / "attack_manifest.json"
    manifest.write_text(manifest.read_text()[:40])
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{manifest}: invalid JSON" in capsys.readouterr().err


def test_evaluate_attack_manifest_missing_key_names_file_and_key(attacked, capsys):
    tmp_path, cfg = attacked
    manifest = tmp_path / "atk" / "pgd_eps00" / "attack_manifest.json"
    fields = json.loads(manifest.read_text())
    del fields["steps"]
    manifest.write_text(json.dumps(fields))
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{manifest}: missing key 'steps'" in capsys.readouterr().err


@pytest.mark.parametrize("cell, key, value", [
    ("sap_eps00", "alpha", None),  # once filled with eps * 0.1
    ("pgd_eps00", "kernel_bank", [[5, 1.25]]),  # once dropped
    ("pgd_eps01", "target_model_id", "arm7"),
    ("pgd_eps03", "epsilon", True),  # once read as the cell's 1.0
    ("pgd_eps01", "steps", 2.0),  # once read as the grid's 2 steps
    ("sap_eps01", "kernel_bank",  # once read as the grid's integer widths
     [[5.0, 1.25], [9, 2.25], [13, 3.25], [17, 4.25], [21, 5.25]]),
], ids=["alpha", "kernel_bank", "target_model_id", "epsilon_bool", "steps_float",
        "kernel_width_float"])
def test_evaluate_reads_attack_manifest_as_written(attacked, capsys, cell, key, value):
    tmp_path, cfg = attacked
    manifest = tmp_path / "atk" / cell / "attack_manifest.json"
    fields = json.loads(manifest.read_text())
    fields[key] = value
    manifest.write_text(json.dumps(fields))
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    field = "eps" if key == "epsilon" else key  # the spec's name for the value
    assert f"{manifest}: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _put_non_utf8_byte(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:5] + b"\xff" + blob[5:])


@pytest.mark.parametrize("which", ["signal", "manifest"])
def test_undecodable_dataset_file_names_itself(workdir, capsys, which):
    # the bare codec error once named no file
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    data = tmp_path / "data"
    path = data / "manifest.csv" if which == "manifest" else sorted(data.glob("signals/*"))[3]
    _put_non_utf8_byte(path)
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
    assert not (tmp_path / "ens").exists()


@pytest.mark.parametrize("which", ["perturbed", "index"])
def test_undecodable_attacked_set_file_names_itself(attacked, capsys, which):
    tmp_path, cfg = attacked
    cell = tmp_path / "atk" / "sap_eps02"
    path = cell / "index.csv" if which == "index" else sorted(cell.glob("perturbed/*"))[3]
    _put_non_utf8_byte(path)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
    assert not (tmp_path / "r").exists()


def _edit_index_row(index, pick, column, value):
    """Set `column` of the first row that `pick` accepts; return its line."""
    lines = index.read_text().splitlines()
    header = lines[0].split(",")
    ln = next(ln for ln in range(2, len(lines) + 1)
              if pick(dict(zip(header, lines[ln - 1].split(",")))))
    row = lines[ln - 1].split(",")
    row[header.index(column)] = value
    lines[ln - 1] = ",".join(row)
    index.write_text("\n".join(lines) + "\n")
    return ln


@pytest.mark.parametrize("masked", ["2", "0"])
def test_evaluate_refuses_masked_column_arm0_does_not_give(attacked, capsys, masked):
    # "2" was once read as true; a flipped 1 changed the report
    tmp_path, cfg = attacked
    index = tmp_path / "atk" / "pgd_eps00" / "index.csv"
    ln = _edit_index_row(index, lambda row: row["masked"] == "1", "masked", masked)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{index}:{ln}: masked " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_evaluate_refuses_linf_delta_the_signals_do_not_give(attacked, capsys):
    tmp_path, cfg = attacked
    index = tmp_path / "atk" / "sap_eps02" / "index.csv"
    ln = _edit_index_row(index, lambda row: True, "linf_delta", "x")
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{index}:{ln}: linf_delta is 'x', but the signals and arm0 give " \
        in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_evaluate_refuses_perturbation_outside_the_ball(attacked, capsys):
    tmp_path, cfg = attacked
    cell = tmp_path / "atk" / "pgd_eps02"
    rids = [line.split(",")[0] for line in (cell / "index.csv").read_text().splitlines()[1:]]
    for rid in rids[1:3]:
        path = cell / "perturbed" / f"{rid}.txt"
        path.write_text("".join(f"{-20 * float(v)!r}\n" for v in path.read_text().split()))
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{cell / 'perturbed' / rids[1]}.txt: max|perturbed - natural| " \
        in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("content", ["null", "5", "true", "[]"])
def test_evaluate_attack_manifest_not_object_names_file(attacked, capsys, content):
    tmp_path, cfg = attacked
    manifest = tmp_path / "atk" / "pgd_eps01" / "attack_manifest.json"
    manifest.write_text(content)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{manifest}: not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("bank", [[], [5]])
def test_evaluate_refuses_sap_cell_with_bad_kernels(attacked, capsys, bank):
    # an empty bank was once scored with the default kernels
    tmp_path, cfg = attacked
    manifest = tmp_path / "atk" / "sap_eps02" / "attack_manifest.json"
    fields = json.loads(manifest.read_text())
    fields["kernel_bank"] = bank
    manifest.write_text(json.dumps(fields))
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{manifest}: " in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()


def _regenerate_data(tmp_path, root=None):
    # same record ids and split, other signals
    other = json.loads((tmp_path / "config.json").read_text())
    other["data"]["seeds"]["synth"] = 99
    if root is not None:
        other["output"] = {"root": str(root)}
    (tmp_path / "other_config.json").write_text(json.dumps(other))
    assert run_cli("generate-data", "--config", str(tmp_path / "other_config.json"),
                   "--out", "data") == 0
    return str(tmp_path / "other_config.json")


def test_evaluate_refuses_attacked_sets_of_regenerated_data(attacked, capsys):
    # natural/ no longer matches the test split
    tmp_path, cfg = attacked
    _regenerate_data(tmp_path)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert str(tmp_path / "atk" / "pgd_eps00" / "attack_manifest.json") in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()


def test_evaluate_refuses_cache_of_another_arm(workdir, capsys):
    # every kind's arm1 cache has model_id arm1; its params_sha256 tells them apart
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    for kind in ("cor", "fcor"):
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    cache = tmp_path / "ens" / "fcor" / "arm1.cache"
    cache.write_bytes((tmp_path / "ens" / "cor" / "arm1.cache").read_bytes())
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"{cache}: params_sha256 differs" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()


def test_attack_refuses_base_arm_of_regenerated_data(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    _regenerate_data(tmp_path)
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    cache = tmp_path / "ens" / "cor" / "arm0.cache"
    assert f"{cache}: train_digest differs" in capsys.readouterr().err
    assert not (tmp_path / "atk").exists()


def test_evaluate_refuses_caches_of_regenerated_data(attacked, capsys):
    # arm 1 trained on other signals, copied in with its cache: the pair is
    # consistent, but stale for the current data
    tmp_path, cfg = attacked
    other_cfg = _regenerate_data(tmp_path, tmp_path / "other")
    assert run_cli("train", "--config", other_cfg, "--kind", "cor", "--out", "ens") == 0
    for name in ("arm1.params", "arm1.cache"):
        (tmp_path / "ens" / "cor" / name).write_bytes(
            (tmp_path / "other" / "ens" / "cor" / name).read_bytes())
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    cache = tmp_path / "ens" / "cor" / "arm1.cache"
    assert f"{cache}: train_digest differs" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()


def test_attack_and_evaluate_refuse_base_arms_that_differ(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    for kind in ("cor", "fcor"):
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    params = tmp_path / "ens" / "fcor" / "arm0.params"
    blob = bytearray(params.read_bytes())
    blob[-1] ^= 1
    params.write_bytes(bytes(blob))
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    assert "base arm differs between ensembles cor and fcor" in capsys.readouterr().err
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert "base arm differs between ensembles cor and fcor" in capsys.readouterr().err
    # a damaged header byte: the message names both parameter files
    blob[-1] ^= 1
    blob[8] ^= 1
    params.write_bytes(bytes(blob))
    for argv in (("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk"),
                 ("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                  "--attacks", "atk", "--out", "r/report.csv")):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "base arm differs between ensembles cor and fcor" in err
        assert f"{tmp_path / 'ens' / 'cor' / 'arm0.params'} and {params} differ" in err
    assert not (tmp_path / "atk").exists() and not (tmp_path / "r").exists()


def test_evaluate_refuses_attacked_sets_of_a_retrained_base_arm(attacked, capsys):
    tmp_path, cfg = attacked
    other = json.loads((tmp_path / "config.json").read_text())
    other["train"]["seeds"]["init"] = 99
    (tmp_path / "other_config.json").write_text(json.dumps(other))
    assert run_cli("train", "--config", str(tmp_path / "other_config.json"), "--kind", "cor",
                   "--out", "ens", "--force") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    manifest = tmp_path / "atk" / "pgd_eps00" / "attack_manifest.json"
    assert f"{manifest}: made with another attack grid, test split or arm0.params" in (
        capsys.readouterr().err)
    assert not (tmp_path / "r" / "report.csv").exists()


def _other_config(tmp_path, key, value):
    # the test config with the value at one dotted key changed
    other = json.loads((tmp_path / "config.json").read_text())
    *sections, name = key.split(".")
    section = other
    for s in sections:
        section = section.setdefault(s, {})
    section[name] = value
    (tmp_path / "other_config.json").write_text(json.dumps(other))
    return str(tmp_path / "other_config.json")


@pytest.mark.parametrize("key,value,cache", [
    ("bank.cutoff", 0.3, "fcor/arm1.cache"),
    ("decor.weight", 0.5, "dec/arm1.cache"),
])
def test_evaluate_refuses_arms_of_another_config(workdir, capsys, key, value, cache):
    # an fcor arm scored on other bands, or a dec arm decorrelated at another
    # weight, would silently change the ensemble's counts
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    for kind in ("cor", "dec", "fcor"):
        assert run_cli("train", "--config", cfg, "--kind", kind, "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    other_cfg = _other_config(tmp_path, key, value)
    assert run_cli("evaluate", "--config", other_cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert (f"{tmp_path / 'ens' / cache}: arm_key differs from the current config; retrain"
            in capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_attack_refuses_base_arm_of_another_config(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    other_cfg = _other_config(tmp_path, "train.seeds.init", 99)
    assert run_cli("attack", "--config", other_cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    cache = tmp_path / "ens" / "cor" / "arm0.cache"
    assert f"{cache}: arm_key differs" in capsys.readouterr().err
    assert not (tmp_path / "atk").exists()


def test_failed_train_force_leaves_no_manifest_and_no_mix(workdir, monkeypatch, capsys):
    # retraining under another init seed fails writing arm 2, so the old arm 2
    # stays beside the new arms 0-1: the directory must not pass as one run
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    other_cfg = _other_config(tmp_path, "train.seeds.init", 99)
    real = cli.save_params

    def save(params, path, model_id):
        if model_id == "arm2":
            raise OSError("disk full")
        return real(params, path, model_id=model_id)

    with monkeypatch.context() as m:
        m.setattr(cli, "save_params", save)
        assert run_cli("train", "--config", other_cfg, "--kind", "cor", "--out", "ens",
                       "--force") == 1
    assert "disk full" in capsys.readouterr().err
    assert not (tmp_path / "ens" / "cor" / "run_manifest.json").exists()
    assert run_cli("attack", "--config", other_cfg, "--ensemble-dir", "ens", "--out", "atk") == 0
    assert run_cli("evaluate", "--config", other_cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    cache = tmp_path / "ens" / "cor" / "arm2.cache"
    assert f"{cache}: arm_key differs" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_failed_train_keeps_the_arms_it_finished(workdir, monkeypatch, capsys):
    # each arm is written as it finishes, so arm 2 failing leaves arms 0-1
    # whole, but no manifest, and evaluate refuses the incomplete kind
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "full") == 0
    real = ensemble.train_arm

    def train_arm(k, *args):
        if k == 2:
            raise RuntimeError("killed")
        return real(k, *args)

    with monkeypatch.context() as m:
        m.setattr(ensemble, "train_arm", train_arm)
        assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "part") == 1
    assert "error: arm 2 of cor failed: killed" in capsys.readouterr().err
    part, full = tmp_path / "part" / "cor", tmp_path / "full" / "cor"
    assert sorted(p.name for p in part.iterdir()) == [
        "arm0.cache", "arm0.params", "arm0_curve.csv", "arm1.cache", "arm1.params", "arm1_curve.csv"]
    for p in part.iterdir():
        assert p.read_bytes() == (full / p.name).read_bytes(), p.name
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "part", "--out", "atk") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "part",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert f"missing artifact: {part / 'arm2.params'}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_failed_rerun_removes_the_old_manifest(attacked, monkeypatch, capsys):
    # a manifest means the command last succeeded in its directory
    tmp_path, cfg = attacked
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 0
    for d in ("atk", "r"):
        assert (tmp_path / d / "run_manifest.json").exists()

    def fail(path, obj):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(cli, "write_json", fail)
        assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                       "--attacks", "atk", "--out", "r/report.csv") == 1
    assert not (tmp_path / "r" / "run_manifest.json").exists()
    _fail_cells(monkeypatch, lambda spec: spec.family == "sap", "no SAP today")
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens", "--out", "atk") == 1
    assert "attack cell sap_eps00 failed: no SAP today" in capsys.readouterr().err
    assert not (tmp_path / "atk" / "run_manifest.json").exists()
