import csv
import json

import numpy as np
import pytest

from densemble import config
from densemble.decorrelation import FeatureCache, load_cache, save_cache

from conftest import read_report, run_cli

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


def test_missing_config_exits_2(tmp_path):
    assert run_cli("generate-data", "--config", str(tmp_path / "nope.json"),
                   "--out", "x") == 2


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


def test_attack_requires_trained_base(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                   "--out", "atk") == 1
    assert "no trained ensembles" in capsys.readouterr().err


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


def test_evaluate_missing_artifact_exits_1(workdir, capsys):
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert "missing artifact" in capsys.readouterr().err


@pytest.fixture()
def attacked(workdir):
    """A trained cor ensemble and its attack grid, ready for evaluate."""
    tmp_path, cfg = workdir
    assert run_cli("generate-data", "--config", cfg, "--out", "data") == 0
    assert run_cli("train", "--config", cfg, "--kind", "cor", "--out", "ens") == 0
    assert run_cli("attack", "--config", cfg, "--ensemble-dir", "ens",
                   "--out", "atk") == 0
    return tmp_path, cfg


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
    save_cache(FeatureCache(cache.model_id, permuted, cache.features), path)
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    err = capsys.readouterr().err
    assert str(path) in err and "sample_ids" in err
    assert not (tmp_path / "r" / "correlation.json").exists()


def test_usage_error_exits_2(capsys):
    assert run_cli("train", "--config", "x.json") == 2  # missing required flags


def test_env_var_overrides_output_root(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": {"records_per_class": 2, "length": 64}}))
    monkeypatch.setenv("DENSEMBLE_ROOT", str(tmp_path / "rooted"))
    assert run_cli("generate-data", "--config", str(cfg_path), "--out", "data") == 0
    assert (tmp_path / "rooted" / "data" / "manifest.csv").exists()


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
    index.write_text("\n".join([header, *reversed(rows)]) + "\n")
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert str(index.parent / "attack_manifest.json") in capsys.readouterr().err


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


def test_evaluate_refuses_attacked_sets_of_regenerated_data(attacked, capsys):
    # same record ids and split, other signals: natural/ no longer matches
    tmp_path, cfg = attacked
    other = json.loads((tmp_path / "config.json").read_text())
    other["data"]["seeds"]["synth"] = 99
    (tmp_path / "other_config.json").write_text(json.dumps(other))
    assert run_cli("generate-data", "--config", str(tmp_path / "other_config.json"),
                   "--out", "data") == 0
    assert run_cli("evaluate", "--config", cfg, "--ensemble-dir", "ens",
                   "--attacks", "atk", "--out", "r/report.csv") == 1
    assert str(tmp_path / "atk" / "pgd_eps00" / "attack_manifest.json") in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.csv").exists()
