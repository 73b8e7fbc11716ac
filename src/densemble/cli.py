"""Command-line front door: generate data, train, attack, evaluate.

All commands are driven by one JSON config plus a couple of path flags,
write a run manifest with the fully resolved config, and are idempotent:
re-running a command with identical inputs reproduces its artifacts byte
for byte.  Exit codes: 0 success, 1 runtime failure, 2 config/usage
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .attacks import craft_set, load_attacked_set, save_attacked_set
from .config import (
    ConfigError,
    arch_from_config,
    attack_cells,
    bank_from_config,
    decor_from_config,
    load_config,
    resolve_path,
    synth_from_config,
    train_from_config,
)
from .decorrelation import load_cache, save_cache
from .ensemble import (
    ARMS_PER_ENSEMBLE,
    KINDS,
    arm_roles,
    correlation_report,
    evaluate_arms,
    train_ensemble,
)
from .model import load_params, save_params
from .signals import load_dataset, preprocess, save_dataset, split, synthesize
from .storage import write_csv, write_json

__all__ = ["main", "entry"]


def _write_manifest(out_dir: Path, command: str, cfg: dict, args: dict) -> None:
    write_json(out_dir / "run_manifest.json", {"command": command, "args": args, "config": cfg})


def _load_splits(cfg: dict):
    """Dataset -> (train, test), both preprocessed with train-split stats."""
    data = cfg["data"]
    if data["source"] == "manifest":
        manifest = resolve_path(cfg, data["manifest"])
    else:
        manifest = resolve_path(cfg, data["dir"]) / "manifest.csv"
    ds = load_dataset(manifest)
    train_raw, test_raw = split(ds, data["train_fraction"], data["seeds"]["split"])
    train = preprocess(train_raw, data["length"])
    test = preprocess(test_raw, data["length"], stats=train.normalization)
    return train, test


def cmd_generate_data(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    data = cfg["data"]
    if data["source"] != "synthetic":
        raise ConfigError("generate-data requires data.source == 'synthetic'")
    out_dir = resolve_path(cfg, args.out)
    ds = synthesize(synth_from_config(cfg), data["seeds"]["synth"])
    save_dataset(ds, out_dir)
    train_raw, test_raw = split(ds, data["train_fraction"], data["seeds"]["split"])
    write_json(out_dir / "split.json", {
        "train_fraction": data["train_fraction"], "seed": data["seeds"]["split"],
        "train_ids": train_raw.ids(), "test_ids": test_raw.ids(),
    })
    _write_manifest(out_dir, "generate-data", cfg, {"out": args.out})
    print(f"generated {len(ds)} records in {out_dir}")
    return 0


def _write_curve(path: Path, curve: list[dict]) -> None:
    has_cor = any("cor" in row for row in curve)
    columns = ["epoch", "ce"] + (["cor"] if has_cor else [])
    write_csv(path, columns,
              [[row["epoch"]] + [repr(row[c]) for c in columns[1:]] for row in curve])


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kind = args.kind
    out_dir = resolve_path(cfg, args.out) / kind
    existing = sorted(p.name for p in out_dir.glob("arm*.params"))
    if existing and not args.force:
        print(
            f"refusing to overwrite {out_dir} ({', '.join(existing)}); use --force",
            file=sys.stderr,
        )
        return 1

    train, _ = _load_splits(cfg)
    bank = bank_from_config(cfg)
    results = train_ensemble(
        kind,
        train.signals_matrix(),
        train.labels_array(),
        train.ids(),
        arch_from_config(cfg),
        train_from_config(cfg),
        decor_from_config(cfg),
        bank,
    )
    for k, res in enumerate(results):
        save_params(res.params, out_dir / f"arm{k}.params", model_id=f"arm{k}")
        save_cache(res.cache, out_dir / f"arm{k}.cache")
        _write_curve(out_dir / f"arm{k}_curve.csv", res.curve)
    _write_manifest(out_dir, "train", cfg, {"kind": kind, "out": args.out})
    print(f"trained {kind} ensemble into {out_dir}")
    return 0


def _discover_kinds(ensemble_dir: Path) -> list[str]:
    kinds = [k for k in KINDS if (ensemble_dir / k / "arm0.params").exists()]
    if not kinds:
        raise FileNotFoundError(f"no trained ensembles under {ensemble_dir}")
    return kinds


def _load_base_arm(ensemble_dir: Path, kinds: list[str]):
    """The base arm is shared: every kind trains arm 0 identically, so the
    parameter files must be byte-identical across kinds."""
    blobs = {k: (ensemble_dir / k / "arm0.params").read_bytes() for k in kinds}
    first = kinds[0]
    for k in kinds[1:]:
        if blobs[k] != blobs[first]:
            raise RuntimeError(
                f"base arm differs between ensembles {first} and {k}; "
                "retrain with consistent seeds"
            )
    return load_params(ensemble_dir / first / "arm0.params")


def _load_arms(kind_dir: Path, train_ids: list[str]):
    """Each arm's parameters and its saved training-set features, whose
    rows must follow the current train split."""
    arms, feats = [], []
    for k in range(ARMS_PER_ENSEMBLE):
        params_path, cache_path = kind_dir / f"arm{k}.params", kind_dir / f"arm{k}.cache"
        for path in (params_path, cache_path):
            if not path.exists():
                raise FileNotFoundError(f"missing artifact: {path}")
        cache = load_cache(cache_path)
        if cache.sample_ids != tuple(train_ids):
            raise RuntimeError(f"{cache_path}: sample_ids differ from the train split")
        arms.append(load_params(params_path))
        feats.append(cache.features)
    return arms, feats


def cmd_attack(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ensemble_dir = resolve_path(cfg, args.ensemble_dir)
    out_dir = resolve_path(cfg, args.out)
    base = _load_base_arm(ensemble_dir, _discover_kinds(ensemble_dir))
    _, test = _load_splits(cfg)
    x, y, ids = test.signals_matrix(), test.labels_array(), test.ids()

    grid = attack_cells(cfg)
    failed = []
    for name, spec in grid:
        cell = out_dir / name
        try:
            aset = craft_set(base, x, y, ids, spec, base)
            save_attacked_set(aset, cell)
        except Exception as exc:  # noqa: BLE001 - report cell and keep going
            failed.append((cell.name, str(exc)))
    _write_manifest(out_dir, "attack", cfg,
                    {"ensemble_dir": args.ensemble_dir, "out": args.out})
    if failed:
        for name, msg in failed:
            print(f"attack cell {name} failed: {msg}", file=sys.stderr)
        return 1
    print(f"crafted {len(grid)} attacked sets in {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    ensemble_dir = resolve_path(cfg, args.ensemble_dir)
    attacks_dir = resolve_path(cfg, args.attacks)
    report_path = resolve_path(cfg, args.out)
    kinds = _discover_kinds(ensemble_dir)
    bank = bank_from_config(cfg)
    train, test = _load_splits(cfg)
    arms_by_kind = {kind: _load_arms(ensemble_dir / kind, train.ids()) for kind in kinds}

    # (attack, epsilon, inputs, labels, mask); the natural test set first
    test_x = test.signals_matrix()
    cells = [("none", 0.0, test_x, test.labels_array(), None)]
    for name, spec in attack_cells(cfg):
        aset = load_attacked_set(attacks_dir / name)
        if (aset.spec != spec or aset.ids != test.ids()
                or not np.array_equal(aset.natural, test_x)):
            raise RuntimeError(f"{attacks_dir / name / 'attack_manifest.json'}: made with "
                               "another attack grid or test split; rerun attack")
        cells.append((spec.family, spec.eps, aset.perturbed, aset.labels, aset.mask))

    rows = []
    correlations = {}
    for kind in kinds:
        arms, feats = arms_by_kind[kind]
        for fam, eps, x, y, mask in cells:
            m = evaluate_arms(arms, arm_roles(kind), x, y, mask, bank)
            rows.append([kind, fam, repr(float(eps))]
                        + [repr(m[c]) for c in ("average", "p1", "p2", "p3")] + [m["n_masked"]])
        correlations[kind] = correlation_report(feats)

    write_csv(report_path,
              ["kind", "attack", "epsilon", "average", "p1", "p2", "p3", "n_masked"], rows)
    write_json(report_path.parent / "correlation.json", correlations)
    _write_manifest(report_path.parent, "evaluate", cfg,
                    {"ensemble_dir": args.ensemble_dir, "attacks": args.attacks,
                     "out": args.out})
    print(f"wrote {report_path} ({len(rows)} rows) and correlation.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densemble",
        description="Train and attack decorrelated / band-partitioned signal ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="synthesize the dataset described by the config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train one ensemble kind")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", required=True, choices=list(KINDS))
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true", help="overwrite existing arm files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="craft attacked sets against the base arm")
    p.add_argument("--config", required=True)
    p.add_argument("--ensemble-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="emit the metrics CSV and correlation JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--ensemble-dir", required=True)
    p.add_argument("--attacks", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
