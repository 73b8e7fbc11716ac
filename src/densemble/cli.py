"""Command-line front door: generate data, train, attack, evaluate.

All commands are driven by one JSON config plus a couple of path flags,
write a run manifest with the fully resolved config, and are idempotent:
re-running a command with identical inputs reproduces its artifacts byte
for byte.  Exit codes: 0 success, 1 runtime failure, 2 config/usage
error.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .attacks import INDEX_HEADER, craft_set, load_attacked_set, save_attacked_set
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
from .decorrelation import FeatureCache, load_cache, save_cache
from .ensemble import (
    KINDS,
    arm_roles,
    arm_view,
    correlation_report,
    evaluate_arms,
    train_ensemble,
)
from .model import load_params, predict, save_params
from .signals import load_dataset, preprocess, save_dataset, signal_text, split, synthesize
from .storage import digest, read_csv, write_bytes, write_csv, write_json

__all__ = ["main", "entry"]


def _write_manifest(out_dir: Path, command: str, cfg: dict, args: dict) -> None:
    write_json(out_dir / "run_manifest.json", {"command": command, "args": args, "config": cfg})


def _load_splits(cfg: dict):
    """Dataset -> (train, test, train digest), both splits preprocessed with train-split
    stats; every command refuses a train split that evaluate could not regress over."""
    data = cfg["data"]
    if data["source"] == "manifest":
        manifest = resolve_path(cfg, data["manifest"])
    else:
        manifest = resolve_path(cfg, data["dir"]) / "manifest.csv"
    ds = load_dataset(manifest)
    if (labels := len(np.unique(ds.labels))) != data["num_classes"]:
        raise ValueError(f"{manifest}: {labels} labels, but data.num_classes is "
                         f"{data['num_classes']}")
    train_raw, test_raw = split(ds, data["train_fraction"], data["seeds"]["split"])
    if (n := len(train_raw.ids)) <= (dim := cfg["arch"]["feature_dim"]) + 1:  # correlation_r2
        raise ValueError(f"correlation.json regresses each arm's features over the {n} train "
                         f"rows, which must exceed arch.feature_dim+1 = {dim + 1}")
    train, test = preprocess(train_raw, test_raw, data["length"])
    return train, test, digest(train.ids, train.labels, train.signals)


def _workers() -> int:
    """`train`'s and `attack`'s pool size: usable CPUs over numpy's BLAS threads, at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # numpy's BLAS starts the threads the first positive thread variable names, else one per CPU
    blas = next((int(v) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                 if (v := os.environ.get(var, "")).isdecimal() and int(v) > 0), cpus)
    return max(1, cpus // blas)


def cmd_generate_data(args: argparse.Namespace, cfg: dict) -> int:
    data = cfg["data"]
    if data["source"] != "synthetic":
        raise ConfigError("generate-data requires data.source == 'synthetic'")
    out_dir = resolve_path(cfg, args.out)
    ds = synthesize(synth_from_config(cfg), data["seeds"]["synth"])
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    save_dataset(ds, out_dir)
    train_raw, test_raw = split(ds, data["train_fraction"], data["seeds"]["split"])
    write_json(out_dir / "split.json", {
        "train_fraction": data["train_fraction"], "seed": data["seeds"]["split"],
        "train_ids": train_raw.ids, "test_ids": test_raw.ids,
    })
    _write_manifest(out_dir, "generate-data", cfg, {"out": args.out})
    print(f"generated {len(ds)} records in {out_dir}")
    return 0


def _write_curve(path: Path, curve: list[dict]) -> None:
    columns = list(curve[0])
    write_csv(path, columns,
              [[row["epoch"]] + [repr(row[c]) for c in columns[1:]] for row in curve])


def _read_curve(path: Path, columns: list[str], epochs: int) -> list[dict]:
    """The curve `_write_curve` wrote: `epochs` rows under `columns`, numbered from 0."""
    curve = [dict(zip(columns, [int(e)] + [float(v) for v in losses]))
             for _, (e, *losses) in read_csv(path, columns)]
    if [row["epoch"] for row in curve] != list(range(epochs)):
        raise ValueError(f"{path}: epochs must run 0..{epochs - 1}")
    return curve


def _arm_keys(cfg: dict, kind: str, train_digest: str) -> list[str]:
    """Each arm's content key: a digest of everything that decides its bytes.
    An unfiltered arm that does not decorrelate is keyed like the same `cor` arm."""
    arch, tcfg, decor = arch_from_config(cfg), train_from_config(cfg), decor_from_config(cfg)
    keys: list[str] = []
    for k, role in enumerate(arm_roles(kind)):
        parts = [train_digest, arch, tcfg, k, role.band]
        if role.band is not None:
            parts += [cfg["bank"]["cutoff"], cfg["bank"]["transition_width"]]
        if role.decorrelates(decor):
            parts += [decor, list(keys)]
        keys.append(digest(*parts))
    return keys


def _checked_cache(kind_dir: Path, k: int, key: str, train_ids: list[str], train_digest: str,
                   params: bytes | None):
    """Arm k's cache, the `arm{k}.params` bytes it was checked against (`params`,
    or read here if None) and the parameters parsed from them: the cache must
    record their sha256, have been computed over the current train split, carry
    the arm key `key` that `_arm_keys` gives for the config and be named `arm{k}`."""
    params_path, cache_path = kind_dir / f"arm{k}.params", kind_dir / f"arm{k}.cache"
    for path in (params_path, cache_path):
        if not path.exists():
            raise FileNotFoundError(f"missing artifact: {path}")
    cache = load_cache(cache_path)
    params = params_path.read_bytes() if params is None else params
    for name, current, what in (("params_sha256", hashlib.sha256(params).hexdigest(), params_path),
                                ("train_digest", train_digest, "the current train split"),
                                ("arm_key", key, "the current config")):
        if cache.provenance.get(name) != current:
            raise ValueError(f"{cache_path}: {name} differs from {what}; retrain")
    if cache.model_id != f"arm{k}":
        raise ValueError(f"{cache_path}: model_id is {cache.model_id!r}, not 'arm{k}'; retrain")
    if cache.sample_ids != tuple(train_ids):
        raise ValueError(f"{cache_path}: sample_ids differ from the train split")
    return cache, params, load_params(params_path, params)


def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    kind = args.kind
    out_root = resolve_path(cfg, args.out)
    out_dir = out_root / kind
    existing = sorted(p.name for p in out_dir.glob("arm*.params"))
    if existing and not args.force:
        raise RuntimeError(f"refusing to overwrite {out_dir} ({', '.join(existing)}); use --force")

    train, _, train_digest = _load_splits(cfg)
    keys = _arm_keys(cfg, kind, train_digest)
    # An arm already trained under another kind of this --out is copied, not
    # trained again; the own kind is never a source, so --force retrains.
    found = {}
    for k, (key, role) in enumerate(zip(keys, arm_roles(kind))):
        header = ["epoch", "ce"] + ["cor"] * role.decorrelates(decor_from_config(cfg))
        for sibling in (out_root / o for o in KINDS if o != kind):
            try:
                cache, params, _ = _checked_cache(sibling, k, key, train.ids, train_digest, None)
                curve = _read_curve(sibling / f"arm{k}_curve.csv", header, cfg["train"]["epochs"])
            except (OSError, ValueError):  # absent, damaged, stale or of another config
                continue
            found[k] = sibling.name, cache, params, curve
            break
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    for k, res in train_ensemble(kind, train.signals, train.labels, arch_from_config(cfg),
                                 train_from_config(cfg), decor_from_config(cfg),
                                 bank_from_config(cfg),
                                 {k: hit[1].features for k, hit in found.items()}, _workers()):
        if res is None:
            other, cache, params, curve = found[k]
            write_bytes(out_dir / f"arm{k}.params", params)
            save_cache(cache, out_dir / f"arm{k}.cache")
            _write_curve(out_dir / f"arm{k}_curve.csv", curve)
            print(f"arm{k}: copied from {Path(args.out) / other} (key {keys[k][:8]})")
            continue
        blob = save_params(res.params, out_dir / f"arm{k}.params", model_id=f"arm{k}")
        provenance = {"arm_key": keys[k], "train_digest": train_digest,
                      "params_sha256": hashlib.sha256(blob).hexdigest()}
        save_cache(FeatureCache(f"arm{k}", tuple(train.ids), res.features, provenance),
                   out_dir / f"arm{k}.cache")
        _write_curve(out_dir / f"arm{k}_curve.csv", res.curve)
    _write_manifest(out_dir, "train", cfg, {"kind": kind, "out": args.out})
    print(f"trained {kind} ensemble into {out_dir}")
    return 0


def _base_arm(ensemble_dir: Path) -> tuple[list[str], bytes, str]:
    """The kinds trained under `ensemble_dir`, and the bytes and sha256 of
    their `arm0.params`: every kind trains arm 0 identically, so the files
    must be byte-identical across kinds."""
    blobs = {k: p.read_bytes() for k in KINDS if (p := ensemble_dir / k / "arm0.params").exists()}
    if not blobs:
        raise FileNotFoundError(f"no trained ensembles under {ensemble_dir}")
    kinds = list(blobs)
    if odd := [k for k in kinds if blobs[k] != blobs[kinds[0]]]:
        a, b = (ensemble_dir / k / "arm0.params" for k in (kinds[0], odd[0]))
        raise RuntimeError(f"base arm differs between ensembles {kinds[0]} and {odd[0]}; "
                           f"retrain with consistent seeds ({a} and {b} differ)")
    return kinds, blobs[kinds[0]], hashlib.sha256(blobs[kinds[0]]).hexdigest()


def cmd_attack(args: argparse.Namespace, cfg: dict) -> int:
    ensemble_dir = resolve_path(cfg, args.ensemble_dir)
    out_dir = resolve_path(cfg, args.out)
    kinds, arm0, base_sha = _base_arm(ensemble_dir)
    train, test, train_digest = _load_splits(cfg)
    key = _arm_keys(cfg, kinds[0], train_digest)[0]
    _, _, base = _checked_cache(ensemble_dir / kinds[0], 0, key, train.ids, train_digest, arm0)

    grid = attack_cells(cfg)
    mask = predict(base, test.signals) == test.labels  # scores every cell, as in evaluate
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    craft = lambda spec: craft_set(test.signals, test.labels, test.ids, mask, spec, base, base_sha)
    pool = ThreadPoolExecutor(_workers())  # starts the cells in grid order
    try:
        futures = [pool.submit(craft, spec) for _, spec in grid]
        natural = [signal_text(row) for row in test.signals]  # every cell writes these bytes
        for (name, _), future in zip(grid, futures):  # saved in grid order
            try:
                save_attacked_set(future.result(), out_dir / name, natural)
            except Exception as exc:
                raise RuntimeError(f"attack cell {name} failed: {exc}") from exc
    finally:  # however the loop ends, the cells not started are dropped
        pool.shutdown(cancel_futures=True)
    _write_manifest(out_dir, "attack", cfg, {"ensemble_dir": args.ensemble_dir, "out": args.out})
    print(f"crafted {len(grid)} attacked sets in {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    ensemble_dir = resolve_path(cfg, args.ensemble_dir)
    attacks_dir = resolve_path(cfg, args.attacks)
    report_path = resolve_path(cfg, args.out)
    kinds, arm0, base_sha = _base_arm(ensemble_dir)
    bank = bank_from_config(cfg)
    train, test, train_digest = _load_splits(cfg)

    loaded = []
    for name, spec in attack_cells(cfg):
        aset = load_attacked_set(attacks_dir / name)
        if (aset.spec != spec or aset.ids != test.ids or aset.target_params_sha256 != base_sha
                or not np.array_equal(aset.natural, test.signals)
                or not np.array_equal(aset.labels, test.labels)):
            raise RuntimeError(f"{attacks_dir / name / 'attack_manifest.json'}: made with another "
                               "attack grid, test split or arm0.params; rerun attack")
        loaded.append((attacks_dir / name, aset))
    arms = {kind: [_checked_cache(ensemble_dir / kind, k, key, train.ids, train_digest,
                                  None if k else arm0)  # arm 0 as _base_arm read it
                   for k, key in enumerate(_arm_keys(cfg, kind, train_digest))] for kind in kinds}
    cells = [("none", 0.0, test.signals)] + [  # (attack, epsilon, inputs), natural first
        (aset.spec.family, aset.spec.eps, aset.perturbed) for _, aset in loaded]
    table = {}  # (params bytes, band) -> (cells, samples) correctness, once per distinct arm
    correct = {kind: [] for kind in kinds}
    for kind in kinds:
        for (_, blob, params), role in zip(arms[kind], arm_roles(kind)):
            if (key := (blob, role.band)) not in table:
                table[key] = np.stack([predict(params, arm_view(x, role, bank)) == test.labels
                                       for _, _, x in cells])
            correct[kind].append(table[key])
    mask = correct[kinds[0]][0][0]  # the base arm on the natural test set
    for cell_dir, aset in loaded:
        if (rows := np.flatnonzero(aset.mask != mask)).size:  # name the line only on failure
            ln, (_, _, masked, _) = read_csv(cell_dir / "index.csv", INDEX_HEADER)[rows[0]]
            raise ValueError(f"{cell_dir / 'index.csv'}:{ln}: masked is {masked!r}, but the "
                             f"signals and arm0 give {str(int(mask[rows[0]]))!r}; rerun attack")

    rows, correlations = [], {}
    scored = [np.ones_like(mask)] + [mask] * len(loaded)
    for kind in kinds:
        for (fam, eps, _), cell, s in zip(cells, np.stack(correct[kind], axis=1), scored):
            m = evaluate_arms(cell, s)
            rows.append([kind, fam, repr(float(eps))]
                        + [repr(m[c]) for c in ("average", "p1", "p2", "p3")] + [m["n_masked"]])
        correlations[kind] = correlation_report([cache.features for cache, _, _ in arms[kind]])

    (report_path.parent / "run_manifest.json").unlink(missing_ok=True)
    write_csv(report_path,
              ["kind", "attack", "epsilon", "average", "p1", "p2", "p3", "n_masked"], rows)
    write_json(report_path.parent / "correlation.json", correlations)
    _write_manifest(report_path.parent, "evaluate", cfg, {"ensemble_dir": args.ensemble_dir,
                                                          "attacks": args.attacks, "out": args.out})
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


def _keep_heap() -> None:
    """Pin glibc's mmap and trim thresholds at 16 and 32 MiB, above a step's largest
    temporary (14.7 MB at the reference sizes), so a step reuses the heap the last one
    freed rather than faulting it in again, and its arenas at one, so pool threads do
    not each open an arena that keeps a second copy of freed memory.  It changes no
    byte; off glibc it does nothing (musl's mallopt ignores all three)."""
    try:
        if sys.platform == "linux":
            mallopt = ctypes.CDLL(None).mallopt
            mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
            mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
            mallopt(-8, 1)  # M_ARENA_MAX
    except (OSError, AttributeError, TypeError):
        pass


def main(argv: list[str] | None = None) -> int:
    _keep_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__": entry()
