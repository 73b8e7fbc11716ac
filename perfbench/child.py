"""One benchmark pass, in a fresh process with a fresh run dir.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 \
        --src CHECKOUT/src --run-dir DIR --result FILE [--trace-out FILE]

The pass writes the workload config, sets up (several times, keeping the
median), runs the timed CLI commands in-process one after another, checks
the outputs and writes one JSON result.  With ``--trace 1`` the set-up and
timed commands run under the tracer and the kernel table follows.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from workloads import CONFIG, DEFAULT_SEED, OUTPUT_ROOT, THREAD_VARS, WORKLOADS

SETUP_REPS = 11
# the output dir of each timed stage, under the output root
STAGE_OUT = {"generate-data": "data", "train": "ens", "attack": "atk", "evaluate": "report"}
EPS_SLACK = 1e-12  # x' - x may round up by one ulp of x (see tests/test_attacks.py)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "default_seed": DEFAULT_SEED,
    }


def warm_up() -> None:
    """One training-shaped forward+backward, so that BLAS thread start-up
    and first-call costs land in the set-up rather than the first command."""
    from densemble import autodiff as ad
    from densemble.model import ArchConfig, forward, init_params, make_param_tensors

    params = init_params(ArchConfig(), np.random.SeedSequence(0))
    pt = make_param_tensors(params)
    x = np.random.default_rng(0).standard_normal((80, params.arch.input_length))
    logits, _ = forward(params, x, param_tensors=pt)
    ad.softmax_cross_entropy(logits, np.zeros(80, dtype=np.int64)).backward()


# -- tracing hooks ---------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def trace_hooks(tracer, conv_blocks) -> dict:
    """Span names and counters for the tracer, keyed by qualified name."""
    from densemble.model import predict

    cnt = tracer.counters
    conv_names = {}
    c_in = 1
    for i, (c_out, _k, _stride) in enumerate(conv_blocks):
        conv_names[(c_out, c_in)] = f"autodiff.conv1d.conv{i}"
        c_in = c_out

    def conv_name(args, kwargs):
        c_out, c_in = _arg(args, kwargs, 1, "w").shape[:2]
        if c_out == c_in == 1:
            return "autodiff.conv1d.smooth"  # SAP's Gaussian kernels
        return conv_names.get((c_out, c_in), "autodiff.conv1d.other")

    mark = [0]  # Tensor count at the end of the previous optimizer step

    def arm_start(args, kwargs):
        mark[0] = tracer.tensors

    def step(args, kwargs):
        cnt["nodes"] += tracer.tensors - mark[0]
        cnt["steps"] += 1
        mark[0] = tracer.tensors

    def add(key, fn):
        def hook(*a):
            cnt[key] += fn(*a)
        return hook

    def flips(args, kwargs, aset):
        fam = _arg(args, kwargs, 4, "spec").family
        base = _arg(args, kwargs, 5, "base")
        cnt[f"flip.{fam}.masked"] += int(aset.mask.sum())
        cnt[f"flip.{fam}.flipped"] += int((aset.mask & (predict(base, aset.perturbed) != aset.labels)).sum())

    return {
        "autodiff.conv1d": {"name": conv_name},
        "ensemble.train_arm": {"pre": arm_start},
        "ensemble.adam_step": {"pre": step},
        "model.forward": {"pre": add("forward.rows", lambda a, k: _arg(a, k, 1, "x").shape[0])},
        "decorrelation.build_cache": {
            "pre": add("build_cache.rows", lambda a, k: _arg(a, k, 1, "signals").shape[0])},
        "storage.write_container": {
            "post": add("write.bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")))},
        "storage.read_container": {
            "pre": add("read.bytes", lambda a, k: os.path.getsize(_arg(a, k, 0, "path")))},
        # natural/ and perturbed/ hold one file per record, plus index and manifest
        "attacks.save_attacked_set": {
            "post": add("files_written", lambda a, k, r: 2 * len(_arg(a, k, 0, "aset").ids) + 2)},
        "attacks.load_attacked_set": {"post": add("files_read", lambda a, k, r: 2 * len(r.ids) + 2)},
        "attacks.craft_set": {"post": flips},
    }


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    agg = tracer.aggregate()
    cnt = tracer.counters

    def a(name, field):
        return agg[name][field] if name in agg else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "ensemble.train_arm.calls": (a("ensemble.train_arm", "calls"), "count"),
        "ensemble.train_arm.ms": (a("ensemble.train_arm", "ms"), "ms"),
        "ensemble.adam_step.calls": (a("ensemble.adam_step", "calls"), "count"),
        "ensemble.adam_step.self_ms": (a("ensemble.adam_step", "self_ms"), "ms"),
        "model.forward.calls": (a("model.forward", "calls"), "count"),
        "model.forward.rows": (cnt["forward.rows"], "count"),
        "model.forward.self_ms": (a("model.forward", "self_ms"), "ms"),
    }
    for conv in ("conv0", "conv1", "conv2", "smooth"):
        m[f"autodiff.conv1d.{conv}_ms"] = (a(f"autodiff.conv1d.{conv}", "ms"), "ms")
    m.update({
        "autodiff.backward.calls": (a("autodiff.backward", "calls"), "count"),
        "autodiff.backward.ms": (a("autodiff.backward", "ms"), "ms"),
        "autodiff.nodes_per_step": (ratio(cnt["nodes"], cnt["steps"]), "count"),
        "autodiff.least_squares_residual.calls": (a("autodiff.least_squares_residual", "calls"), "count"),
        "autodiff.least_squares_residual.ms": (a("autodiff.least_squares_residual", "ms"), "ms"),
        "decorrelation.ensemble_decor_loss.self_ms": (a("decorrelation.ensemble_decor_loss", "self_ms"), "ms"),
        "decorrelation.build_cache.ms": (a("decorrelation.build_cache", "ms"), "ms"),
        "decorrelation.build_cache.rows": (cnt["build_cache.rows"], "count"),
        "ensemble.evaluate_arms.ms": (a("ensemble.evaluate_arms", "ms"), "ms"),
        "ensemble.correlation_report.ms": (a("ensemble.correlation_report", "ms"), "ms"),
        "fourier.apply_band.calls": (a("fourier.apply_band", "calls"), "count"),
        "fourier.apply_band.ms": (a("fourier.apply_band", "ms"), "ms"),
        "attacks.pgd.ms": (a("attacks.pgd", "ms"), "ms"),
        "attacks.sap.ms": (a("attacks.sap", "ms"), "ms"),
        "attacks.flip_rate.pgd": (ratio(cnt["flip.pgd.flipped"], cnt["flip.pgd.masked"]), "frac"),
        "attacks.flip_rate.sap": (ratio(cnt["flip.sap.flipped"], cnt["flip.sap.masked"]), "frac"),
        "attacks.save_attacked_set.ms": (a("attacks.save_attacked_set", "ms"), "ms"),
        "attacks.load_attacked_set.ms": (a("attacks.load_attacked_set", "ms"), "ms"),
        "attacks.files_written": (cnt["files_written"], "count"),
        "attacks.files_read": (cnt["files_read"], "count"),
        "signals.load_dataset.calls": (a("signals.load_dataset", "calls"), "count"),
        "signals.load_dataset.ms": (a("signals.load_dataset", "ms"), "ms"),
        "signals.synthesize.ms": (a("signals.synthesize", "ms"), "ms"),
        "signals.save_dataset.ms": (a("signals.save_dataset", "ms"), "ms"),
        "storage.write_container.bytes": (cnt["write.bytes"], "B"),
        "storage.write_container.ms": (a("storage.write_container", "ms"), "ms"),
        "storage.read_container.bytes": (cnt["read.bytes"], "B"),
        "storage.read_container.ms": (a("storage.read_container", "ms"), "ms"),
    })
    for cmd in ("generate-data", "train", "attack", "evaluate"):
        m[f"cli.{cmd}.ms"] = (a(f"cli.{cmd}", "ms"), "ms")
    # time inside `train` commands that no wrapped function accounts for
    m["cli.train.unattributed_ms"] = (a("cli.train", "self_ms"), "ms")
    return m


# -- output checks -----------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(art: Path) -> tuple[dict[str, str], str]:
    """Digests of report.csv, correlation.json and every arm params/cache
    file, plus one digest over every file of every artifact dir."""
    files = sorted(p for p in art.rglob("*") if p.is_file())
    digests = {p.relative_to(art).as_posix(): _sha256(p) for p in files}
    keyed = {k: v for k, v in digests.items()
             if k in ("report/report.csv", "report/correlation.json")
             or re.fullmatch(r"ens/[a-z]+/arm\d+\.(params|cache)", k)}
    tree = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    return keyed, tree


NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def wall_clock_hits(art: Path, t_start: float, t_end: float) -> list[str]:
    """Artifact text files holding today's date or a current Unix time (in s
    or ms).  Per-record signal files hold only the signals and are skipped."""
    days = {dt.datetime.fromtimestamp(t, tz).date().isoformat()
            for t in (t_start, t_end) for tz in (None, dt.timezone.utc)}
    lo, hi = t_start - 86400, t_end + 86400
    hits = []
    for path in sorted(art.rglob("*")):
        if path.suffix not in (".json", ".csv"):
            continue
        text = path.read_text()
        if any(d in text for d in days):
            hits.append(path.name)
            continue
        for tok in NUMBER.findall(text):
            v = float(tok)
            if lo <= v <= hi or lo * 1e3 <= v <= hi * 1e3:
                hits.append(path.name)
                break
    return hits


def _check(ops, name, fn) -> None:
    """Record one check; a malformed or missing output fails it."""
    try:
        problem = fn()
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    ops.append((name, not problem, problem or ""))


def check_outputs(cfg: dict, kinds, art: Path) -> list[tuple[str, bool, str]]:
    ops: list[tuple[str, bool, str]] = []
    att = cfg["attack"]
    cells = [(f"{fam}_eps{i:02d}", eps) for fam in att["families"]
             for i, eps in enumerate(att["epsilons"])]

    def cell_ok(cell, eps):
        with open(art / "atk" / cell / "index.csv", newline="") as fh:
            worst = max(float(r["linf_delta"]) for r in csv.DictReader(fh))
        return "" if worst <= eps + EPS_SLACK else f"linf_delta {worst!r} > eps {eps!r}"

    def report_ok():
        with open(art / "report" / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(kinds) * (1 + len(cells)):
            return f"{len(rows)} rows for {len(kinds)} kinds x (1 + {len(cells)} cells)"
        if sorted({r["kind"] for r in rows}) != sorted(kinds):
            return "kinds differ"
        for r in rows:
            vals = [float(r[c]) for c in ("epsilon", "average", "p1", "p2", "p3")]
            p1, p2, p3 = vals[2:]
            if not all(math.isfinite(v) for v in vals) or not 1 >= p1 >= p2 >= p3 >= 0:
                return f"bad row {r}"
            if int(r["n_masked"]) < 1:
                return f"empty mask in {r}"
        return ""

    def correlation_ok():
        data = json.loads((art / "report" / "correlation.json").read_text())
        if sorted(data) != sorted(kinds) or not all(math.isfinite(v["mean_offdiag"]) for v in data.values()):
            return "kinds missing or non-finite"
        return ""

    for cell, eps in cells:
        _check(ops, f"cell {cell} written with linf_delta <= eps", lambda: cell_ok(cell, eps))
    _check(ops, "report.csv rows finite with p1 >= p2 >= p3", report_ok)
    _check(ops, "correlation.json covers every kind", correlation_ok)
    return ops


# -- the pass ----------------------------------------------------------------

def run_cli(cli, argv, tracer) -> tuple[float, int]:
    t0 = time.perf_counter()
    with tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
        rc = cli.main(list(argv))
    return time.perf_counter() - t0, rc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-out", help="where the traced pass writes its spans")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import densemble
    from densemble import cli

    if Path(densemble.__file__).resolve().parent != src / "densemble":
        raise SystemExit(f"densemble imported from {densemble.__file__}, not {src}")

    from densemble.config import resolve_config
    from densemble.ensemble import batch_schedule

    wl = WORKLOADS[args.workload]
    cfg_user = wl.config(args.seed, args.seconds)
    cfg = resolve_config(cfg_user)
    for rep in range(SETUP_REPS):
        os.mkdir(Path(args.run_dir, f"setup{rep}"))
    art = Path(OUTPUT_ROOT)
    t_start = time.time()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
        tracer.install(trace_hooks(tracer, cfg["arch"]["conv_blocks"]))

    # Nothing is deleted while the pass runs: on a disk mounted with
    # `discard`, writes that follow a large delete slow down by about a
    # third.  Each set-up runs in its own dir, and the timed commands in the
    # last one; run.py deletes the run dir when the pass has ended.
    ops: list[tuple[str, bool, str]] = []
    setup_times = []
    for rep in range(SETUP_REPS):
        os.chdir(Path(args.run_dir, f"setup{rep}").resolve())
        t0 = time.perf_counter()
        with open(CONFIG, "w") as fh:
            json.dump(cfg_user, fh, indent=2, sort_keys=True)
        rcs = []
        with tracer.span("setup") if tracer else nullcontext():
            for argv in wl.setup:
                rcs.append(run_cli(cli, argv, tracer)[1])
        with tracer.suspended() if tracer else nullcontext():
            warm_up()
        setup_times.append(time.perf_counter() - t0)
    for argv, rc in zip(wl.setup, rcs):
        ops.append((f"set-up {argv[0]} exits 0", rc == 0, f"exit {rc}"))

    # A stage is a run of consecutive commands of one kind.  A repeated
    # stage sets each earlier repetition's output dir aside, and every
    # repetition must write the same bytes.
    stage = dict.fromkeys(STAGE_OUT, 0.0)
    stage_reps = {"setup": setup_times}  # every repetition's seconds, printed beside the result
    for name, group in itertools.groupby(wl.timed, key=lambda argv: argv[0]):
        group = list(group)
        reps, out = wl.reps.get(name, 1), art / STAGE_OUT[name]
        rep_times, rep_trees = [], set()
        for rep in range(reps):
            if rep:
                os.replace(out, f"{out.name}-rep{rep - 1}")
            secs = 0.0
            for argv in group:
                s, rc = run_cli(cli, argv, tracer)
                secs += s
                ops.append((f"{' '.join(argv[:1] + argv[3:5])} exits 0", rc == 0, f"exit {rc}"))
            rep_times.append(secs)
            if reps > 1:
                rep_trees.add(fingerprints(out)[1])
        if reps > 1:
            ops.append((f"{reps} {name} repetitions write the same bytes", len(rep_trees) == 1, ""))
        stage[name] += statistics.median(rep_times)
        stage_reps[name] = rep_times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()
    t_end = time.time()

    ops += check_outputs(cfg, wl.kinds, art)
    hits = wall_clock_hits(art, t_start, t_end)
    ops.append(("no wall-clock value in artifacts", not hits, ", ".join(hits[:3])))
    keyed, tree = fingerprints(art)

    split = json.loads((art / "data" / "split.json").read_text()) if (art / "data" / "split.json").exists() else {}
    n_train, n_test = len(split.get("train_ids", ())), len(split.get("test_ids", ()))
    arms = len(list((art / "ens").glob("*/arm*.params")))
    steps_per_arm = cfg["train"]["epochs"] * len(
        batch_schedule(n_train, cfg["train"]["batch_size"], np.arange(n_train)))
    cells = len(cfg["attack"]["families"]) * len(cfg["attack"]["epsilons"])
    wall = sum(stage.values())

    def per_s(work, secs):
        return work / secs if secs > 0 else 0.0

    result = {
        "ops": ops,
        "fingerprint": hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest(),
        "fingerprint_files": keyed,
        "tree_digest": tree,
        "env": environment(),
        "stage_reps_s": stage_reps,
        "work": {"epochs": cfg["train"]["epochs"], "train_records": n_train, "test_records": n_test,
                 "arms": arms, "steps_per_arm": steps_per_arm, "attack_cells": cells,
                 "attack_steps": cfg["attack"]["steps"]},
        "end_to_end": {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "train_s": (stage["train"], "s"),
            "train_arm_steps_per_s": (per_s(arms * steps_per_arm, stage["train"]), "1/s"),
            "attack_s": (stage["attack"], "s"),
            "attack_sample_steps_per_s": (per_s(n_test * cfg["attack"]["steps"] * cells, stage["attack"]), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if tracer:
        from kernels import kernel_table

        agg = tracer.aggregate()
        silent = [n for n in wl.expected_spans() if n not in agg]
        ops.append(("every expected layer recorded calls", not silent, ", ".join(silent)))
        layers = layer_metrics(tracer)
        layers.update(kernel_table())
        result["per_layer"] = layers
        breakdown = tracer.self_ms_under("cli.train")
        result["train_breakdown_ms"] = dict(sorted(breakdown.items(), key=lambda kv: -kv[1]))
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                      "seconds": args.seconds, "env": result["env"],
                                      "train_breakdown_ms": result["train_breakdown_ms"]})

    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
