"""densemble benchmark: one workload run, printing one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline|dec-attack \
        --seed N --seconds S --trace 0|1

Each pass runs in a fresh child process (``child.py``) with a fresh run
dir under ``.perfbench_work/`` and without ``DENSEMBLE_ROOT``, so peak
memory and set-up time belong to that pass and no user setting can
redirect artifacts.  ``--trace 0`` makes one untraced pass and reports the
end-to-end metrics; ``--trace 1`` makes an untraced and a traced pass and
reports the per-layer metrics, including the tracing overhead.

Failures are counted, never hidden: every CLI command, attack cell and
output check is one attempted operation.  The output fingerprint of a
(workload, seed, run length, BLAS thread settings, source) must repeat
exactly from run to run;
the first run records it in ``.perfbench_work/ledger.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BLAS_THREADS, DEFAULT_SEED, THREAD_VARS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK = CHECKOUT / ".perfbench_work"
DEADLINE_S = 170  # the whole run, both passes included


def source_digest() -> str:
    """Identity of the program and the benchmark: every file they consist of."""
    h = hashlib.sha256()
    files = sorted((CHECKOUT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [CHECKOUT / "BENCHMARK.json"]:
        h.update(path.relative_to(CHECKOUT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (CHECKOUT / ".git").exists():  # never let git search above the checkout
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(args, trace: int, deadline: float, trace_out: Path | None) -> dict:
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    result = run_dir / "result.json"
    env = {k: v for k, v in os.environ.items() if k != "DENSEMBLE_ROOT"}
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--src", str(CHECKOUT / "src"), "--run-dir", str(run_dir), "--result", str(result)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"benchmark pass exited {proc.returncode}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # commit the delete now, so its discards do not land in the next pass
        fd = os.open(runs, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def ledger_check(key: str, result: dict) -> tuple[str, bool, str]:
    """Same (workload, seed, run length, threads, source) -> same artifact bytes."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    entry = {k: result[k] for k in ("fingerprint", "tree_digest", "fingerprint_files")}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = entry
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return ("fingerprint repeats across runs", True, "first run of this key")
    differ = sorted(k for k, v in entry["fingerprint_files"].items() if seen["fingerprint_files"].get(k) != v)
    same = seen == entry
    return ("fingerprint repeats across runs", same, "" if same else f"differs: {differ or 'other artifacts'}")


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    for var in THREAD_VARS:  # inherited by both passes, and part of the ledger key
        os.environ.setdefault(var, BLAS_THREADS)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (CHECKOUT / "src" / "densemble" / "__init__.py").is_file():
        print(f"no densemble sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = run_pass(args, 0, deadline, None)
    ops = list(base["ops"])
    # BLAS thread settings change reduction order, and so the output bytes
    threads = ",".join(f"{v}={os.environ.get(v, '')}" for v in THREAD_VARS)
    key = f"{args.workload}|{args.seed}|{args.seconds}|{threads}|{source_digest()}"
    ops.append(ledger_check(key, base))
    metrics = base["end_to_end"]
    if args.trace:
        trace_out = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        traced = run_pass(args, 1, deadline, trace_out)
        ops += traced["ops"]
        same = (traced["fingerprint"], traced["tree_digest"]) == (base["fingerprint"], base["tree_digest"])
        ops.append(("tracing leaves the outputs unchanged", same, ""))
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_frac"] = (
            traced["end_to_end"]["wall_s"][0] / base["end_to_end"]["wall_s"][0] - 1.0, "frac")
        print("train breakdown (self ms under cli.train): "
              + json.dumps({k: round(v, 1) for k, v in traced["train_breakdown_ms"].items()}))
        print(f"trace: {trace_out.relative_to(CHECKOUT)}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    bad_unit = [m["name"] for m in wanted if m["name"] in metrics and metrics[m["name"]][1] != m["unit"]]
    if missing or bad_unit:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: missing {missing}, unit {bad_unit}")

    failed = [op for op in ops if not op[1]]
    for name, _ok, detail in failed:
        print(f"FAILED: {name} {detail}".rstrip(), file=sys.stderr)
    env = dict(base["env"], git_commit=git_commit(), source_digest=key.rsplit("|", 1)[1])
    print("env: " + json.dumps(env, sort_keys=True))
    print("work: " + json.dumps(base["work"], sort_keys=True))
    print("stage seconds, each repetition: " + json.dumps(base["stage_reps_s"]))
    print(f"fingerprint: {base['fingerprint']} " + json.dumps(base["fingerprint_files"], sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
