"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-7 read the artifacts of the shared end-to-end pipeline run
(see conftest.pipeline); criteria 1-2 are self-contained and fast.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from densemble import autodiff as ad
from densemble.attacks import AttackSpec, load_attacked_set, pgd, sap
from densemble.autodiff import Tensor, next_pow2
from densemble.fourier import apply_band, band_energy, design_bank
from densemble.model import load_params

from conftest import KINDS, run_cli
from oracles import central_diff_grad, normal_equations_residual, rel_err


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_1_numerical_core():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0

    # matmul
    a0, b0 = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    ad.l2norm_sq(ad.matmul(a, b)).backward()
    worst = max(worst, rel_err(a.grad, central_diff_grad(
        lambda v: ad.l2norm_sq(ad.matmul(Tensor(v), Tensor(b0))).item(), a0)))
    worst = max(worst, rel_err(b.grad, central_diff_grad(
        lambda v: ad.l2norm_sq(ad.matmul(Tensor(a0), Tensor(v))).item(), b0)))

    # conv1d
    x0, w0 = rng.normal(size=(2, 1, 16)), rng.normal(size=(3, 1, 5))
    x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
    ad.l2norm_sq(ad.conv1d(x, w, stride=2, pad=2)).backward()
    worst = max(worst, rel_err(x.grad, central_diff_grad(
        lambda v: ad.l2norm_sq(ad.conv1d(Tensor(v), Tensor(w0), 2, 2)).item(), x0)))
    worst = max(worst, rel_err(w.grad, central_diff_grad(
        lambda v: ad.l2norm_sq(ad.conv1d(Tensor(x0), Tensor(v), 2, 2)).item(), w0)))

    # scalar ops: relu (away from the kink), log, mean, add, scale
    s0 = rng.normal(size=(12,)) + np.sign(rng.normal(size=12)) * 0.5
    s = Tensor(s0, requires_grad=True)
    ad.l2norm_sq(ad.relu(s)).backward()
    worst = max(worst, rel_err(s.grad, central_diff_grad(
        lambda v: ad.l2norm_sq(ad.relu(Tensor(v))).item(), s0)))
    p0 = np.abs(rng.normal(size=(8,))) + 0.5
    p = Tensor(p0, requires_grad=True)
    ad.mean(ad.log(p)).backward()
    worst = max(worst, rel_err(p.grad, central_diff_grad(
        lambda v: ad.mean(ad.log(Tensor(v))).item(), p0)))

    # softmax cross entropy
    l0 = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    lt = Tensor(l0, requires_grad=True)
    ad.softmax_cross_entropy(lt, labels).backward()
    worst = max(worst, rel_err(lt.grad, central_diff_grad(
        lambda v: ad.softmax_cross_entropy(Tensor(v), labels).item(), l0)))

    # least squares: gradients plus the normal-equations oracle
    zr0, zt0 = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
    zr, zt = Tensor(zr0, requires_grad=True), Tensor(zt0, requires_grad=True)
    ss_res, ss_tot = ad.least_squares_residual(zr, zt)
    ad.add(ad.scale(ss_res, 0.6), ad.scale(ss_tot, 0.4)).backward()

    def combo(zrv, ztv):
        r, t = ad.least_squares_residual(Tensor(zrv), Tensor(ztv))
        return 0.6 * r.item() + 0.4 * t.item()

    worst = max(worst, rel_err(zr.grad, central_diff_grad(lambda v: combo(v, zt0), zr0)))
    worst = max(worst, rel_err(zt.grad, central_diff_grad(lambda v: combo(zr0, v), zt0)))
    oracle_res, oracle_tot = normal_equations_residual(zr0, zt0)
    lsq_err = max(abs(ss_res.item() - oracle_res) / oracle_res,
                  abs(ss_tot.item() - oracle_tot) / oracle_tot)

    # fft roundtrip
    sig = rng.normal(size=256)
    fft_err = float(np.max(np.abs(ad.ifft(ad.fft(sig)) - sig)))

    elapsed = time.time() - t0
    ok = worst < 1e-5 and lsq_err < 1e-8 and fft_err < 1e-10 and elapsed < 60
    _report(1, "numerical core", ok,
            f"grad rel {worst:.1e}, lsq rel {lsq_err:.1e}, fft {fft_err:.1e}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_filter_bank():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    bank = design_bank(1024, 0.2, 0.05)

    partition_exact = all(
        np.all(design_bank(L, c, tw).responses[0] + design_bank(L, c, tw).responses[1] == 1.0)
        for L, c, tw in [(8, 0.25, 0.0), (1024, 0.2, 0.05), (64, 0.1, 0.02)]
    )

    worst_rec = 0.0
    for _ in range(100):
        x = rng.normal(size=rng.integers(100, 1024))
        rec = apply_band(bank, 0, x) + apply_band(bank, 1, x)
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - x)) / np.max(np.abs(x))))

    x0 = rng.normal(size=(2, 600))
    xg = Tensor(x0, requires_grad=True)
    ad.l2norm_sq(apply_band(bank, 1, xg)).backward()
    grad_err = rel_err(xg.grad, central_diff_grad(
        lambda v: ad.l2norm_sq(apply_band(bank, 1, Tensor(v))).item(), x0))

    elapsed = time.time() - t0
    ok = partition_exact and worst_rec < 1e-9 and grad_err < 1e-5 and elapsed < 10
    _report(2, "filter bank", ok,
            f"reconstruction {worst_rec:.1e}, adjoint grad {grad_err:.1e}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_attack_contracts(pipeline):
    t0 = time.time()
    root = pipeline["root"]
    with open(pipeline["config_path"]) as fh:
        cfg = json.load(fh)
    epsilons = [0.1, 0.25, 0.5, 1.0, 1.5]

    # budget holds on every stored pair, for both families and all cells
    budget_ok = True
    per_eps_fracs = []
    bank = design_bank(next_pow2(512), 0.2, 0.0)
    for i, eps in enumerate(epsilons):
        deltas = {}
        for fam in ("pgd", "sap"):
            aset = load_attacked_set(root / "atk" / f"{fam}_eps{i:02d}")
            d = aset.perturbed - aset.natural
            deltas[fam] = d
            if float(np.max(np.abs(d))) > eps + 1e-12:
                budget_ok = False
        e_pgd = band_energy(deltas["pgd"], bank)
        e_sap = band_energy(deltas["sap"], bank)
        alive = (e_pgd.sum(axis=1) > 0) & (e_sap.sum(axis=1) > 0)
        frac_pgd = e_pgd[alive, 1] / e_pgd[alive].sum(axis=1)
        frac_sap = e_sap[alive, 1] / e_sap[alive].sum(axis=1)
        per_eps_fracs.append(float(np.mean(frac_sap < frac_pgd)))
    smooth_frac = float(np.mean(per_eps_fracs))

    # zero-budget identity, rerun directly on the shared base arm
    arm0 = root / "ens" / "cor" / "arm0.params"
    base = load_params(arm0, arm0.read_bytes())
    aset = load_attacked_set(root / "atk" / "pgd_eps00")
    x, y = aset.natural[:6], aset.labels[:6]
    pgd_id = np.array_equal(pgd(base, x, y, AttackSpec.make("pgd", 0.0)), x)
    sap_id = np.array_equal(sap(base, x, y, AttackSpec.make("sap", 0.0)), x)

    elapsed = time.time() - t0
    ok = budget_ok and pgd_id and sap_id and smooth_frac >= 0.9 and elapsed < 120
    _report(3, "attack contracts", ok,
            f"budget {'ok' if budget_ok else 'VIOLATED'}, "
            f"SAP-smoother-than-PGD on {smooth_frac:.0%} of pairs, {elapsed:.1f}s")
    assert ok


def test_criterion_4_decorrelation_trend(pipeline):
    corr = pipeline["correlation"]
    cor_r2 = corr["cor"]["mean_offdiag"]
    dec_r2 = corr["dec"]["mean_offdiag"]
    gap = cor_r2 - dec_r2
    ok = gap >= 0.15
    _report(4, "decorrelation trend", ok,
            f"cor R2 {cor_r2:.3f} vs dec R2 {dec_r2:.3f}, gap {gap:.3f} >= 0.15")
    assert ok


def test_criterion_5_robustness_trend(pipeline):
    report = pipeline["report"]
    max_eps = max(float(r["epsilon"]) for r in report if r["attack"] != "none")

    def p1(kind, fam):
        row = next(r for r in report
                   if r["kind"] == kind and r["attack"] == fam
                   and float(r["epsilon"]) == max_eps)
        return float(row["p1"])

    gaps = {fam: p1("fdec", fam) - p1("cor", fam) for fam in ("pgd", "sap")}
    ordering_ok = all(
        float(r["p1"]) >= float(r["p2"]) >= float(r["p3"]) for r in report
    )
    runtime = sum(pipeline["timings"].values())
    train_ok = all(v < 15 * 60 for k, v in pipeline["timings"].items()
                   if k.startswith("train_"))
    ok = (all(g >= 0.10 for g in gaps.values()) and ordering_ok
          and runtime < 3600 and train_ok)
    _report(5, "robustness trend", ok,
            f"fdec-cor P(>=1) at eps={max_eps}: pgd +{gaps['pgd']:.2f}, "
            f"sap +{gaps['sap']:.2f} (need +0.10); pipeline {runtime:.0f}s")
    assert ok


def test_criterion_6_reduction_and_determinism(pipeline, tmp_path):
    # dec with weight 0 reproduces cor byte-for-byte
    cfg = {
        "data": {"num_classes": 2, "records_per_class": 12, "length": 64,
                  "seeds": {"synth": 21, "split": 22}},
        "arch": {"conv_blocks": [[4, 5, 2], [8, 3, 2]], "feature_dim": 8},
        "train": {"epochs": 3, "batch_size": 16, "seeds": {"init": 23, "shuffle": 24}},
        "decor": {"projection_dim": 5, "weight": 0.0, "seed": 25},
        "attack": {"epsilons": [0.1], "steps": 2},
        "output": {"root": str(tmp_path)},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("generate-data", "--config", str(cfg_path), "--out", "data") == 0
    assert run_cli("train", "--config", str(cfg_path), "--kind", "cor", "--out", "e") == 0
    assert run_cli("train", "--config", str(cfg_path), "--kind", "dec", "--out", "e") == 0
    reduction_ok = all(
        (tmp_path / "e" / "cor" / f"arm{k}.params").read_bytes()
        == (tmp_path / "e" / "dec" / f"arm{k}.params").read_bytes()
        for k in range(3)
    )

    # re-running a command reproduces artifacts byte-identically
    root = pipeline["root"]
    assert run_cli("evaluate", "--config", str(pipeline["config_path"]),
                   "--ensemble-dir", "ens", "--attacks", "atk",
                   "--out", "report_rerun/report.csv") == 0
    rerun_ok = (
        (root / "report" / "report.csv").read_bytes()
        == (root / "report_rerun" / "report.csv").read_bytes()
        and (root / "report" / "correlation.json").read_bytes()
        == (root / "report_rerun" / "correlation.json").read_bytes()
    )

    ok = reduction_ok and rerun_ok
    _report(6, "reduction and determinism", ok,
            f"weight-0 reduction {'byte-identical' if reduction_ok else 'DIFFERS'}, "
            f"evaluate rerun {'byte-identical' if rerun_ok else 'DIFFERS'}")
    assert ok


def test_criterion_7_natural_accuracy(pipeline):
    report = pipeline["report"]
    naturals = {r["kind"]: float(r["average"]) for r in report if r["attack"] == "none"}
    assert set(naturals) == set(KINDS)
    floor_ok = all(v >= 0.80 for v in naturals.values())
    cor_top = all(naturals["cor"] >= naturals[k] - 0.01 for k in ("dec", "fcor", "fdec"))
    ok = floor_ok and cor_top
    detail = ", ".join(f"{k} {v:.3f}" for k, v in sorted(naturals.items()))
    _report(7, "natural accuracy", ok, detail)
    assert ok
