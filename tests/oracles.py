"""Independent reference computations shared by the test modules, and
the traced-peak measurement that their memory ceilings use.

Everything here deliberately avoids the library's own backward passes:
gradients come from central finite differences, regressions from the
normal equations, metrics from brute-force counting.
"""

from __future__ import annotations

import tracemalloc

import numpy as np


def central_diff_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        g.ravel()[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference scaled by the reference's max magnitude."""
    a, b = np.asarray(a), np.asarray(b)
    denom = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / denom


def normal_equations_residual(zr: np.ndarray, zt: np.ndarray) -> tuple[float, float]:
    """SS_res / SS_total via the normal equations (solve, not SVD)."""
    n = zr.shape[0]
    zb = np.concatenate([zr, np.ones((n, 1))], axis=1)
    beta = np.linalg.solve(zb.T @ zb, zb.T @ zt)
    resid = zt - zb @ beta
    return float(np.sum(resid**2)), float(np.sum(zt**2))


def softmax_ce_direct(logits: np.ndarray, labels: np.ndarray) -> float:
    """Cross entropy straight from the definition, one sample at a time."""
    total = 0.0
    for row, label in zip(logits, labels):
        p = np.exp(row - row.max())
        p = p / p.sum()
        total += -np.log(p[label])
    return total / len(labels)


def ensemble_metrics_bruteforce(correct: np.ndarray) -> dict[str, float]:
    """Count-based ensemble metrics from an (arms, samples) bool matrix."""
    arms, n = correct.shape
    out = {"average": float(correct.sum()) / (arms * n)}
    for x in range(1, arms + 1):
        count = 0
        for j in range(n):
            if sum(int(correct[a, j]) for a in range(arms)) >= x:
                count += 1
        out[f"p{x}"] = count / n
    return out


def adam_reference_step(p, g, m, v, t, lr, b1, b2, eps):
    """One textbook bias-corrected Adam update; returns (p, m, v)."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def conv1d_direct(x: np.ndarray, w: np.ndarray, stride: int, pad: int, g: np.ndarray):
    """Cross-correlation of x (N,C,L) with w (C',C,k) and its adjoints for the
    upstream g (N,C',Lout), one output position and kernel tap at a time;
    returns (out, grad_x, grad_w)."""
    length, k = x.shape[2], w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    l_out = (length + 2 * pad - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], l_out))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for pos in range(l_out):
        for tap in range(k):
            col = xp[:, :, pos * stride + tap]  # (N, C)
            out[:, :, pos] += col @ w[:, :, tap].T
            gw[:, :, tap] += g[:, :, pos].T @ col
            gxp[:, :, pos * stride + tap] += g[:, :, pos] @ w[:, :, tap]
    return out, gxp[:, :, pad : pad + length], gw


def smooth_mean_direct(rows: np.ndarray, kernels) -> np.ndarray:
    """SAP's rendering from its definition: each row put through every
    kernel as its own same-length convolution, then the M results averaged."""
    return np.stack([
        np.mean([np.convolve(row, k, mode="same") for k in kernels], axis=0) for row in rows
    ])


def assert_traced_peak(what: str, fn, ceiling: int) -> None:
    """Run `fn` once so first-call allocations are not counted, then again
    under tracemalloc: its peak above the start must not exceed `ceiling` B."""
    fn()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= ceiling, (f"traced peak of {what}: {peak:,} B, ceiling {ceiling:,} B "
                             f"(numpy {np.__version__})")
