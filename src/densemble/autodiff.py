"""Reverse-mode automatic differentiation on numpy arrays.

A small dynamic-graph engine: every op returns a :class:`Tensor` that
remembers its parents and a closure turning its own adjoint into parent
adjoints.  All values are float64.  Finiteness is checked at the edges
(leaves here, logits and features in ``model.forward``, gradients in
``adam_step`` and the attack step), so a diverging computation fails
loudly instead of silently producing NaN parameters.  ``.grad`` may alias
another node's adjoint (``add`` hands one array to both parents, ``mean``
a read-only view), so no adjoint is ever written in place.  Dense kernels
(matmul, SVD, FFT) are numpy's.  Convolution runs as im2col GEMMs whose
operand order and output layout fix the summation order, so its bytes do
not depend on numpy's einsum path choice.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor",
    "add",
    "sub",
    "scale",
    "relu",
    "log",
    "reshape",
    "mean",
    "l2norm_sq",
    "matmul",
    "conv1d",
    "softmax_cross_entropy",
    "least_squares_residual",
    "fft",
    "ifft",
    "next_pow2",
]


class Tensor:
    """One node of the computation graph.

    Leaves are built directly (``Tensor(data, requires_grad=True)`` for
    trainable values); interior nodes are built by the ops below.
    ``backward()`` may only be called on a scalar and fills ``.grad`` on
    every reachable node that requires gradients.  Nodes that do not
    require gradients (frozen features, constants) never receive an
    adjoint.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        if not parents and not np.all(np.isfinite(arr)):
            raise FloatingPointError("non-finite values entering the graph")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar output through the whole graph."""
        if self.data.size != 1:
            raise ValueError("backward() is only defined for scalar outputs")
        # Iterative post-order walk; each node appears exactly once.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return Tensor(a.data - b.data, parents=(a, b), backward_fn=bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(c * g)

    return Tensor(c * x.data, parents=(x,), backward_fn=bw)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor(np.where(mask, x.data, 0.0), parents=(x,), backward_fn=bw)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise ValueError("log of non-positive argument")
    inv = 1.0 / x.data

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * inv)

    return Tensor(np.log(x.data), parents=(x,), backward_fn=bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return Tensor(x.data.reshape(shape), parents=(x,), backward_fn=bw)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean over all elements (axis=None) or a single axis."""
    if axis is None:
        cnt = x.data.size

        def bw(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(np.full_like(x.data, float(g) / cnt))

        return Tensor(x.data.mean(), parents=(x,), backward_fn=bw)

    ax = axis % x.data.ndim
    cnt = x.data.shape[ax]

    def bw_ax(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to(np.expand_dims(g, ax) / cnt, x.shape))

    return Tensor(x.data.mean(axis=ax), parents=(x,), backward_fn=bw_ax)


def l2norm_sq(x: Tensor) -> Tensor:
    val = float(np.sum(x.data * x.data))

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(2.0 * float(g) * x.data)

    return Tensor(val, parents=(x,), backward_fn=bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, parents=(a, b), backward_fn=bw)


def conv1d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Batched 1-D cross-correlation: x (N,C,L) with kernels w (C',C,k)."""
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError("conv1d expects x (N,C,L) and w (C',C,k)")
    n, c, length = x.shape
    c_out, c_in, k = w.shape
    if c_in != c:
        raise ValueError(f"conv1d channel mismatch: input {c}, kernel {c_in}")
    if stride < 1 or pad < 0:
        raise ValueError("conv1d needs stride >= 1 and pad >= 0")
    if k > length + 2 * pad:
        raise ValueError("conv1d kernel longer than padded input")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad))) if pad else x.data
    win = sliding_window_view(xp, k, axis=2)[:, :, ::stride]  # (n,c,Lout,k)
    l_out, lp = win.shape[2], xp.shape[2]
    cols = win.transpose(1, 3, 0, 2).reshape(c * k, n * l_out)  # im2col, (c*k, n*Lout)
    out = (w.data.reshape(c_out, c * k) @ cols).reshape(c_out, n, l_out).transpose(1, 0, 2)
    if not w.requires_grad:
        cols = None  # only the weight adjoint reads it; the graph need not hold it

    def bw(g: np.ndarray) -> None:
        if w.requires_grad:
            gw = cols @ g.transpose(0, 2, 1).reshape(n * l_out, c_out)
            w._accumulate(gw.reshape(c, k, c_out).transpose(2, 0, 1))
        if x.requires_grad:
            wt = w.data.transpose(1, 2, 0).reshape(c * k, c_out)
            t = (wt @ g.transpose(1, 0, 2).reshape(c_out, n * l_out)).reshape(c, k, n, l_out)
            gxp = np.zeros((n, c, lp))
            for i in range(k):
                gxp[:, :, i : i + stride * l_out : stride] += t[:, i].transpose(1, 0, 2)
            x._accumulate(gxp[:, :, pad : pad + length] if pad else gxp)

    return Tensor(out, parents=(x, w), backward_fn=bw)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class over a batch."""
    y = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("softmax_cross_entropy expects logits (N,C)")
    n, c = logits.shape
    if y.shape != (n,) or not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be an integer vector matching the batch")
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"label out of range [0, {c})")

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    sm = ez / ez.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(ez.sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(n), y]))

    def bw(g: np.ndarray) -> None:
        if logits.requires_grad:
            gz = sm.copy()
            gz[np.arange(n), y] -= 1.0
            logits._accumulate(float(g) * gz / n)

    return Tensor(loss, parents=(logits,), backward_fn=bw)


# Relative cut-off of the least-squares pseudo-inverse's singular values.
LSTSQ_RCOND = 1e-10


def least_squares_residual(zr: Tensor, zt: Tensor) -> tuple[Tensor, Tensor]:
    """Residual and total sum of squares of regressing zt on [zr, 1].

    An intercept column is appended to the regressor internally; the fit
    uses an SVD pseudo-inverse with singular values below
    ``LSTSQ_RCOND * s_max`` dropped, so near-collinear feature batches stay
    well behaved.  Both outputs are differentiable with respect to both
    arguments (the adjoint uses the orthogonal-projector differential,
    exact at locally constant rank).
    """
    if zr.ndim != 2 or zt.ndim != 2:
        raise ValueError("least_squares_residual expects 2-D matrices")
    n, p = zr.shape
    if zt.shape[0] != n:
        raise ValueError(f"row mismatch: regressor {n}, target {zt.shape[0]}")
    if n <= p + 1:
        raise ValueError(f"underdetermined regression: need N > P+1, got N={n}, P={p}")

    zb = np.concatenate([zr.data, np.ones((n, 1))], axis=1)
    u, s, vt = np.linalg.svd(zb, full_matrices=False)
    keep = s > s[0] * LSTSQ_RCOND
    ut_zt = u.T @ zt.data
    coef = vt[keep].T @ (ut_zt[keep] / s[keep, None])  # (p+1, q)
    resid = zt.data - zb @ coef
    ss_res_val = float(np.sum(resid * resid))
    ss_tot_val = float(np.sum(zt.data * zt.data))

    def bw_res(g: np.ndarray) -> None:
        gs = float(g)
        if zt.requires_grad:
            zt._accumulate(2.0 * gs * resid)
        if zr.requires_grad:
            zr._accumulate(-2.0 * gs * (resid @ coef.T)[:, :p])

    def bw_tot(g: np.ndarray) -> None:
        if zt.requires_grad:
            zt._accumulate(2.0 * float(g) * zt.data)

    ss_res = Tensor(ss_res_val, parents=(zr, zt), backward_fn=bw_res)
    ss_total = Tensor(ss_tot_val, parents=(zt,), backward_fn=bw_tot)
    return ss_res, ss_total


def fft(x) -> np.ndarray:
    return np.fft.fft(np.asarray(x))


def ifft(spectrum) -> np.ndarray:
    return np.fft.ifft(np.asarray(spectrum))


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("next_pow2 needs n >= 1")
    p = 1
    while p < n:
        p <<= 1
    return p
