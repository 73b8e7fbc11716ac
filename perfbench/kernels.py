"""Per-layer kernel table at the training batch size, through the public API.

Each entry is timed as the median of several repetitions after a
warm-up.  Operation counts and bytes moved are *computed* from the array
shapes (float64, every operand read once and every result written once),
not measured: they ignore cache behaviour and numpy's temporaries.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH = 80
F64 = 8


def _median_ms(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _conv_cost(n, cin, cout, k, lpad, lout, grad_w, grad_x):
    """(flops, bytes) of the forward einsum plus the requested adjoints."""
    mac = n * cout * cin * k * lout
    flop = 2 * mac
    nbytes = F64 * (n * cin * lpad + cout * cin * k + n * cout * lout)
    if grad_w:  # dW = g . windows
        flop += 2 * mac
        nbytes += F64 * (n * cout * lout + n * cin * lout * k + cout * cin * k)
    if grad_x:  # (N,C,L,k) tensor, then k strided scatter-adds
        flop += 2 * mac + n * cin * lout * k
        nbytes += F64 * (n * cout * lout + cout * cin * k + 2 * n * cin * lout * k + 2 * n * cin * lpad)
    return flop, nbytes


def _head_cost(n, c, length, d, classes, backward):
    flop = n * c * length + 2 * n * c * d + 2 * n * d * classes
    nbytes = F64 * (n * c * length + c * d + d * classes + n * (c + 2 * d + classes))
    if backward:
        flop += n * c * length + 4 * n * c * d + 4 * n * d * classes
        nbytes += F64 * (n * c * length + 2 * (c * d + d * classes) + 2 * n * (c + d + classes))
    return flop, nbytes


def kernel_table(reps: int = 15) -> dict[str, tuple[float, str]]:
    """``{metric name: (value, unit)}`` for every kernel in the table."""
    from densemble import autodiff as ad
    from densemble.attacks import AttackSpec, DEFAULT_SAP_KERNELS, pgd, sap
    from densemble.ensemble import AdamState, adam_step
    from densemble.fourier import apply_band, design_bank
    from densemble.model import ArchConfig, init_params

    arch = ArchConfig()
    params = init_params(arch, np.random.SeedSequence(0))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH, arch.input_length))
    y = rng.integers(0, arch.num_classes, BATCH)
    out: dict[str, tuple[float, str]] = {}

    def record(name, ms, cost):
        out[f"kernel.{name}_ms"] = (ms, "ms")
        out[f"kernel.{name}.flop_computed"] = (float(cost[0]), "flop")
        out[f"kernel.{name}.bytes_computed"] = (float(cost[1]), "B")

    # conv blocks, each on its real input (the previous block's output)
    h = x.reshape(BATCH, 1, -1)
    grad_macs = []  # input-gradient conv costs, reused by the attack steps
    for i, (c_out, k, stride) in enumerate(arch.conv_blocks):
        w = params.tensors[f"conv{i}.w"]
        pad = k // 2
        lout = (h.shape[2] + 2 * pad - k) // stride + 1
        dims = (BATCH, h.shape[1], c_out, k, h.shape[2] + 2 * pad, lout)

        def fwd(h=h, w=w, stride=stride, pad=pad):
            return ad.conv1d(ad.Tensor(h), ad.Tensor(w), stride=stride, pad=pad)

        # training never needs conv0's input gradient: its input is data
        grad_x = i > 0

        def fwdbwd(h=h, w=w, stride=stride, pad=pad, grad_x=grad_x):
            o = ad.conv1d(ad.Tensor(h, requires_grad=grad_x), ad.Tensor(w, requires_grad=True),
                          stride=stride, pad=pad)
            ad.mean(o).backward()

        record(f"conv{i}.fwd", _median_ms(fwd, reps), _conv_cost(*dims, False, False))
        record(f"conv{i}.fwdbwd", _median_ms(fwdbwd, reps), _conv_cost(*dims, True, grad_x))
        grad_macs.append(_conv_cost(*dims, False, True))
        h = np.maximum(fwd().data + params.tensors[f"conv{i}.b"][None, :, None], 0.0)

    # global pool + dense feature layer + head
    c, length = h.shape[1], h.shape[2]
    d, classes = arch.feature_dim, arch.num_classes
    pt_names = ("feat.w", "feat.b", "head.w", "head.b")

    def head(grad):
        hp = ad.Tensor(h, requires_grad=grad)
        pt = {n: ad.Tensor(params.tensors[n], requires_grad=grad) for n in pt_names}
        feats = ad.relu(ad.add(ad.matmul(ad.mean(hp, axis=2), pt["feat.w"]), pt["feat.b"]))
        logits = ad.add(ad.matmul(feats, pt["head.w"]), pt["head.b"])
        if grad:
            ad.softmax_cross_entropy(logits, y).backward()

    record("head.fwd", _median_ms(lambda: head(False), reps),
           _head_cost(BATCH, c, length, d, classes, False))
    record("head.fwdbwd", _median_ms(lambda: head(True), reps),
           _head_cost(BATCH, c, length, d, classes, True))

    # decorrelation regression: (80, 64) features against a (80, 50) projection
    zr = rng.standard_normal((BATCH, d))
    zt = rng.standard_normal((BATCH, 50))
    m, p, q = BATCH, d + 1, 50
    lsq_flop = 4 * m * p * p + 22 * p ** 3 + 4 * m * p * q + 2 * p * p * q + 3 * m * q
    lsq_bytes = F64 * (2 * m * p + p * p + 2 * m * q + p * q + m * p)

    def lsq(grad):
        ss_res, ss_tot = ad.least_squares_residual(
            ad.Tensor(zr, requires_grad=grad), ad.Tensor(zt, requires_grad=grad))
        if grad:
            ad.add(ss_res, ss_tot).backward()

    record("lstsq.fwd", _median_ms(lambda: lsq(False), reps), (lsq_flop, lsq_bytes))
    record("lstsq.fwdbwd", _median_ms(lambda: lsq(True), reps),
           (lsq_flop + 2 * m * q * p + 4 * m * q, lsq_bytes + F64 * 3 * (m * p + m * q)))

    # one band of the two-band ring filter bank (real FFT of the next power of two)
    bank = design_bank(512, 0.2, 0.05)
    nfft = bank.length
    fft_flop = 2.5 * nfft * np.log2(nfft)
    record("apply_band", _median_ms(lambda: apply_band(bank, 0, x), reps),
           (BATCH * (2 * fft_flop + 3 * (nfft // 2 + 1)),
            F64 * BATCH * (2 * x.shape[1] + 4 * (nfft // 2 + 1))))

    # one Adam update of every parameter tensor
    grads = {n: rng.standard_normal(v.shape) for n, v in params.tensors.items()}
    work = params.copy()
    state = AdamState.init(work.tensors)
    nparam = sum(v.size for v in work.tensors.values())
    record("adam_step", _median_ms(lambda: adam_step(work.tensors, grads, state, 1e-9), reps),
           (14 * nparam, F64 * 7 * nparam))

    # one attack step: forward + input gradient through the whole network
    head_flop, head_bytes = _head_cost(BATCH, c, length, d, classes, True)
    step_flop = head_flop + sum(g[0] for g in grad_macs)
    step_bytes = head_bytes + sum(g[1] for g in grad_macs)
    record("pgd_step", _median_ms(lambda: pgd(params, x, y, AttackSpec.make("pgd", 0.5, steps=1)), reps),
           (step_flop, step_bytes))
    L = arch.input_length
    smooth = [_conv_cost(BATCH, 1, 1, s, L + s - 1, L, False, True) for s, _ in DEFAULT_SAP_KERNELS]
    record("sap_step", _median_ms(lambda: sap(params, x, y, AttackSpec.make("sap", 0.5, steps=1)), reps),
           (step_flop + sum(s[0] for s in smooth), step_bytes + sum(s[1] for s in smooth)))
    return out
