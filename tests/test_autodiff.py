import numpy as np
import pytest

from densemble import autodiff as ad
from densemble.fourier import apply_band, design_bank

from oracles import (
    central_diff_grad,
    conv1d_direct,
    normal_equations_residual,
    rel_err,
    softmax_ce_direct,
)


class TestMatmul:
    def test_identity(self):
        b = np.arange(9, dtype=float).reshape(3, 3)
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(b))
        assert np.array_equal(out.data, b)

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a0 = rng.normal(size=(5, 4))
        b0 = rng.normal(size=(4, 3))

        a = ad.Tensor(a0, requires_grad=True)
        b = ad.Tensor(b0, requires_grad=True)
        ad.l2norm_sq(ad.matmul(a, b)).backward()

        fd_a = central_diff_grad(
            lambda v: ad.l2norm_sq(ad.matmul(ad.Tensor(v), ad.Tensor(b0))).item(), a0
        )
        fd_b = central_diff_grad(
            lambda v: ad.l2norm_sq(ad.matmul(ad.Tensor(a0), ad.Tensor(v))).item(), b0
        )
        assert rel_err(a.grad, fd_a) < 1e-6
        assert rel_err(b.grad, fd_b) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


class TestConv1d:
    def test_unit_impulse_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 9))
        out = ad.conv1d(ad.Tensor(x), ad.Tensor(np.ones((1, 1, 1))), stride=1, pad=0)
        assert np.allclose(out.data, x)

    def test_hand_arithmetic(self):
        out = ad.conv1d(ad.Tensor([[[1.0, 2.0, 3.0]]]), ad.Tensor([[[1.0, 1.0]]]), stride=1, pad=0)
        assert np.array_equal(out.data, [[[3.0, 5.0]]])

    def test_output_length(self):
        x = ad.Tensor(np.zeros((1, 1, 10)))
        w = ad.Tensor(np.zeros((2, 1, 3)))
        assert ad.conv1d(x, w, stride=2, pad=1).shape == (1, 2, 5)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 2), (3, 1)])
    def test_gradient_vs_finite_differences(self, stride, pad):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(2, 1, 16))
        w0 = rng.normal(size=(3, 1, 5))

        x = ad.Tensor(x0, requires_grad=True)
        w = ad.Tensor(w0, requires_grad=True)
        ad.l2norm_sq(ad.conv1d(x, w, stride=stride, pad=pad)).backward()

        def loss_x(v):
            return ad.l2norm_sq(ad.conv1d(ad.Tensor(v), ad.Tensor(w0), stride, pad)).item()

        def loss_w(v):
            return ad.l2norm_sq(ad.conv1d(ad.Tensor(x0), ad.Tensor(v), stride, pad)).item()

        assert rel_err(x.grad, central_diff_grad(loss_x, x0)) < 1e-6
        assert rel_err(w.grad, central_diff_grad(loss_w, w0)) < 1e-6

    # (N, C, L, C', k, stride, pad): the default model's three blocks, SAP's
    # smoothing kernels and a batch of one
    SHAPES = [
        (3, 1, 512, 8, 7, 2, 3),
        (3, 8, 256, 16, 7, 2, 3),
        (3, 16, 128, 32, 5, 2, 2),
        *[(3, 1, 512, 1, k, 1, (k - 1) // 2) for k in (5, 9, 13, 17, 21)],
        (1, 8, 256, 16, 7, 2, 3),
        (1, 1, 512, 1, 9, 1, 4),
    ]

    @pytest.mark.parametrize("n,c,length,c_out,k,stride,pad", SHAPES)
    @pytest.mark.parametrize("w_grad", [True, False])
    def test_matches_direct_loops(self, n, c, length, c_out, k, stride, pad, w_grad):
        rng = np.random.default_rng(k * 100 + c)
        x0 = rng.normal(size=(n, c, length))
        w0 = rng.normal(size=(c_out, c, k))
        x = ad.Tensor(x0, requires_grad=True)
        w = ad.Tensor(w0, requires_grad=w_grad)
        out = ad.conv1d(x, w, stride=stride, pad=pad)
        ad.l2norm_sq(out).backward()  # upstream adjoint 2 * out
        ref, ref_gx, ref_gw = conv1d_direct(x0, w0, stride, pad, 2.0 * out.data)
        assert rel_err(out.data, ref) < 1e-12
        assert rel_err(x.grad, ref_gx) < 1e-12
        if w_grad:
            assert rel_err(w.grad, ref_gw) < 1e-12
        else:
            assert w.grad is None

    # (C, L, C', k, stride, pad): the default model's three blocks and one stride-1 block
    BLOCKS = [(1, 512, 8, 7, 2, 3), (8, 256, 16, 7, 2, 3), (16, 128, 32, 5, 2, 2),
              (8, 64, 8, 3, 1, 1)]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("n", [2, 45, 80, 90])
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("pool", [False, True])
    def test_conv_relu_bytes_equal_separate_ops(self, block, n, x_grad, pool):
        # the fused block gives the bytes of conv1d, bias add and ReLU run
        # apart, for its output and every adjoint, whether the adjoint comes
        # from a pooled head (a broadcast view) or straight from the output
        c, length, c_out, k, stride, pad = block
        rng = np.random.default_rng(n * 10 + c)
        x0, w0, b0 = (rng.normal(size=s) for s in ((n, c, length), (c_out, c, k), (c_out,)))
        results = []
        for fused in (False, True):
            x = ad.Tensor(x0, requires_grad=x_grad)
            w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
            if fused:
                h = ad.conv_relu(x, w, b, stride=stride, pad=pad)
            else:
                h = ad.relu(ad.add(ad.conv1d(x, w, stride=stride, pad=pad),
                                   ad.reshape(b, (1, c_out, 1))))
            ad.l2norm_sq(ad.mean(h, axis=2) if pool else h).backward()
            results.append([h.data.tobytes(), w.grad.tobytes(), b.grad.tobytes(),
                            x.grad.tobytes() if x_grad else x.grad])
        assert results[0] == results[1]

    def test_kernel_too_long(self):
        with pytest.raises(ValueError):
            ad.conv1d(ad.Tensor(np.zeros((1, 1, 4))), ad.Tensor(np.zeros((1, 1, 7))), stride=1,
                      pad=1)


# The ops whose node has one parent, so it needs a gradient exactly when
# its input does; on a (3, 4) input of positive values.
SINGLE_PARENT_OPS = {
    "scale": lambda x: ad.scale(x, 2.0),
    "relu": ad.relu,
    "log": ad.log,
    "reshape": lambda x: ad.reshape(x, (4, 3)),
    "mean": ad.mean,
    "mean_axis": lambda x: ad.mean(x, axis=1),
    "l2norm_sq": ad.l2norm_sq,
    "softmax_cross_entropy": lambda x: ad.softmax_cross_entropy(x, np.arange(3)),
    "apply_band": lambda x: apply_band(design_bank(4, 0.25, 0.0), 0, x),
}


class TestScalarOps:
    def test_relu(self):
        out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_bytes_and_mask(self):
        # every non-positive input, -0.0 included, becomes +0.0, as
        # np.where(x > 0, x, 0.0) gives; the adjoint passes only where out > 0
        x0 = np.array([-0.0, 0.0, -1.5, 2.0, 1e-300, -1e-300])
        x = ad.Tensor(x0, requires_grad=True)
        out = ad.relu(x)
        assert out.data.tobytes() == np.where(x0 > 0, x0, 0.0).tobytes()
        ad.l2norm_sq(out).backward()
        assert x.grad.tobytes() == (2.0 * np.where(x0 > 0, x0, 0.0)).tobytes()

    def test_l2norm_sq(self):
        assert ad.l2norm_sq(ad.Tensor([3.0, 4.0])).item() == 25.0

    def test_log_gradient_at_two(self):
        x = ad.Tensor([2.0], requires_grad=True)
        ad.mean(ad.log(x)).backward()
        assert abs(x.grad[0] - 0.5) < 1e-12
        fd = central_diff_grad(lambda v: ad.mean(ad.log(ad.Tensor(v))).item(), np.array([2.0]))
        assert rel_err(x.grad, fd) < 1e-8

    @pytest.mark.parametrize("axis", [None, 0, 1, 2])
    def test_mean_gradient(self, axis):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(2, 3, 4))
        x = ad.Tensor(x0, requires_grad=True)
        ad.l2norm_sq(ad.mean(x, axis=axis)).backward()
        fd = central_diff_grad(
            lambda v: ad.l2norm_sq(ad.mean(ad.Tensor(v), axis=axis)).item(), x0
        )
        assert rel_err(x.grad, fd) < 1e-5

    def test_add_broadcast_gradient(self):
        rng = np.random.default_rng(4)
        a0 = rng.normal(size=(4, 3))
        b0 = rng.normal(size=(3,))
        a = ad.Tensor(a0, requires_grad=True)
        b = ad.Tensor(b0, requires_grad=True)
        ad.l2norm_sq(ad.add(a, b)).backward()
        fd_b = central_diff_grad(
            lambda v: ad.l2norm_sq(ad.add(ad.Tensor(a0), ad.Tensor(v))).item(), b0
        )
        assert rel_err(b.grad, fd_b) < 1e-6

    def test_adjoint_linearity(self):
        # backward of a weighted sum of losses == weighted sum of backwards
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(6,)) + 2.0

        x = ad.Tensor(x0, requires_grad=True)
        ad.add(ad.scale(ad.l2norm_sq(x), 0.3), ad.scale(ad.mean(ad.log(x)), 1.7)).backward()
        combined = x.grad.copy()

        x1 = ad.Tensor(x0, requires_grad=True)
        ad.l2norm_sq(x1).backward()
        x2 = ad.Tensor(x0, requires_grad=True)
        ad.mean(ad.log(x2)).backward()
        assert np.allclose(combined, 0.3 * x1.grad + 1.7 * x2.grad, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            ad.Tensor([np.inf, 1.0])

    def test_shared_adjoint_is_never_written_in_place(self):
        # add() hands one adjoint array to both parents; a second adjoint
        # into `a` must not change what `b` received
        a = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = ad.Tensor([10.0, 20.0, 30.0], requires_grad=True)
        v = ad.add(ad.add(a, b), a)  # 2a + b
        ad.l2norm_sq(v).backward()
        assert np.array_equal(b.grad, 2.0 * v.data)
        assert np.array_equal(a.grad, 4.0 * v.data)

    def test_diamond_graph_visits_each_node_once(self):
        # both edges of add() feed the same parent: adjoints accumulate,
        # and the shared node's backward runs exactly once
        x = ad.Tensor([2.0], requires_grad=True)
        ad.l2norm_sq(ad.add(x, x)).backward()  # d/dx (2x)^2 = 8x
        assert x.grad[0] == 16.0

    def test_backward_frees_interior_adjoints(self):
        # once backward has passed an interior node's adjoint on, the node
        # holds neither it, its closure nor its parents; leaves keep their
        # gradients.  The conv block runs as separate ops, then fused.
        rng = np.random.default_rng(6)
        for fused, count in ((False, 6), (True, 4)):
            x = ad.Tensor(rng.normal(size=(3, 2, 9)), requires_grad=True)
            w = ad.Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
            head = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            const = ad.Tensor(rng.normal(size=4))
            if fused:
                h = ad.conv_relu(x, w, const, stride=2, pad=1)
            else:
                h = ad.relu(ad.add(ad.conv1d(x, w, stride=2, pad=1), ad.reshape(const, (1, 4, 1))))
            loss = ad.softmax_cross_entropy(ad.matmul(ad.mean(h, axis=2), head),
                                            np.array([0, 2, 1]))
            interior, stack = [], [loss]
            while stack:
                node = stack.pop()
                if node._parents and all(node is not seen for seen in interior):
                    interior.append(node)
                    stack.extend(node._parents)
            loss.backward()
            # conv1d, add, relu or conv_relu; then mean, matmul, cross entropy
            assert len(interior) == count
            for node in interior:
                assert node.grad is None and node._backward_fn is None and node._parents == ()
            for leaf in (x, w, head):
                assert leaf.grad is not None and leaf.grad.shape == leaf.shape
            assert const.grad is None

    @pytest.mark.parametrize("op", SINGLE_PARENT_OPS.values(), ids=SINGLE_PARENT_OPS.keys())
    def test_single_parent_closure_only_when_the_input_needs_a_gradient(self, op):
        # so a closure that runs may take its input's gradient without asking
        x0 = np.arange(1.0, 13.0).reshape(3, 4)
        assert op(ad.Tensor(x0))._backward_fn is None
        assert op(ad.Tensor(x0, requires_grad=True))._backward_fn is not None


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(ad.Tensor(np.zeros((2, 3))), np.array([0, 2]))
        assert abs(loss.item() - np.log(3)) < 1e-12

    def test_confident_correct_logit(self):
        logits = np.array([[20.0, 0.0, 0.0]])
        loss = ad.softmax_cross_entropy(ad.Tensor(logits), np.array([0]))
        assert loss.item() < 1e-8

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(4, 3)) * 3
        labels = rng.integers(0, 3, size=4)
        loss = ad.softmax_cross_entropy(ad.Tensor(logits), labels)
        assert abs(loss.item() - softmax_ce_direct(logits, labels)) < 1e-10 * max(
            1.0, abs(loss.item())
        )

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        logits0 = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        logits = ad.Tensor(logits0, requires_grad=True)
        ad.softmax_cross_entropy(logits, labels).backward()
        fd = central_diff_grad(
            lambda v: ad.softmax_cross_entropy(ad.Tensor(v), labels).item(), logits0
        )
        assert rel_err(logits.grad, fd) < 1e-5


class TestFFT:
    def test_impulse_spectrum(self):
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(ad.fft(x), np.ones(16))

    def test_constant_spectrum(self):
        c = 2.5
        spec = ad.fft(np.full(8, c))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 8 * c
        assert np.allclose(spec, expected, atol=1e-12)

    def test_roundtrip(self):
        x = np.random.default_rng(12).normal(size=256)
        back = ad.ifft(ad.fft(x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_parseval(self):
        x = np.random.default_rng(13).normal(size=200)
        lhs = float(np.sum(x**2))
        rhs = float(np.sum(np.abs(ad.fft(x)) ** 2)) / len(x)
        assert abs(lhs - rhs) / lhs < 1e-9

    def test_next_pow2(self):
        assert [ad.next_pow2(n) for n in (1, 2, 3, 512, 513)] == [1, 2, 4, 512, 1024]


class TestLeastSquaresResidual:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(20)
        zr = rng.normal(size=(25, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        zt = zr @ w + b
        ss_res, ss_tot = ad.least_squares_residual(ad.Tensor(zr), ad.Tensor(zt))
        assert ss_res.item() < 1e-16 * ss_tot.item()

    def test_intercept_only_on_centered_target(self):
        rng = np.random.default_rng(21)
        zt = rng.normal(size=(15, 3))
        zt -= zt.mean(axis=0)
        ss_res, ss_tot = ad.least_squares_residual(ad.Tensor(np.zeros((15, 2))), ad.Tensor(zt))
        assert abs(ss_res.item() - ss_tot.item()) < 1e-10 * ss_tot.item()
        assert abs(ss_tot.item() - np.sum(zt**2)) < 1e-12 * ss_tot.item()

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(22)
        zr = rng.normal(size=(20, 3))
        zt = rng.normal(size=(20, 2))
        ss_res, ss_tot = ad.least_squares_residual(ad.Tensor(zr), ad.Tensor(zt))
        oracle_res, oracle_tot = normal_equations_residual(zr, zt)
        assert abs(ss_res.item() - oracle_res) / oracle_res < 1e-8
        assert abs(ss_tot.item() - oracle_tot) / oracle_tot < 1e-8

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(23)
        zr0 = rng.normal(size=(20, 3))
        zt0 = rng.normal(size=(20, 2))

        def loss(zrv, ztv):
            ss_res, ss_tot = ad.least_squares_residual(ad.Tensor(zrv), ad.Tensor(ztv))
            return ad.add(ad.scale(ss_res, 0.6), ad.scale(ss_tot, 0.4))

        zr = ad.Tensor(zr0, requires_grad=True)
        zt = ad.Tensor(zt0, requires_grad=True)
        ss_res, ss_tot = ad.least_squares_residual(zr, zt)
        ad.add(ad.scale(ss_res, 0.6), ad.scale(ss_tot, 0.4)).backward()

        fd_zr = central_diff_grad(lambda v: loss(v, zt0).item(), zr0)
        fd_zt = central_diff_grad(lambda v: loss(zr0, v).item(), zt0)
        assert rel_err(zr.grad, fd_zr) < 1e-5
        assert rel_err(zt.grad, fd_zt) < 1e-5

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            ad.least_squares_residual(ad.Tensor(np.ones((4, 3))), ad.Tensor(np.ones((4, 1))))

    def test_projection_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            zr = rng.normal(size=(12, 3))
            zt = rng.normal(size=(12, 2))
            ss_res, ss_tot = ad.least_squares_residual(ad.Tensor(zr), ad.Tensor(zt))
            assert 0.0 <= ss_res.item() <= ss_tot.item() + 1e-12

    def test_rank_deficient_regressor(self):
        # duplicated column: SVD cutoff keeps the fit finite and valid
        rng = np.random.default_rng(25)
        col = rng.normal(size=(18, 1))
        zr = np.concatenate([col, col, rng.normal(size=(18, 1))], axis=1)
        zt = rng.normal(size=(18, 2))
        ss_res, ss_tot = ad.least_squares_residual(ad.Tensor(zr), ad.Tensor(zt))
        assert 0.0 <= ss_res.item() <= ss_tot.item() + 1e-12
