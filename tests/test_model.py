import numpy as np
import pytest

from densemble import autodiff as ad
from densemble.model import (
    ArchConfig,
    forward,
    init_params,
    load_params,
    make_param_tensors,
    predict,
    save_params,
)
from densemble.storage import read_container, write_container

from oracles import central_diff_grad, rel_err

TINY = ArchConfig(conv_blocks=((4, 5, 2), (8, 3, 2)), feature_dim=16, num_classes=3,
                  input_length=32)


class TestInitParams:
    def test_deterministic(self):
        a = init_params(TINY, 7)
        b = init_params(TINY, 7)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_seeds_differ(self):
        a = init_params(TINY, 0)
        b = init_params(TINY, 1)
        assert not np.array_equal(a.tensors["conv0.w"], b.tensors["conv0.w"])

    def test_he_scaling(self):
        # second block is wide enough (256*64*7 > 10k draws) to pin the std
        arch = ArchConfig(conv_blocks=((64, 7, 1), (256, 7, 1)), feature_dim=64,
                          num_classes=2, input_length=64)
        params = init_params(arch, 3)
        w = params.tensors["conv1.w"]  # fan_in = 64 * 7
        assert w.size >= 10_000
        target = np.sqrt(2 / (64 * 7))
        assert abs(w.std() - target) / target < 0.10
        first = params.tensors["conv0.w"]  # fan_in = 1 * 7, fewer draws
        assert abs(first.std() - np.sqrt(2 / 7)) / np.sqrt(2 / 7) < 0.25

    def test_biases_zero(self):
        params = init_params(TINY, 5)
        for name, t in params.tensors.items():
            if name.endswith(".b"):
                assert np.all(t == 0)


class TestForward:
    def test_no_cross_sample_coupling(self):
        params = init_params(TINY, 11)
        x = np.random.default_rng(0).normal(size=(1, 32))
        x2 = np.vstack([x, x])
        logits1, feats1 = forward(params, x)
        logits2, feats2 = forward(params, x2)
        assert np.allclose(logits2.data[0], logits2.data[1], atol=1e-12)
        assert np.allclose(logits2.data[0], logits1.data[0], atol=1e-12)
        assert np.allclose(feats2.data[0], feats1.data[0], atol=1e-12)

    def test_zero_input_zero_bias(self):
        params = init_params(TINY, 11)
        params.tensors["head.b"][:] = [0.5, -0.25, 1.0]
        logits, feats = forward(params, np.zeros((2, 32)))
        assert np.all(feats.data == 0)
        assert np.allclose(logits.data, np.tile([0.5, -0.25, 1.0], (2, 1)))

    def test_feature_dim(self):
        params = init_params(TINY, 2)
        _, feats = forward(params, np.random.default_rng(1).normal(size=(4, 32)))
        assert feats.shape == (4, 16)

    def test_length_mismatch(self):
        params = init_params(TINY, 2)
        with pytest.raises(ValueError):
            forward(params, np.zeros((1, 33)))

    def test_overflow_inside_the_network_raises(self):
        # finite parameters whose products overflow: forward checks its
        # outputs, since interior nodes are not checked as they are built
        params = init_params(TINY, 11)
        for v in params.tensors.values():
            v[...] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                forward(params, np.ones((2, 32)))

    def test_input_gradient_vs_finite_differences(self):
        params = init_params(TINY, 13)
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(2, 32))
        y = np.array([0, 2])

        def loss(v):
            logits, _ = forward(params, v)
            return ad.softmax_cross_entropy(logits, y).item()

        xt = ad.Tensor(x0, requires_grad=True)
        logits, _ = forward(params, xt)
        ad.softmax_cross_entropy(logits, y).backward()
        assert rel_err(xt.grad, central_diff_grad(loss, x0)) < 1e-4

    def test_parameter_gradients_flow(self):
        params = init_params(TINY, 15)
        pt = make_param_tensors(params, requires_grad=True)
        x = np.random.default_rng(3).normal(size=(4, 32))
        logits, _ = forward(params, x, param_tensors=pt)
        ad.softmax_cross_entropy(logits, np.array([0, 1, 2, 0])).backward()
        for name, t in pt.items():
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad))


class TestPredict:
    def test_argmax(self):
        params = init_params(TINY, 4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 32))
        logits, _ = forward(params, x)
        assert np.array_equal(predict(params, x), np.argmax(logits.data, axis=1))

    def test_tie_breaks_low_index(self):
        assert int(np.argmax(np.array([1.0, 1.0, 0.0]))) == 0


class TestParamsRoundtrip:
    def test_bitwise(self, tmp_path):
        params = init_params(TINY, 21)
        path = tmp_path / "m.params"
        save_params(params, path, model_id="arm0")
        back = load_params(path)
        assert back.arch == params.arch
        for name in params.tensors:
            assert np.array_equal(back.tensors[name], params.tensors[name])

    def test_functional_equivalence(self, tmp_path):
        params = init_params(TINY, 22)
        path = tmp_path / "m.params"
        save_params(params, path, model_id="arm0")
        back = load_params(path)
        x = np.random.default_rng(6).normal(size=(3, 32))
        assert np.array_equal(forward(params, x)[0].data, forward(back, x)[0].data)

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(TINY, 23)
        save_params(params, tmp_path / "a", model_id="arm1")
        save_params(params, tmp_path / "b", model_id="arm1")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_truncated_file(self, tmp_path):
        params = init_params(TINY, 24)
        path = tmp_path / "m.params"
        save_params(params, path, model_id="arm0")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"kind": "classifier-params", "arch": TINY.to_dict()}, {})
        blob = path.read_bytes()
        # same-length version bump keeps the header length prefix valid
        path.write_bytes(blob.replace(b'"format_version":1', b'"format_version":9'))
        with pytest.raises(ValueError, match="version"):
            read_container(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_params(path)
