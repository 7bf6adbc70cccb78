import json

import numpy as np
import pytest

import ecgkd.autodiff as ad
from ecgkd.autodiff import (
    BadDropoutRateError,
    BatchNorm1d,
    NonScalarLossError,
    ShapeMismatchError,
    Tensor,
    batchnorm1d,
    conv1d,
    conv_transpose1d,
    dropout,
    global_avg_pool,
    linear,
    load_checkpoint,
    mean_all,
    relu,
    reshape,
    save_checkpoint,
    sigmoid,
    softplus,
)


def fd_gradient(fn, tensor, index, h=1e-6):
    flat = tensor.data.reshape(-1)
    old = flat[index]
    flat[index] = old + h
    up = float(fn().data)
    flat[index] = old - h
    down = float(fn().data)
    flat[index] = old
    return (up - down) / (2 * h)


def check_gradients(fn, tensors, n_coords=40, h=1e-6, tol=1e-5, seed=0):
    """Compare backward() gradients with central differences on random
    coordinates of every tensor in `tensors`."""
    rng = np.random.default_rng(seed)
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    for t in tensors:
        assert t.grad is not None and t.grad.shape == t.data.shape
        for _ in range(max(2, n_coords // max(1, len(tensors)))):
            i = int(rng.integers(t.data.size))
            numeric = fd_gradient(fn, t, i, h)
            analytic = t.grad.reshape(-1)[i]
            assert analytic == pytest.approx(numeric, rel=tol, abs=1e-8)


def test_backward_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = mean_all(ad.mul(x, x))
    loss.backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_relu_sum():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    loss = mean_all(relu(x))
    loss.backward()
    assert np.allclose(x.grad, [0.0, 0.5])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NonScalarLossError):
        relu(x).backward()


def test_gradient_accumulates_until_zeroed():
    x = Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(2):
        mean_all(ad.mul(x, x)).backward()
    assert x.grad[0] == pytest.approx(8.0)
    x.zero_grad()
    assert x.grad is None


def test_backward_of_sum_equals_sum_of_backwards():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(5), requires_grad=True)
    a = mean_all(ad.mul(x, x))
    b = mean_all(relu(x))
    ad.add(a, b).backward()
    combined = x.grad.copy()
    x.zero_grad()
    mean_all(ad.mul(x, x)).backward()
    mean_all(relu(x)).backward()
    assert np.allclose(x.grad, combined)


def test_elementwise_examples():
    assert np.allclose(relu(Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])
    assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)
    gap = global_avg_pool(Tensor([[[1.0, 2, 3], [4, 5, 6]]]))
    assert np.allclose(gap.data, [[2.0, 5.0]])


def test_softplus_stable_extremes():
    out = softplus(Tensor([-800.0, 0.0, 800.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(np.log(2))
    assert out.data[2] == pytest.approx(800.0)
    assert np.all(np.isfinite(out.data))


def test_conv1d_hand_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    b = Tensor(np.zeros(1))
    out = conv1d(x, w, b, stride=1, padding=0)
    assert np.allclose(out.data, [[[3.0, 5.0]]])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3, 7)))
    w = np.zeros((3, 3, 1))
    for c in range(3):
        w[c, c, 0] = 1.0
    out = conv1d(x, Tensor(w), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x.data)


def test_conv1d_zero_weight_bias_only():
    x = Tensor(np.random.default_rng(2).standard_normal((1, 2, 9)))
    out = conv1d(x, Tensor(np.zeros((4, 2, 3))), Tensor(np.full(4, 1.5)), stride=2, padding=1)
    assert out.data.shape == (1, 4, 5)
    assert np.allclose(out.data, 1.5)


def test_conv1d_output_length_formula():
    rng = np.random.default_rng(3)
    for length, k, stride, pad in ((256, 5, 2, 2), (31, 3, 1, 0), (16, 5, 4, 1), (7, 7, 3, 2)):
        x = Tensor(rng.standard_normal((1, 1, length)))
        w = Tensor(rng.standard_normal((2, 1, k)))
        out = conv1d(x, w, Tensor(np.zeros(2)), stride=stride, padding=pad)
        assert out.data.shape[2] == (length + 2 * pad - k) // stride + 1


def test_conv1d_shape_errors():
    x = Tensor(np.zeros((1, 2, 8)))
    with pytest.raises(ShapeMismatchError):
        conv1d(x, Tensor(np.zeros((4, 3, 3))), None)
    with pytest.raises(ShapeMismatchError):
        conv1d(x, Tensor(np.zeros((4, 2, 12))), None)


def test_conv1d_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 5)) * 0.3, requires_grad=True)
    b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)

    def fn():
        out = conv1d(x, w, b, stride=2, padding=2)
        return mean_all(ad.mul(out, out))

    check_gradients(fn, [x, w, b], seed=4)


def test_conv_transpose1d_shape_and_gradients():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 5)) * 0.3, requires_grad=True)
    b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    out = conv_transpose1d(x, w, b, stride=4, padding=1, output_padding=1)
    assert out.data.shape == (2, 3, 16)

    def fn():
        o = conv_transpose1d(x, w, b, stride=4, padding=1, output_padding=1)
        return mean_all(ad.mul(o, o))

    check_gradients(fn, [x, w, b], seed=5)


def test_conv_transpose_matches_conv_adjoint():
    # transposed convolution is the adjoint of convolution:
    # <conv(x), y> == <x, conv_T(y)> for zero padding
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 2, 10))
    w = rng.standard_normal((3, 2, 4))  # conv weight [C_out, C_in, K]
    y = rng.standard_normal((1, 3, 4))
    out = conv1d(Tensor(x), Tensor(w), None, stride=2, padding=0)
    lhs = float(np.sum(out.data * y))
    wt = np.transpose(w, (0, 1, 2))  # conv_T expects [C_in=3, C_out=2, K]
    back = conv_transpose1d(Tensor(y), Tensor(wt), None, stride=2, padding=0)
    rhs = float(np.sum(back.data[:, :, : x.shape[2]] * x))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_linear_and_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 6)) * 0.4, requires_grad=True)
    b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    out = linear(x, w, b)
    assert np.allclose(out.data, x.data @ w.data.T + b.data)

    def fn():
        o = linear(x, w, b)
        return mean_all(ad.mul(o, o))

    check_gradients(fn, [x, w, b], seed=7)


def test_batchnorm_train_statistics():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((8, 3, 20)) * 4 + 2)
    bn = BatchNorm1d(3)
    out = bn(x, train=True)
    assert abs(out.data.mean(axis=(0, 2))).max() < 1e-6
    assert np.abs(out.data.var(axis=(0, 2)) - 1.0).max() < 1e-6


def test_batchnorm_gamma_zero_gives_beta():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((4, 2, 10)))
    bn = BatchNorm1d(2)
    bn.gamma.data[:] = 0.0
    bn.beta.data[:] = 1.25
    out = bn(x, train=True)
    assert np.allclose(out.data, 1.25)


def test_batchnorm_constant_channel():
    x = Tensor(np.full((4, 1, 8), 3.3))
    bn = BatchNorm1d(1)
    out = bn(x, train=True)
    assert np.allclose(out.data, 0.0, atol=1e-9)
    assert np.all(np.isfinite(out.data))


def test_batchnorm_eval_converges_to_train():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((16, 3, 24)) * 2 + 1)
    bn = BatchNorm1d(3)
    train_out = None
    for _ in range(120):
        train_out = bn(x, train=True)
    eval_out = bn(x, train=False)
    assert np.max(np.abs(eval_out.data - train_out.data)) < 1e-3


def test_batchnorm_gradients_train_and_eval():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((3, 2, 6)), requires_grad=True)
    bn = BatchNorm1d(2)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 2)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, 2)
    bn.running["mean"] = rng.standard_normal(2) * 0.1
    bn.running["var"] = rng.uniform(0.5, 1.5, 2)
    # positional weights break the normalization invariance of the loss,
    # otherwise the train-mode input gradient is degenerate (eps-scale)
    weights = rng.standard_normal((3, 2, 6))

    for train in (True, False):
        running_backup = {k: v.copy() for k, v in bn.running.items()}

        def fn():
            bn.running = {k: v.copy() for k, v in running_backup.items()}
            out = ad.mul(bn(x, train=train), weights)
            return mean_all(ad.mul(out, out))

        check_gradients(fn, [x, bn.gamma, bn.beta], seed=11)


def test_batchnorm_mode_and_shape_errors():
    bn = BatchNorm1d(3)
    with pytest.raises(ShapeMismatchError):
        batchnorm1d(Tensor(np.zeros((2, 4, 4))), bn.gamma, bn.beta, bn.running, True)


def test_dropout_eval_identity_and_train_scaling():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((64, 100)))
    assert dropout(x, 0.5, train=False) is x
    out = dropout(x, 0.5, train=True, rng=np.random.default_rng(0))
    kept = out.data != 0
    assert 0.35 < kept.mean() < 0.65
    assert np.allclose(out.data[kept], x.data[kept] * 2.0)
    with pytest.raises(BadDropoutRateError):
        dropout(x, 1.0, train=True, rng=np.random.default_rng(0))


def test_dropout_gradients():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    mask_rng_state = np.random.default_rng(3)

    def fn():
        out = dropout(x, 0.4, train=True, rng=np.random.default_rng(3))
        return mean_all(ad.mul(out, out))

    del mask_rng_state
    check_gradients(fn, [x], seed=13)


def test_global_avg_pool_gradients():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((3, 4, 9)), requires_grad=True)

    def fn():
        return mean_all(ad.mul(global_avg_pool(x), global_avg_pool(x)))

    check_gradients(fn, [x], seed=14)


def test_reshape_roundtrip_gradients():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)

    def fn():
        flat = reshape(x, (2, 12))
        return mean_all(ad.mul(flat, flat))

    check_gradients(fn, [x], seed=15)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    arrays = [("layer.weight", rng.standard_normal((3, 4))), ("layer.bias", rng.standard_normal(4))]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "test_arch", arrays)
    with open(path, "rb") as fh:
        assert fh.readline() == b"QDST1\n"
    arch, got = load_checkpoint(path)
    assert arch == "test_arch"
    for name, arr in arrays:
        assert np.array_equal(got[name], arr)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE\n{}\n")
    with pytest.raises(ad.CheckpointError):
        load_checkpoint(path)


def _good_checkpoint(path):
    save_checkpoint(path, "test_arch", [("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2))])
    return path.read_bytes()


def _assert_checkpoint_error(path):
    with pytest.raises(ad.CheckpointError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_truncated_payload(tmp_path):
    path = tmp_path / "cut.ckpt"
    blob = _good_checkpoint(path)
    path.write_bytes(blob[:-3])  # not a whole number of float64 values
    _assert_checkpoint_error(path)
    path.write_bytes(blob[:-8])  # whole values, but the last entry runs short
    _assert_checkpoint_error(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "long.ckpt"
    blob = _good_checkpoint(path)
    path.write_bytes(blob + bytes(16))
    _assert_checkpoint_error(path)


def test_checkpoint_unreadable_header(tmp_path):
    path = tmp_path / "hdr.ckpt"
    blob = _good_checkpoint(path)
    magic, header, payload = blob.split(b"\n", 2)
    for bad in (b"{not json", b"\xff\xfe", b'{"arch": "x"}', b'{"arch": "x", "params": [{"name": "w"}]}',
                b'{"arch": [1], "params": []}', b"[" * 100000):
        path.write_bytes(magic + b"\n" + bad + b"\n" + payload)
        _assert_checkpoint_error(path)


def test_checkpoint_entry_past_payload(tmp_path):
    path = tmp_path / "past.ckpt"
    blob = _good_checkpoint(path)
    path.write_bytes(blob.replace(b'"offset": 6', b'"offset": 7'))
    _assert_checkpoint_error(path)


def _checkpoint_with_entries(path, params, n_values):
    header = json.dumps({"arch": "test_arch", "params": params}).encode("utf-8")
    path.write_bytes(b"QDST1\n" + header + b"\n" + np.arange(float(n_values)).astype("<f8").tobytes())


def test_checkpoint_duplicate_entry_names(tmp_path):
    path = tmp_path / "dup.ckpt"
    _checkpoint_with_entries(path, [{"name": "w", "shape": [6], "offset": 0},
                                    {"name": "w", "shape": [2], "offset": 6}], 8)
    _assert_checkpoint_error(path)


def test_checkpoint_overlapping_entries(tmp_path):
    path = tmp_path / "overlap.ckpt"
    w = {"name": "w", "shape": [6], "offset": 0}
    _checkpoint_with_entries(path, [w, {"name": "b", "shape": [2], "offset": 6}], 8)
    assert np.array_equal(load_checkpoint(path)[1]["b"], [6.0, 7.0])
    _checkpoint_with_entries(path, [w, {"name": "b", "shape": [2], "offset": 4}], 6)
    _assert_checkpoint_error(path)


def test_checkpoint_non_string_entry_name(tmp_path):
    path = tmp_path / "name.ckpt"
    for name in (5, ["w"]):
        _checkpoint_with_entries(path, [{"name": name, "shape": [6], "offset": 0}], 6)
        _assert_checkpoint_error(path)


@pytest.mark.parametrize("shape, offset", [([1.7, 6], 0), ([2, "3"], 0), ([True, 6], 0), ([6], 0.0), ([6], "0")],
                         ids=["float_dim", "string_dim", "bool_dim", "float_offset", "string_offset"])
def test_checkpoint_non_integer_shape_or_offset(tmp_path, shape, offset):
    path = tmp_path / "dims.ckpt"
    _checkpoint_with_entries(path, [{"name": "w", "shape": shape, "offset": offset}], 6)
    _assert_checkpoint_error(path)


def test_checkpoint_shape_numpy_cannot_build(tmp_path):
    path = tmp_path / "ndim.ckpt"
    _checkpoint_with_entries(path, [{"name": "w", "shape": [1] * 70, "offset": 0}], 1)
    _assert_checkpoint_error(path)
    _checkpoint_with_entries(path, [{"name": "w", "shape": [0, 2 ** 70], "offset": 0}], 0)
    _assert_checkpoint_error(path)
