import hashlib

import numpy as np
import pytest

from ecgkd.autodiff import Tensor
from ecgkd.models import (
    Cnn1dStudent,
    ConvAutoencoder,
    Resnet1dStudent,
    WideCnnTeacher,
    _BasicBlock,
    build_student,
    count_params,
    load_model,
    save_model,
)
from ecgkd.quantum import THETA_LENGTH


def closed_form_cnn(width=1):
    total = 0
    c_in = 1
    for c_out in (16 * width, 32 * width, 64 * width, 64 * width):
        total += c_out * c_in * 5 + c_out      # conv weight + bias
        total += 2 * c_out                     # bn gamma + beta
        c_in = c_out
    total += 32 * width * c_in + 32 * width    # fc1
    total += 1 * 32 * width + 1                # fc2
    return total


def closed_form_resnet():
    def block(c_in, c_out, proj):
        total = c_out * c_in * 3 + c_out + 2 * c_out      # conv1 + bn1
        total += c_out * c_out * 3 + c_out + 2 * c_out    # conv2 + bn2
        if proj:
            total += c_out * c_in * 1 + c_out + 2 * c_out  # proj conv + bn
        return total

    total = 64 * 1 * 9 + 64 + 2 * 64  # stem conv + bn
    c_in = 64
    for c_out in (64, 128, 256, 512):
        total += block(c_in, c_out, proj=True)   # stride-2 entry block
        total += block(c_out, c_out, proj=False)
        c_in = c_out
    total += 512 + 1  # head
    return total


def closed_form_ae():
    enc = (16 * 1 * 5 + 16) + (32 * 16 * 5 + 32) + (64 * 32 * 5 + 64)
    enc += 6 * 256 + 6
    dec = 256 * 6 + 256
    dec += (64 * 32 * 5 + 32) + (32 * 16 * 5 + 16) + (16 * 1 * 5 + 1)
    return enc + dec


def test_cnn_parameter_count():
    count = count_params(Cnn1dStudent(seed=0))
    assert count == closed_form_cnn()
    assert 33_000 * 0.8 <= count <= 33_000 * 1.2


def test_resnet_parameter_count():
    count = count_params(Resnet1dStudent(seed=0))
    assert count == closed_form_resnet()
    assert 3_800_000 * 0.8 <= count <= 3_800_000 * 1.2


def test_ae_parameter_count():
    count = count_params(ConvAutoencoder(seed=0))
    assert count == closed_form_ae()
    assert 25_000 * 0.8 <= count <= 25_000 * 1.2


def test_circuit_parameter_count():
    assert THETA_LENGTH == 36


def test_count_params_linear_example():
    from ecgkd.autodiff import Linear

    class Tiny:
        def __init__(self):
            self.layer = Linear(6, 1, rng=np.random.default_rng(0))

        def named_parameters(self):
            return [(f"layer.{n}", t) for n, t in self.layer.parameters()]

    assert count_params(Tiny()) == 7


def test_count_params_conv_example():
    from ecgkd.autodiff import Conv1d

    class Tiny:
        def __init__(self):
            self.layer = Conv1d(1, 16, 5, rng=np.random.default_rng(0))

        def named_parameters(self):
            return [(f"layer.{n}", t) for n, t in self.layer.parameters()]

    assert count_params(Tiny()) == 96


def test_cnn_forward_shape_and_finite():
    model = Cnn1dStudent(seed=1)
    out = model.forward(Tensor(np.random.default_rng(0).standard_normal((8, 1, 256))))
    assert out.data.shape == (8,)
    assert np.all(np.isfinite(out.data))


def test_cnn_zero_input_gives_final_bias():
    model = Cnn1dStudent(seed=2)
    model.fc2.bias.data[:] = 1.7
    out = model.forward(Tensor(np.zeros((3, 1, 256))), train=False)
    assert np.allclose(out.data, 1.7)


def test_resnet_forward_shape():
    model = Resnet1dStudent(seed=3)
    out = model.forward(Tensor(np.random.default_rng(1).standard_normal((4, 1, 256))))
    assert out.data.shape == (4,)
    assert np.all(np.isfinite(out.data))


def test_basic_block_identity_path():
    rng = np.random.default_rng(4)
    block = _BasicBlock(8, 8, stride=1, rng=rng)
    block.conv1.weight.data[:] = 0.0
    block.conv2.weight.data[:] = 0.0
    x = np.abs(rng.standard_normal((2, 8, 16)))
    out = block(Tensor(x), train=False)
    assert np.allclose(out.data, x, atol=1e-12)


def test_ae_shapes_and_zero_case():
    ae = ConvAutoencoder(seed=5)
    x = Tensor(np.random.default_rng(2).standard_normal((3, 1, 256)))
    z = ae.encode(x)
    assert z.data.shape == (3, 6)
    recon = ae.decode(z)
    assert recon.data.shape == (3, 1, 256)
    # zero input with zero biases gives zero latent and zero reconstruction
    for _, t in ae.named_parameters():
        if t.data.ndim == 1:
            t.data[:] = 0.0
    z0 = ae.encode(Tensor(np.zeros((2, 1, 256))))
    assert np.allclose(z0.data, 0.0)
    r0 = ae.decode(Tensor(np.zeros((2, 6))))
    assert np.allclose(r0.data, 0.0)


def test_ae_reconstruction_learns():
    from ecgkd.synthetic import SynthSpec, generate_windows
    from ecgkd.training import train_autoencoder

    X, _ = generate_windows(SynthSpec(n_windows=120, balance=0.5, noise_sigma=0.1, seed=3))
    train_idx = np.arange(90)
    ae = train_autoencoder(X, train_idx, epochs=8, batch_size=16, learning_rate=2e-3, seed=0)
    held = X[90:]
    recon = ae.forward(Tensor(held[:, None, :])).data[:, 0, :]
    assert np.mean((recon - held) ** 2) < np.mean(held ** 2)


def test_forward_deterministic_in_eval():
    model = build_student("cnn1d", seed=9)
    x = Tensor(np.random.default_rng(3).standard_normal((4, 1, 256)))
    a = model.forward(x, train=False).data
    b = model.forward(x, train=False).data
    assert np.array_equal(a, b)


def test_encoder_latent_always_six():
    ae = ConvAutoencoder(seed=6)
    for batch in (1, 2, 7):
        x = Tensor(np.zeros((batch, 1, 256)))
        assert ae.encode(x).data.shape == (batch, 6)


def test_build_student_kinds():
    assert isinstance(build_student("cnn1d"), Cnn1dStudent)
    assert isinstance(build_student("resnet1d"), Resnet1dStudent)
    for kind in ("ae_vqc", "transformer"):
        with pytest.raises(ValueError):
            build_student(kind)


def test_teacher_is_wider_cnn():
    teacher = WideCnnTeacher(seed=0)
    student = Cnn1dStudent(seed=0)
    assert count_params(teacher) > 10 * count_params(student)
    out = teacher.forward(Tensor(np.random.default_rng(4).standard_normal((2, 1, 256))))
    assert out.data.shape == (2,)


def test_checkpoint_roundtrip_preserves_eval_outputs(tmp_path):
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((3, 1, 256)))
    for model in (build_student("cnn1d", seed=11), build_student("resnet1d", seed=11), ConvAutoencoder(seed=11)):
        # place nontrivial running stats by one train-mode pass
        model.forward(Tensor(rng.standard_normal((8, 1, 256))), train=True)
        before = model.forward(x, train=False).data.copy()
        path = tmp_path / f"{model.arch}.ckpt"
        save_model(path, model)
        loaded = load_model(path)
        after = loaded.forward(x, train=False).data
        assert np.allclose(before, after, atol=1e-12)


# sha256 of the QDST1 header line of a seed-0 checkpoint per architecture.
# The header holds names, shapes and offsets only, so the digests pin the
# dotted parameter/buffer names and their order independently of platform.
CHECKPOINT_HEADER_SHA256 = {
    Cnn1dStudent: "4ec411152942a72f0c140c547ea9694c8f0a2ab82fd901281eafa8191a09e87d",
    Resnet1dStudent: "2bc036ca76c51e9de3a216e40fec460ca3fc0580e5bdb0c0bea8bf6d3163fbd3",
    ConvAutoencoder: "5d040c03fc5610e57b6382a9fc7a41753a1e6c74a876171945391e0d985a3fc0",
    WideCnnTeacher: "be55717587d7d16e05ab03fd981cd8d5a61ab8b656b25e1cb687a76f41eb6f01",
}


@pytest.mark.parametrize("cls", list(CHECKPOINT_HEADER_SHA256), ids=lambda c: c.arch)
def test_checkpoint_header_names_pinned(cls, tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(path, cls(seed=0))
    with open(path, "rb") as fh:
        assert fh.readline() == b"QDST1\n"
        header = fh.readline()
    assert hashlib.sha256(header).hexdigest() == CHECKPOINT_HEADER_SHA256[cls]


def test_parameters_are_named_pairs_params_before_buffers():
    model = Resnet1dStudent(seed=0)
    names = [n for n, _ in model.parameters()]
    assert names[:4] == ["stem.weight", "stem.bias", "stem_bn.gamma", "stem_bn.beta"]
    assert "stages.0.1.bn2.gamma" in names
    assert all(isinstance(t, Tensor) for _, t in model.parameters())
    state = [n for n, _ in model.state_items()]
    assert state[: len(names)] == names
    assert state[len(names):][:2] == ["stem_bn.running_mean", "stem_bn.running_var"]
    assert state[-1] == "stages.3.1.bn2.running_var"
