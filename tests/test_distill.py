import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgkd.autodiff import Tensor
from ecgkd.distill import (
    DistillError,
    KdConfig,
    class_logits,
    hard_loss,
    kd_loss,
    kd_loss_batch,
    kd_loss_vector,
    load_teacher_logits,
    save_teacher_logits,
    scalarize_logits,
    soft_loss,
    softmax_T,
)

finite = st.floats(-30, 30, allow_nan=False)


def test_softmax_examples():
    p = softmax_T(class_logits(2.0), 2.0)
    assert p[1] == pytest.approx(np.e / (1 + np.e), rel=1e-12)
    assert p[0] == pytest.approx(1 / (1 + np.e), rel=1e-12)
    assert p[0] == pytest.approx(0.2689, abs=5e-5)
    assert softmax_T(class_logits(0.0), 7.0) == pytest.approx([0.5, 0.5])


def test_softmax_high_temperature_limit():
    for z in (-10, -3, 0.5, 10):
        p = softmax_T(class_logits(z), 1e6)
        assert np.max(np.abs(p - 0.5)) < 1e-5


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.uniform(-50, 50, 2)
        t = rng.uniform(0.1, 10)
        p = softmax_T(v, t)
        assert abs(p.sum() - 1.0) < 1e-12
        shifted = softmax_T(v + 13.7, t)
        assert np.allclose(p, shifted, atol=1e-12)


def test_softmax_bad_temperature():
    with pytest.raises(DistillError, match="temperature must be positive"):
        softmax_T(class_logits(1.0), 0.0)


def test_soft_loss_self_is_entropy():
    loss = soft_loss(class_logits(0.0), class_logits(0.0), 3.0)
    assert loss == pytest.approx(np.log(2), rel=1e-12)


def test_soft_loss_opposed_logits():
    # teacher certain of class 1, student certain of class 0: the loss is
    # dominated by p1 * log(1 + e^10), slightly under 10 + log(1 + e^-10)
    loss = soft_loss(class_logits(10.0), class_logits(-10.0), 1.0)
    direct = -(
        (1 / (1 + np.e ** 10.0)) * np.log(1 / (1 + np.e ** -10.0))
        + (1 / (1 + np.e ** -10.0)) * np.log(1 / (1 + np.e ** 10.0))
    )
    assert loss == pytest.approx(direct, rel=1e-9)
    assert loss == pytest.approx(10.0, abs=1e-3)


def test_soft_loss_gibbs_inequality():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        zt = rng.uniform(-10, 10)
        zs = rng.uniform(-10, 10)
        t = rng.uniform(0.5, 8)
        self_loss = soft_loss(class_logits(zt), class_logits(zt), t)
        cross = soft_loss(class_logits(zt), class_logits(zs), t)
        assert cross >= self_loss - 1e-12


def test_soft_loss_minimized_at_teacher_logit():
    zt = 1.3
    t = 2.0
    grid = np.linspace(zt - 2, zt + 2, 40001)
    losses = [soft_loss(class_logits(zt), class_logits(z), t) for z in grid]
    assert abs(grid[int(np.argmin(losses))] - zt) < 1e-4


def test_hard_loss_examples():
    assert hard_loss(class_logits(0.0), 1) == pytest.approx(np.log(2), rel=1e-12)
    assert hard_loss(class_logits(20.0), 1) == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-9)
    assert hard_loss(class_logits(20.0), 1) == pytest.approx(2.06e-9, rel=5e-3)
    assert hard_loss(class_logits(20.0), 0) == pytest.approx(20.0, abs=1e-6)
    with pytest.raises(DistillError, match="label must be 0 or 1"):
        hard_loss(class_logits(1.0), 2)


def test_kd_alpha_one_is_hard_loss():
    rng = np.random.default_rng(2)
    cfg = KdConfig(alpha=1.0, temperature=3.0)
    for _ in range(1000):
        zt = rng.uniform(-20, 20)
        zs = rng.uniform(-20, 20)
        label = int(rng.integers(0, 2))
        assert kd_loss(class_logits(zt), class_logits(zs), label, cfg) == hard_loss(
            class_logits(zs), label
        )


def test_kd_alpha_zero_t2_uniform():
    cfg = KdConfig(alpha=0.0, temperature=2.0)
    loss = kd_loss(class_logits(0.0), class_logits(0.0), 0, cfg)
    assert loss == pytest.approx(4 * np.log(2), rel=1e-12)


def test_kd_alpha_half_t1():
    cfg = KdConfig(alpha=0.5, temperature=1.0)
    loss = kd_loss(class_logits(0.0), class_logits(0.0), 1, cfg)
    assert loss == pytest.approx(np.log(2), rel=1e-12)


def test_kd_config_validation():
    with pytest.raises(DistillError, match="alpha must be in"):
        KdConfig(alpha=1.2, temperature=1.0)
    with pytest.raises(DistillError, match="temperature must be positive"):
        KdConfig(alpha=0.5, temperature=-1.0)


@given(finite, finite, st.integers(0, 1), st.floats(0.1, 9), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_kd_vector_matches_scalar(zt, zs, label, t, alpha):
    cfg = KdConfig(alpha=alpha, temperature=t)
    scalar = kd_loss(class_logits(zt), class_logits(zs), label, cfg)
    vec = kd_loss_vector(np.array([zs]), np.array([zt]), np.array([label]), cfg)
    assert vec == pytest.approx(scalar, rel=1e-10, abs=1e-12)


def test_kd_batch_tensor_matches_vector_and_gradient():
    rng = np.random.default_rng(3)
    cfg = KdConfig(alpha=0.4, temperature=2.0)
    zs = rng.uniform(-5, 5, 16)
    zt = rng.uniform(-5, 5, 16)
    y = rng.integers(0, 2, 16)
    t = Tensor(zs, requires_grad=True)
    loss = kd_loss_batch(t, zt, y, cfg)
    assert float(loss.data) == pytest.approx(kd_loss_vector(zs, zt, y, cfg), rel=1e-12)
    loss.backward()
    h = 1e-6
    for i in (0, 5, 11):
        up = kd_loss_vector(np.concatenate([zs[:i], [zs[i] + h], zs[i + 1 :]]), zt, y, cfg)
        down = kd_loss_vector(np.concatenate([zs[:i], [zs[i] - h], zs[i + 1 :]]), zt, y, cfg)
        numeric = (up - down) / (2 * h)
        assert t.grad[i] == pytest.approx(numeric, rel=1e-6, abs=1e-10)


def test_kd_loss_differentiable_in_student_logit():
    cfg = KdConfig(alpha=0.3, temperature=4.0)
    zt, label = 2.5, 1
    z = 0.7
    h = 1e-6
    up = kd_loss(class_logits(zt), class_logits(z + h), label, cfg)
    down = kd_loss(class_logits(zt), class_logits(z - h), label, cfg)
    numeric = (up - down) / (2 * h)
    t = Tensor(np.array([z]), requires_grad=True)
    loss = kd_loss_batch(t, np.array([zt]), np.array([label]), cfg)
    loss.backward()
    assert t.grad[0] == pytest.approx(numeric, rel=1e-6)


def test_softening_monotonicity():
    z = 3.0
    temps = np.linspace(0.5, 10, 50)
    probs = [softmax_T(class_logits(z), t)[1] for t in temps]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_scalarize_two_logit_teacher():
    assert scalarize_logits(np.array([1.0, 3.5])) == pytest.approx(2.5)
    with pytest.raises(DistillError):
        scalarize_logits(np.array([1.0, 2.0, 3.0]))


def test_teacher_logits_roundtrip(tmp_path):
    path = tmp_path / "logits.csv"
    save_teacher_logits(path, [0.5, -1.2])
    got = load_teacher_logits(path, expected_rows=2)
    assert np.allclose(got, [0.5, -1.2])


def test_save_teacher_logits_rejects_non_finite(tmp_path):
    path = tmp_path / "logits.csv"
    with pytest.raises(DistillError, match="non-finite"):
        save_teacher_logits(path, [0.5, float("nan")])
    assert not path.exists()


def test_teacher_logits_row_count_mismatch(tmp_path):
    path = tmp_path / "logits.csv"
    save_teacher_logits(path, [0.5, -1.2])
    with pytest.raises(DistillError, match="2 logits but the dataset has 3 windows"):
        load_teacher_logits(path, expected_rows=3)


def test_teacher_logits_non_utf8_names_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"index,logit\n0,0.5\n1,\xb51.0\n")
    with pytest.raises(DistillError, match="latin1.csv"):
        load_teacher_logits(path, expected_rows=2)


def _softplus_ref(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def test_kd_losses_extreme_teacher_logits_raise_no_warning():
    cfg = KdConfig(alpha=0.3, temperature=2.0)
    zs = np.array([0.5, -1.5])
    zt = np.array([-2000.0, 2000.0])
    y = np.array([0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = kd_loss_vector(zs, zt, y, cfg)
        batch = kd_loss_batch(Tensor(zs), zt, y, cfg)
    # the teacher is certain: its class-1 probability is exactly 0, then 1
    soft = np.array([_softplus_ref(zs[0] / 2.0), _softplus_ref(-zs[1] / 2.0)])
    hard = np.array([_softplus_ref(zs[0]), _softplus_ref(-zs[1])])
    assert vec == pytest.approx(float(np.mean(0.7 * 4.0 * soft + 0.3 * hard)), rel=1e-15)
    assert float(batch.data) == pytest.approx(vec, rel=1e-15)


def test_kd_loss_vector_teacher_probability_bits_unchanged():
    rng = np.random.default_rng(4)
    cfg = KdConfig(alpha=0.4, temperature=3.0)
    zs = rng.uniform(-6, 6, 64)
    zt = rng.uniform(-600, 600, 64)
    y = rng.integers(0, 2, 64)
    t = cfg.temperature
    p1 = 1.0 / (1.0 + np.exp(-zt / t))
    soft = (1.0 - p1) * _softplus_ref(zs / t) + p1 * _softplus_ref(-zs / t)
    hard = y * _softplus_ref(-zs) + (1.0 - y) * _softplus_ref(zs)
    expected = float(np.mean((1.0 - cfg.alpha) * t * t * soft + cfg.alpha * hard))
    assert kd_loss_vector(zs, zt, y, cfg) == expected
