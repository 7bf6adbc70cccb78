import numpy as np
import pytest

from ecgkd import quantum as q

from helpers import (
    dense_efficient_su2,
    dense_vqc_state,
    dense_z_expectations,
    dense_zz_feature_map,
)


def test_zero_state():
    s = q.zero_state()
    assert s.shape == (64,)
    assert s[0] == 1.0
    assert np.sum(np.abs(s) ** 2) == 1.0


def test_feature_map_at_pi_gives_uniform_state():
    x = np.full(6, np.pi)
    s = q.zz_feature_map(q.zero_state(), x, reps=1)
    assert np.allclose(np.abs(s), 1.0 / 8.0, atol=1e-12)


def test_feature_map_norm_preserved():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-np.pi, np.pi, 6)
        s = q.zz_feature_map(q.zero_state(), x, reps=2)
        assert abs(np.sum(np.abs(s) ** 2) - 1.0) < 1e-12


def test_feature_map_matches_dense_oracle_at_zero():
    s = q.zz_feature_map(q.zero_state(), np.zeros(6), reps=1)
    e0 = np.zeros(64, dtype=np.complex128)
    e0[0] = 1.0
    # single-repetition dense product of the same gate list
    u = np.eye(64, dtype=np.complex128)
    from helpers import H_GATE, cx_unitary, phase_gate, single_qubit_unitary

    for qubit in range(6):
        u = single_qubit_unitary(H_GATE, qubit) @ u
    for qubit in range(6):
        u = single_qubit_unitary(phase_gate(0.0), qubit) @ u
    for qubit in range(5):
        cx = cx_unitary(qubit, qubit + 1)
        u = cx @ u
        u = single_qubit_unitary(phase_gate(2.0 * np.pi * np.pi), qubit + 1) @ u
        u = cx @ u
    assert np.max(np.abs(s - u @ e0)) < 1e-10


def test_feature_map_bad_reps():
    with pytest.raises(q.BadRepsError):
        q.zz_feature_map(q.zero_state(), np.zeros(6), reps=0)


def test_ansatz_identity_at_zero():
    s = q.efficient_su2(q.zero_state(), np.zeros(36))
    expect = q.zero_state()
    assert np.allclose(s, expect, atol=1e-14)


def test_ansatz_parameter_count():
    assert q.THETA_LENGTH == 36
    assert 2 * 6 * (q.ANSATZ_REPS + 1) == 36
    with pytest.raises(q.BadThetaLengthError):
        q.efficient_su2(q.zero_state(), np.zeros(35))


def test_ansatz_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 36)
        s = q.efficient_su2(q.zero_state(), theta)
        dense = dense_efficient_su2(theta) @ np.eye(64, dtype=np.complex128)[:, 0]
        assert np.max(np.abs(s - dense)) < 1e-10


def test_full_circuit_oracle_equivalence_100():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-np.pi, np.pi, 6)
        theta = rng.uniform(-np.pi, np.pi, 36)
        s = q.efficient_su2(q.zz_feature_map(q.zero_state(), x), theta)
        dense = dense_vqc_state(x, theta)
        assert np.max(np.abs(s - dense)) < 1e-10
        assert abs(np.sum(np.abs(s) ** 2) - 1.0) < 1e-12


def test_z_expectations_basis_states():
    assert np.allclose(q.z_expectations(q.zero_state()), np.ones(6))
    ones = np.zeros(64, dtype=np.complex128)
    ones[63] = 1.0
    assert np.allclose(q.z_expectations(ones), -np.ones(6))


def test_z_expectations_uniform_state():
    s = np.full(64, 1.0 / 8.0, dtype=np.complex128)
    assert np.allclose(q.z_expectations(s), np.zeros(6), atol=1e-12)


def test_z_expectations_requires_normalization():
    with pytest.raises(q.NonNormalizedStateError):
        q.z_expectations(np.full(64, 0.2, dtype=np.complex128))


def test_z_expectations_match_dense_oracle():
    rng = np.random.default_rng(11)
    x = rng.uniform(-np.pi, np.pi, 6)
    theta = rng.uniform(-np.pi, np.pi, 36)
    s = q.efficient_su2(q.zz_feature_map(q.zero_state(), x), theta)
    assert np.allclose(q.z_expectations(s), dense_z_expectations(s), atol=1e-12)


def test_vqc_logit_map():
    assert q.vqc_logit(np.ones(6)) == pytest.approx(4.0)
    assert 1 / (1 + np.exp(-q.vqc_logit(np.ones(6)))) == pytest.approx(0.9820, abs=5e-5)
    assert q.vqc_logit(np.zeros(6)) == 0.0
    assert q.vqc_logit(-np.ones(6)) == pytest.approx(-4.0)
    with pytest.raises(q.OutOfRangeError):
        q.vqc_logit(np.full(6, 1.5))


def test_vqc_forward_deterministic_and_bounded():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, 6)
    theta = rng.uniform(-np.pi, np.pi, 36)
    a = q.vqc_forward(x, theta)
    b = q.vqc_forward(x, theta)
    assert a == b
    assert abs(a) <= 4.0


def test_vqc_forward_matches_dense_pipeline():
    rng = np.random.default_rng(19)
    for _ in range(10):
        x = rng.uniform(-np.pi, np.pi, 6)
        theta = rng.uniform(-np.pi, np.pi, 36)
        dense = dense_vqc_state(x, theta)
        expected = 4.0 * dense_z_expectations(dense).mean()
        assert q.vqc_forward(x, theta) == pytest.approx(expected, abs=1e-9)


def test_vqc_forward_theta_zero_pi_inputs():
    # with all-pi inputs and theta=0 the circuit is just the feature map
    x = np.full(6, np.pi)
    dense = dense_vqc_state(x, np.zeros(36))
    expected = 4.0 * dense_z_expectations(dense).mean()
    assert q.vqc_forward(x, np.zeros(36)) == pytest.approx(expected, abs=1e-9)


def test_feature_clamping():
    big = np.array([10.0, -8.0, 0.0, 1.0, -1.0, 5.0])
    clamped = np.clip(big, -np.pi, np.pi)
    theta = np.linspace(-1, 1, 36)
    assert q.vqc_forward(big, theta) == pytest.approx(q.vqc_forward(clamped, theta))


def test_batch_matches_single():
    rng = np.random.default_rng(23)
    X = rng.uniform(-np.pi, np.pi, (8, 6))
    theta = rng.uniform(-np.pi, np.pi, 36)
    batch = q.vqc_forward_batch(X, theta)
    singles = np.array([q.vqc_forward(x, theta) for x in X])
    assert np.allclose(batch, singles, atol=1e-12)


def test_batch_matches_dense_oracle_outside_pi():
    rng = np.random.default_rng(41)
    X = rng.uniform(-3 * np.pi, 3 * np.pi, (24, 6))
    X[0] = [10.0, -8.0, np.pi, -np.pi, 0.0, 4.0]
    theta = rng.uniform(-np.pi, np.pi, 36)
    expected = np.array([4.0 * dense_z_expectations(dense_vqc_state(x, theta)).mean() for x in X])
    assert np.max(np.abs(q.vqc_forward_batch(X, theta) - expected)) < 1e-12


def test_shot_noise_mode():
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, 6)
    theta = rng.uniform(-np.pi, np.pi, 36)
    exact = q.vqc_forward(x, theta)
    est = q.vqc_forward(x, theta, shots=20000, rng=np.random.default_rng(1))
    assert est == pytest.approx(exact, abs=0.15)
    r1 = q.vqc_forward(x, theta, shots=100, rng=np.random.default_rng(2))
    r2 = q.vqc_forward(x, theta, shots=100, rng=np.random.default_rng(2))
    assert r1 == r2


def test_continuity_in_theta():
    rng = np.random.default_rng(37)
    x = rng.uniform(-1, 1, 6)
    theta = rng.uniform(-np.pi, np.pi, 36)
    base = q.vqc_forward(x, theta)
    worst = 0.0
    for _ in range(20):
        step = rng.standard_normal(36) * 1e-4
        delta = abs(q.vqc_forward(x, theta + step) - base)
        worst = max(worst, delta / np.linalg.norm(step))
    assert worst < 50.0


def test_theta_checkpoint_roundtrip(tmp_path):
    theta = np.linspace(-1, 1, 36)
    path = tmp_path / "theta.json"
    q.save_theta(path, theta, seed=9, extra={"note": 1})
    got, doc = q.load_theta(path)
    assert np.allclose(got, theta)
    assert doc["kappa"] == 4.0
    assert doc["ansatz_reps"] == 2
    assert doc["seed"] == 9


@pytest.mark.parametrize("text", [
    '{"theta": ["a"]}',
    '{"kappa": 4.0}',
    'not json',
    '{"theta": [' + "9" * 400 + ']}',
    "[" * 100000,
    '{"theta": [NaN' + ", 0.5" * 35 + ']}',
    '{"theta": [true' + ", 0.5" * 35 + ']}',
], ids=["non_numeric_angle", "missing_theta", "not_json", "angle_overflows_float", "deeply_nested",
        "nan_angle", "boolean_angle"])
def test_load_theta_bad_file_names_path(tmp_path, text):
    path = tmp_path / "theta.json"
    path.write_text(text)
    with pytest.raises(q.BadThetaFileError, match=str(path)):
        q.load_theta(path)
