import numpy as np
import pytest

from ecgkd.autodiff import Tensor
from ecgkd.optim import Adam, NonFiniteGradError, NonFiniteLossError, OptimError, Spsa, spsa_calibrate


def test_adam_first_step_magnitude():
    p = Tensor(np.zeros(5), requires_grad=True)
    p.grad = np.ones(5)
    adam = Adam([p])
    adam.step()
    # bias correction makes the first update exactly lr * g / (|g| + eps)
    assert np.allclose(p.data, -1e-3 / (1 + 1e-8), rtol=1e-12)


def test_adam_zero_gradient_is_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    before = p.data.copy()
    adam = Adam([p])
    for _ in range(5):
        adam.step()
    assert np.array_equal(p.data, before)


def test_adam_none_gradient_skipped():
    p = Tensor(np.array([1.0]), requires_grad=True)
    adam = Adam([p])
    adam.step()
    assert p.data[0] == 1.0


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(0)
    p = Tensor(rng.uniform(-1, 1, 10), requires_grad=True)
    adam = Adam([p], lr=1e-2)
    for _ in range(2000):
        p.grad = 2.0 * p.data
        adam.step()
    assert np.max(np.abs(p.data)) < 1e-3


def test_adam_rejects_non_finite():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradError):
        Adam([p]).step()


def test_adam_zero_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    adam = Adam([p])
    adam.zero_grad()
    assert p.grad is None


def test_spsa_state_invariants():
    with pytest.raises(OptimError):
        Spsa(a=-1.0, c=0.1)
    with pytest.raises(OptimError):
        Spsa(a=1.0, c=0.1, A=-5)
    with pytest.raises(OptimError):
        Spsa(a=1.0, c=0.1, alpha=0.1, gamma=0.5)


def test_spsa_two_evaluations_per_step():
    calls = {"n": 0}

    def loss(theta):
        calls["n"] += 1
        return float(np.sum(theta ** 2))

    spsa = Spsa(a=0.01, c=0.01, seed=0)
    theta = np.ones(4)
    for _ in range(7):
        theta = spsa.step(theta, loss)
    assert calls["n"] == 14
    assert spsa.evaluations == 14


def test_spsa_1d_quadratic_estimator_exact():
    # for L(t) = t^2 in one dimension the two-point estimator is exactly 2t
    spsa = Spsa(a=0.05, c=0.3, seed=1)
    theta = np.array([0.7])
    loss = lambda t: float(np.sum(t * t))
    ck = spsa.c / (spsa.k + 1) ** spsa.gamma
    ak = spsa.a / (spsa.A + spsa.k + 1) ** spsa.alpha
    new = spsa.step(theta, loss)
    assert new[0] == pytest.approx(0.7 - ak * 2 * 0.7, rel=1e-12)
    del ck


def test_spsa_constant_loss_no_move():
    spsa = Spsa(a=0.1, c=0.1, seed=2)
    theta = np.array([0.3, -0.4])
    new = spsa.step(theta, lambda t: 5.0)
    assert np.array_equal(new, theta)


def test_spsa_estimator_unbiased_d2_quadratic():
    # averaged over both delta values in d=2 at small c, the estimator mean
    # equals the true gradient
    theta = np.array([0.3, -0.7])
    c = 1e-6
    loss = lambda t: float(np.sum(t * t))
    estimates = []
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        delta = np.array(signs, dtype=float)
        g = (loss(theta + c * delta) - loss(theta - c * delta)) / (2 * c * delta)
        estimates.append(g)
    mean_est = np.mean(estimates, axis=0)
    assert np.allclose(mean_est, 2 * theta, atol=1e-10)


def test_spsa_non_finite_loss():
    spsa = Spsa(a=0.1, c=0.1, seed=3)
    with pytest.raises(NonFiniteLossError):
        spsa.step(np.ones(3), lambda t: float("nan"))


def test_spsa_deterministic_given_seed():
    loss = lambda t: float(np.sum(t * t))
    runs = []
    for _ in range(2):
        spsa = Spsa(a=0.05, c=0.05, seed=11)
        theta = np.full(6, 0.5)
        for _ in range(20):
            theta = spsa.step(theta, loss)
        runs.append(theta)
    assert np.array_equal(runs[0], runs[1])


def test_calibrate_exact_mode_floor_and_formula():
    loss = lambda t: float(np.sum(t * t))
    theta0 = np.full(8, 0.5)
    a, c, big_a = spsa_calibrate(loss, theta0, iterations=200, seed=5)
    assert c == 1e-2  # deterministic loss: noise std is 0, floor applies
    assert big_a == 20.0
    # reconstruct the probe to verify the gain algebraically
    rng = np.random.default_rng(5)
    _ = [loss(theta0) for _ in range(10)]
    delta = rng.choice([-1.0, 1.0], size=8)
    lp, lm = loss(theta0 + c * delta), loss(theta0 - c * delta)
    g0 = (lp - lm) / (2 * c * delta)
    formula = 0.1 * (big_a + 1) ** 0.602 / max(np.max(np.abs(g0)), 1e-6)
    curvature = abs(lp + lm - 2 * loss(theta0)) / (c * c)
    expected = min(formula, (big_a + 1) ** 0.602 / curvature)
    assert a == pytest.approx(expected, rel=1e-12)


def test_calibrate_formula_branch_without_cap():
    # a sloped loss with no curvature: the trust bound never binds and the
    # gain satisfies the first-step-magnitude identity exactly
    slopes = np.arange(1.0, 9.0)
    loss = lambda t: float(np.dot(slopes, t))
    theta0 = np.zeros(8)
    a, c, big_a = spsa_calibrate(loss, theta0, iterations=100, seed=6)
    rng = np.random.default_rng(6)
    delta = rng.choice([-1.0, 1.0], size=8)
    g0 = (loss(theta0 + c * delta) - loss(theta0 - c * delta)) / (2 * c * delta)
    assert a == pytest.approx(0.1 * (big_a + 1) ** 0.602 / np.max(np.abs(g0)), rel=1e-12)
    # first-step magnitude equals the target
    assert a / (big_a + 1) ** 0.602 * np.max(np.abs(g0)) == pytest.approx(0.1)


def test_calibrate_deterministic():
    loss = lambda t: float(np.sum(t * t))
    theta0 = np.full(4, 0.3)
    first = spsa_calibrate(loss, theta0, iterations=50, seed=9)
    second = spsa_calibrate(loss, theta0, iterations=50, seed=9)
    assert first == second


def test_spsa_quadratic_convergence_20_seeds():
    converged = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(36)
        theta /= np.linalg.norm(theta)
        loss = lambda t: float(np.sum(t * t))
        a, c, big_a = spsa_calibrate(loss, theta, iterations=500, seed=1000 + seed)
        spsa = Spsa(a=a, c=c, A=big_a, seed=2000 + seed)
        theta = spsa.minimize(theta, loss, 500)
        if np.linalg.norm(theta) < 0.1:
            converged += 1
    assert converged >= 19


def test_adam_rejects_non_tensors():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(OptimError):
        Adam([("weight", p)])
    with pytest.raises(OptimError):
        Adam([p, np.array([1.0])])
