"""Optimizers: Adam for backprop-trained students, SPSA for the circuit.

SPSA estimates the whole gradient from two loss evaluations at a pair of
simultaneously perturbed points, which keeps the measurement cost of the
quantum student independent of its parameter count.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class OptimError(Exception):
    pass


class NonFiniteGradError(OptimError):
    pass


class NonFiniteLossError(OptimError):
    pass


class Adam:
    """Adaptive moment estimation over a list of parameter tensors
    (anything else, such as a (name, tensor) pair, raises OptimError).

    Defaults: lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8.  Gradients are
    read from each tensor's ``grad`` buffer; call ``zero_grad`` between
    steps (gradients accumulate otherwise).
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor):
                raise OptimError(f"Adam optimizes Tensors, got {type(p).__name__}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradError("non-finite gradient encountered")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class Spsa:
    """Simultaneous perturbation stochastic approximation.

    Gain sequences follow the standard practical guidance:
    a_k = a / (A + k + 1)^0.602 and c_k = c / (k + 1)^0.101, with a
    Rademacher perturbation each step and exactly two loss evaluations.
    """

    def __init__(self, a, c, A=0.0, alpha=0.602, gamma=0.101, seed=0):
        if a <= 0 or c <= 0:
            raise OptimError("gains a and c must be positive")
        if A < 0:
            raise OptimError("stability constant A must be nonnegative")
        if not 0 < gamma < alpha <= 1:
            raise OptimError(f"need 0 < gamma < alpha <= 1, got alpha={alpha}, gamma={gamma}")
        self.a = a
        self.c = c
        self.A = A
        self.alpha = alpha
        self.gamma = gamma
        self.k = 0
        self.rng = np.random.default_rng(seed)
        self.evaluations = 0

    def step(self, theta, loss_fn):
        """One update; returns the new parameter vector."""
        theta = np.asarray(theta, dtype=np.float64)
        ck = self.c / (self.k + 1) ** self.gamma
        ak = self.a / (self.A + self.k + 1) ** self.alpha
        delta = self.rng.choice([-1.0, 1.0], size=theta.shape)
        loss_plus = float(loss_fn(theta + ck * delta))
        loss_minus = float(loss_fn(theta - ck * delta))
        self.evaluations += 2
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            raise NonFiniteLossError("non-finite loss during SPSA step")
        g_hat = (loss_plus - loss_minus) / (2.0 * ck * delta)
        self.k += 1
        return theta - ak * g_hat

    def minimize(self, theta, loss_fn, steps):
        for _ in range(steps):
            theta = self.step(theta, loss_fn)
        return theta


def spsa_calibrate(loss_fn, theta0, iterations, seed=0, target_step=0.1,
                   c_floor=1e-2, alpha=0.602, noise_evals=10):
    """Pick SPSA gains for a given loss landscape.

    c is the larger of ``c_floor`` and the sample standard deviation of the
    loss over repeated evaluations at theta0 (nonzero only under shot
    noise).  A is 10 percent of the planned iteration count.  a targets a
    first-step magnitude of ``target_step`` per coordinate based on one
    probe gradient estimate, with a trust bound from the same probe's
    second difference: the first-step gain may not exceed one over the
    curvature along the probe direction.  Without that bound a small
    probe gradient on a strongly curved loss makes the first updates
    overshoot and diverge; on flat landscapes it never binds.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    samples = np.array([float(loss_fn(theta0)) for _ in range(noise_evals)])
    if not np.all(np.isfinite(samples)):
        raise NonFiniteLossError("non-finite loss during calibration")
    c = max(c_floor, float(samples.std(ddof=1)))
    big_a = 0.1 * iterations
    delta = rng.choice([-1.0, 1.0], size=theta0.shape)
    loss_plus = float(loss_fn(theta0 + c * delta))
    loss_minus = float(loss_fn(theta0 - c * delta))
    if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
        raise NonFiniteLossError("non-finite probe loss during calibration")
    g0 = (loss_plus - loss_minus) / (2.0 * c * delta)
    a = target_step * (big_a + 1.0) ** alpha / max(float(np.max(np.abs(g0))), 1e-6)
    curvature = abs(loss_plus + loss_minus - 2.0 * float(samples.mean())) / (c * c)
    a_cap = (big_a + 1.0) ** alpha / max(curvature, 1e-6)
    return min(a, a_cap), c, big_a
