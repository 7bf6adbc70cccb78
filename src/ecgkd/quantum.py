"""Exact statevector simulation of the 6-qubit circuit student.

States are complex128 arrays whose last axis has length 64; leading axes
are broadcast batch dimensions so a whole minibatch of encodings can be
pushed through the circuit in a handful of vectorized gate applications.
Qubit 0 is the least significant bit of the basis index.
"""

from __future__ import annotations

import numpy as np

N_QUBITS = 6
DIM = 2 ** N_QUBITS
ANSATZ_REPS = 2
FEATURE_MAP_REPS = 2
THETA_LENGTH = 2 * N_QUBITS * (ANSATZ_REPS + 1)
LOGIT_SCALE = 4.0


class QuantumError(Exception):
    pass


class BadQubitIndexError(QuantumError):
    pass


class BadRepsError(QuantumError):
    pass


class BadThetaLengthError(QuantumError):
    pass


class NonNormalizedStateError(QuantumError):
    pass


class OutOfRangeError(QuantumError):
    pass


_INDICES = np.arange(DIM)
# sign[b, i] = +1 if bit i of b is 0 else -1
_Z_SIGNS = 1.0 - 2.0 * ((_INDICES[:, None] >> np.arange(N_QUBITS)[None, :]) & 1)


def zero_state(batch=None):
    """|0...0> amplitudes, optionally with a leading batch axis."""
    shape = (DIM,) if batch is None else (batch, DIM)
    state = np.zeros(shape, dtype=np.complex128)
    state[..., 0] = 1.0
    return state


def _check_qubit(q):
    if not 0 <= q < N_QUBITS:
        raise BadQubitIndexError(f"qubit index {q} outside [0, {N_QUBITS})")


def _split(state, q):
    # View the last axis as (high, bit q, low) blocks.
    lead = state.shape[:-1]
    return state.reshape(*lead, 2 ** (N_QUBITS - 1 - q), 2, 2 ** q)


def apply_h(state, q):
    _check_qubit(q)
    s = _split(state, q)
    s0, s1 = s[..., 0, :], s[..., 1, :]
    out = np.empty_like(s)
    inv = 1.0 / np.sqrt(2.0)
    out[..., 0, :] = (s0 + s1) * inv
    out[..., 1, :] = (s0 - s1) * inv
    return out.reshape(state.shape)


def apply_ry(state, q, angle):
    _check_qubit(q)
    s = _split(state, q)
    c, sn = np.cos(angle / 2.0), np.sin(angle / 2.0)
    s0, s1 = s[..., 0, :], s[..., 1, :]
    out = np.empty_like(s)
    out[..., 0, :] = c * s0 - sn * s1
    out[..., 1, :] = sn * s0 + c * s1
    return out.reshape(state.shape)


def apply_rz(state, q, angle):
    _check_qubit(q)
    s = _split(state, q).copy()
    s[..., 0, :] = s[..., 0, :] * np.exp(-0.5j * angle)
    s[..., 1, :] = s[..., 1, :] * np.exp(0.5j * angle)
    return s.reshape(state.shape)


def apply_phase(state, q, phi):
    """P(phi) on qubit q; phi may be a scalar or a batch vector."""
    _check_qubit(q)
    s = _split(state, q).copy()
    phase = np.exp(1j * np.asarray(phi, dtype=np.float64))
    if phase.ndim:  # per-batch angle: broadcast over the block axes
        phase = phase.reshape(phase.shape + (1, 1))
    s[..., 1, :] = s[..., 1, :] * phase
    return s.reshape(state.shape)


def apply_cx(state, control, target):
    _check_qubit(control)
    _check_qubit(target)
    if control == target:
        raise BadQubitIndexError("control and target must differ")
    mask = ((_INDICES >> control) & 1) == 1
    permuted = _INDICES.copy()
    permuted[mask] = _INDICES[mask] ^ (1 << target)
    return state[..., permuted]


def clamp_features(x):
    """Phase encodings are 2*pi periodic; clamping prevents aliasing."""
    return np.clip(np.asarray(x, dtype=np.float64), -np.pi, np.pi)


def zz_feature_map(state, x, reps=FEATURE_MAP_REPS):
    """Data-encoding circuit: Hadamards, single-qubit phases 2*x_i, and
    pairwise phases 2*(pi - x_i)*(pi - x_j) on adjacent qubits.

    ``x`` has shape [6] or [B, 6] matching the state's batch axes; inputs
    are clamped to [-pi, pi] before encoding.
    """
    if reps < 1:
        raise BadRepsError(f"reps must be >= 1, got {reps}")
    x = clamp_features(x)
    if x.shape[-1] != N_QUBITS:
        raise QuantumError(f"feature vector must have length {N_QUBITS}, got {x.shape}")
    for _ in range(reps):
        for q in range(N_QUBITS):
            state = apply_h(state, q)
        for q in range(N_QUBITS):
            state = apply_phase(state, q, 2.0 * x[..., q])
        for q in range(N_QUBITS - 1):
            pair_phase = 2.0 * (np.pi - x[..., q]) * (np.pi - x[..., q + 1])
            state = apply_cx(state, q, q + 1)
            state = apply_phase(state, q + 1, pair_phase)
            state = apply_cx(state, q, q + 1)
    return state


def efficient_su2(state, theta, reps=ANSATZ_REPS):
    """Hardware-efficient ansatz: [Ry layer, Rz layer, CX chain] x reps,
    then a final Ry and Rz layer.  Parameters are consumed layer by layer,
    qubit 0 first; 2*6*(reps+1) parameters total.
    """
    theta = np.asarray(theta, dtype=np.float64)
    expected = 2 * N_QUBITS * (reps + 1)
    if theta.shape != (expected,):
        raise BadThetaLengthError(f"theta must have length {expected}, got shape {theta.shape}")
    pos = 0
    for rep in range(reps + 1):
        for q in range(N_QUBITS):
            state = apply_ry(state, q, theta[pos])
            pos += 1
        for q in range(N_QUBITS):
            state = apply_rz(state, q, theta[pos])
            pos += 1
        if rep < reps:
            for q in range(N_QUBITS - 1):
                state = apply_cx(state, q, q + 1)
    return state


def state_norm_sq(state):
    return np.sum(np.abs(state) ** 2, axis=-1)


def z_expectations(state):
    """<Z_i> for every qubit; requires a unit-norm state."""
    norms = state_norm_sq(state)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise NonNormalizedStateError(f"state norm deviates from 1 by {np.max(np.abs(norms - 1.0)):.3e}")
    probs = np.abs(state) ** 2
    return probs @ _Z_SIGNS


def sampled_z_expectations(state, shots, rng):
    """Finite-shot estimate of <Z_i> from computational-basis samples."""
    if shots < 1:
        raise QuantumError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum(axis=-1, keepdims=True)
    if probs.ndim == 1:
        counts = rng.multinomial(shots, probs)
        return (counts @ _Z_SIGNS) / shots
    counts = np.stack([rng.multinomial(shots, row) for row in probs])
    return (counts @ _Z_SIGNS) / shots


def vqc_logit(expectations, scale=LOGIT_SCALE):
    """Parameter-free readout map: scale times the mean of the six <Z_i>."""
    z = np.asarray(expectations, dtype=np.float64)
    if z.shape[-1] != N_QUBITS:
        raise OutOfRangeError(f"expected {N_QUBITS} expectation values, got shape {z.shape}")
    if np.any(np.abs(z) > 1.0 + 1e-9):
        raise OutOfRangeError("expectation values must lie in [-1, 1]")
    return scale * z.mean(axis=-1)


def vqc_forward_batch(x, theta, shots=None, rng=None):
    """Circuit logits for a batch of feature vectors [B, 6] -> [B]."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    state = zero_state(batch=x.shape[0])
    state = zz_feature_map(state, x, reps=FEATURE_MAP_REPS)
    state = efficient_su2(state, theta, reps=ANSATZ_REPS)
    if shots is None:
        z = z_expectations(state)
    else:
        if rng is None:
            raise QuantumError("shot-noise mode needs an rng")
        z = sampled_z_expectations(state, shots, rng)
    return vqc_logit(z)


def vqc_forward(x, theta, shots=None, rng=None):
    """Single-sample logit: |0>^6 -> feature map -> ansatz -> Z readout."""
    return float(vqc_forward_batch(np.asarray(x, dtype=np.float64)[None, :], theta, shots, rng)[0])


def save_theta(path, theta, seed, extra=None):
    """Circuit checkpoint: the 36 angles plus the fixed circuit settings."""
    import json

    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (THETA_LENGTH,):
        raise BadThetaLengthError(f"theta must have length {THETA_LENGTH}, got shape {theta.shape}")
    doc = {
        "theta": theta.tolist(),
        "ansatz_reps": ANSATZ_REPS,
        "feature_map_reps": FEATURE_MAP_REPS,
        "kappa": LOGIT_SCALE,
        "seed": seed,
    }
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_theta(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    theta = np.asarray(doc["theta"], dtype=np.float64)
    if theta.shape != (THETA_LENGTH,):
        raise BadThetaLengthError(f"checkpoint theta has shape {theta.shape}")
    return theta, doc
