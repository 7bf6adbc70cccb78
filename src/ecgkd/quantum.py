"""Exact statevector simulation of the 6-qubit circuit student.

States are complex128 arrays whose last axis has length 64; leading axes
are broadcast batch dimensions.  Qubit 0 is the least significant bit of
the basis index.  The circuit is simulated from its structure rather than
gate by gate: each feature-map repetition is one product with the
Walsh-Hadamard matrix of H on every qubit followed by one diagonal phase,
and the ansatz folds into one 64x64 matrix built from Kronecker products
of the per-qubit Rz.Ry rotations and a fixed basis permutation for the
CX chain.
"""

from __future__ import annotations

import numpy as np

N_QUBITS = 6
DIM = 2 ** N_QUBITS
ANSATZ_REPS = 2
FEATURE_MAP_REPS = 2
THETA_LENGTH = 2 * N_QUBITS * (ANSATZ_REPS + 1)
LOGIT_SCALE = 32.0


class QuantumError(Exception):
    pass


class BadRepsError(QuantumError):
    pass


class BadThetaLengthError(QuantumError):
    pass


class NonNormalizedStateError(QuantumError):
    pass


class OutOfRangeError(QuantumError):
    pass


class BadThetaFileError(QuantumError):
    pass


# _BITS[b, q] = bit q of basis index b
_BITS = (np.arange(DIM)[:, None] >> np.arange(N_QUBITS)) & 1
# sign[b, i] = +1 if bit i of b is 0 else -1
_Z_SIGNS = 1.0 - 2.0 * _BITS
# H on every qubit: (-1)^popcount(b & c) / 8, real and symmetric; stored
# complex so that applying it is a single complex matrix product.
_H_ALL = ((1.0 - 2.0 * ((_BITS @ _BITS.T) & 1)) / 8.0).astype(np.complex128)
# Rows: the bits b_q, then the parities b_q xor b_{q+1}.  CX(q, q+1) P(phi)
# CX(q, q+1) is the phase phi on that parity, so every gate of the feature
# map after its Hadamards is one diagonal phase over these 11 rows.
_PHASE_TABLE = np.hstack([_BITS, _BITS[:, :-1] ^ _BITS[:, 1:]]).T.astype(np.float64)

# CX(0,1) ... CX(4,5), applied in that order, sends basis b to c with c_k the
# parity of b_0..b_k, so b_k = c_k xor c_{k-1}: chain(state) is
# state[..., _CX_CHAIN].
_CX_CHAIN = (np.arange(DIM) ^ (np.arange(DIM) << 1)) & (DIM - 1)


def zero_state(batch=None):
    """|0...0> amplitudes, optionally with a leading batch axis."""
    shape = (DIM,) if batch is None else (batch, DIM)
    state = np.zeros(shape, dtype=np.complex128)
    state[..., 0] = 1.0
    return state


def zz_feature_map(state, x, reps=FEATURE_MAP_REPS):
    """Data-encoding circuit: Hadamards, single-qubit phases 2*x_i, and
    pairwise phases 2*(pi - x_i)*(pi - x_j) on adjacent qubits.

    ``x`` has shape [6] or [B, 6] matching the state's batch axes; inputs
    are clamped to [-pi, pi] so that the 2*pi periodic phases do not alias.
    """
    if reps < 1:
        raise BadRepsError(f"reps must be >= 1, got {reps}")
    x = np.clip(np.asarray(x, dtype=np.float64), -np.pi, np.pi)
    if x.shape[-1] != N_QUBITS:
        raise QuantumError(f"feature vector must have length {N_QUBITS}, got {x.shape}")
    weights = np.concatenate([x, (np.pi - x[..., :-1]) * (np.pi - x[..., 1:])], axis=-1)
    phase = np.exp(2j * (weights @ _PHASE_TABLE))
    for _ in range(reps):
        state = (state @ _H_ALL) * phase
    return state


def _rotation_layers(angles):
    """Transposed 64x64 matrices of the rotation layers.

    ``angles[l, 0, q]`` is layer l's Ry angle and ``angles[l, 1, q]`` its Rz
    angle on qubit q; each layer is the Kronecker product of the 2x2 blocks
    Rz.Ry with qubit 0 as the last factor.
    """
    half_ry, half_rz = angles[:, 0] / 2.0, angles[:, 1] / 2.0
    c, s = np.cos(half_ry), np.sin(half_ry)
    lo, hi = np.exp(-1j * half_rz), np.exp(1j * half_rz)
    # blocks[l, q] = (Rz.Ry)^T = [[lo c, hi s], [-lo s, hi c]]
    blocks = np.stack([np.stack([lo * c, hi * s], -1), np.stack([-lo * s, hi * c], -1)], -2)
    layers = blocks[:, N_QUBITS - 1]
    for q in range(N_QUBITS - 2, -1, -1):
        size = 2 * layers.shape[-1]
        layers = (layers[:, :, None, :, None] * blocks[:, q, None, :, None, :]).reshape(-1, size, size)
    return layers


def efficient_su2(state, theta, reps=ANSATZ_REPS):
    """Hardware-efficient ansatz: [Ry layer, Rz layer, CX chain] x reps,
    then a final Ry and Rz layer.  Parameters are consumed layer by layer,
    qubit 0 first; 2*6*(reps+1) parameters total.
    """
    theta = np.asarray(theta, dtype=np.float64)
    expected = 2 * N_QUBITS * (reps + 1)
    if theta.shape != (expected,):
        raise BadThetaLengthError(f"theta must have length {expected}, got shape {theta.shape}")
    layers = _rotation_layers(theta.reshape(reps + 1, 2, N_QUBITS))
    # Row states evolve as state @ M, with M the transpose of the unitary.
    m = layers[0]
    for layer in layers[1:]:
        m = m[:, _CX_CHAIN] @ layer
    return state @ m


def z_expectations(state):
    """<Z_i> for every qubit; requires a unit-norm state."""
    probs = np.abs(state) ** 2
    deviation = np.abs(probs.sum(axis=-1) - 1.0)
    if np.any(deviation > 1e-9):
        raise NonNormalizedStateError(f"state norm deviates from 1 by {np.max(deviation):.3e}")
    return probs @ _Z_SIGNS


def sampled_z_expectations(state, shots, rng):
    """Finite-shot estimate of <Z_i> from computational-basis samples."""
    if shots < 1:
        raise QuantumError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum(axis=-1, keepdims=True)
    counts = rng.multinomial(shots, probs)
    return (counts @ _Z_SIGNS) / shots


def vqc_logit(expectations):
    """Parameter-free readout map: LOGIT_SCALE times the mean of the six <Z_i>."""
    z = np.asarray(expectations, dtype=np.float64)
    if z.shape[-1] != N_QUBITS:
        raise OutOfRangeError(f"expected {N_QUBITS} expectation values, got shape {z.shape}")
    if np.any(np.abs(z) > 1.0 + 1e-9):
        raise OutOfRangeError("expectation values must lie in [-1, 1]")
    return LOGIT_SCALE * z.mean(axis=-1)


def vqc_forward_batch(x, theta, shots=0, rng=None):
    """Circuit logits for a batch of feature vectors [B, 6] -> [B]; ``shots``
    0 reads the exact expectations, a positive count samples that many."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    state = zero_state(batch=x.shape[0])
    state = zz_feature_map(state, x, reps=FEATURE_MAP_REPS)
    state = efficient_su2(state, theta, reps=ANSATZ_REPS)
    if shots == 0:
        z = z_expectations(state)
    else:
        if rng is None:
            raise QuantumError("shot-noise mode needs an rng")
        z = sampled_z_expectations(state, shots, rng)
    return vqc_logit(z)


def vqc_forward(x, theta, shots=0, rng=None):
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
    """(theta, document) from a circuit checkpoint.  Text that is not JSON,
    a missing ``theta`` key or angles that are not finite numbers raise
    BadThetaFileError naming ``path``."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        theta = np.asarray(doc["theta"], dtype=np.float64)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise BadThetaFileError(f"unreadable circuit checkpoint {path}: {exc!r}") from None
    if theta.shape != (THETA_LENGTH,):
        raise BadThetaLengthError(f"checkpoint theta in {path} has shape {theta.shape}")
    if not all(type(v) in (int, float) for v in doc["theta"]) or not np.all(np.isfinite(theta)):
        raise BadThetaFileError(f"circuit checkpoint {path} has angles that are not finite numbers")
    return theta, doc
