"""Seeded two-class pseudo-ECG window generator.

Class 0 is a strictly periodic train of Gaussian bumps (period 64
samples); class 1 uses irregular inter-bump intervals (uniform integer
jitter of up to 16 samples) with every other bump attenuated by 20
percent.  Additive Gaussian noise on top.  Windows are beat-centered:
the anchor bump sits near sample 32 with a small trigger wobble, the way
a beat-triggered cutter would place it.  The rhythm irregularity and
amplitude alternation give the label a morphology-plus-timing character
instead of a single trivial cue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import WINDOW_LENGTH

BUMP_PERIOD = 64
BUMP_WIDTH = 3.0
BUMP_SUPPORT = 3.0  # bump radius in widths; compact support keeps the
                    # inter-bump baseline exactly flat
JITTER = 16
ATTENUATION = 0.8
ANCHOR = 32.0
TRIGGER_WOBBLE = 2.0

_EDGE = np.exp(-0.5 * BUMP_SUPPORT ** 2)


class BadSpecError(Exception):
    pass


@dataclass(frozen=True)
class SynthSpec:
    """Size, class balance, noise level, and seed of a synthetic dataset."""

    n_windows: int
    balance: float = 0.5
    noise_sigma: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_windows < 50:
            raise BadSpecError(f"n_windows must be >= 50 (10 per default fold), got {self.n_windows}")
        if not 0.0 < self.balance < 1.0:
            raise BadSpecError(f"balance must be in (0, 1), got {self.balance}")
        if self.noise_sigma < 0:
            raise BadSpecError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if self.seed < 0:
            raise BadSpecError(f"seed must be nonnegative, got {self.seed}")


def _bump_window(rng, label):
    t = np.arange(WINDOW_LENGTH, dtype=np.float64)
    window = np.zeros(WINDOW_LENGTH)
    offset = ANCHOR + rng.uniform(-TRIGGER_WOBBLE, TRIGGER_WOBBLE)
    pos = offset - BUMP_PERIOD
    bump_index = 0
    while pos < WINDOW_LENGTH + BUMP_PERIOD:
        amp = 1.0
        if label == 1 and bump_index % 2 == 1:
            amp = ATTENUATION
        gauss = np.exp(-((t - pos) ** 2) / (2.0 * BUMP_WIDTH ** 2))
        window += amp * np.maximum(0.0, gauss - _EDGE) / (1.0 - _EDGE)
        if label == 0:
            pos += BUMP_PERIOD
        else:
            pos += BUMP_PERIOD + rng.integers(-JITTER, JITTER + 1)
        bump_index += 1
    return window


def generate_windows(spec: SynthSpec):
    """Return (samples [N, 256], labels [N]) for the given spec."""
    rng = np.random.default_rng(spec.seed)
    n_pos = int(round(spec.n_windows * spec.balance))
    labels = np.array([1] * n_pos + [0] * (spec.n_windows - n_pos), dtype=np.int64)
    rng.shuffle(labels)
    samples = np.empty((spec.n_windows, WINDOW_LENGTH))
    for i, label in enumerate(labels):
        row = _bump_window(rng, int(label))
        if spec.noise_sigma > 0:
            row = row + rng.normal(0.0, spec.noise_sigma, WINDOW_LENGTH)
        samples[i] = row
    return samples, labels
