"""Wavelet denoising of single-lead ECG windows, and the window CSV format.

The discrete wavelet transform here is the orthogonal two-channel filter
bank (haar or db4) run on a symmetric extension of the signal.  Analysis
keeps every coefficient whose filter support touches the original samples,
which makes synthesis an exact orthonormal expansion: reconstruction error
is at machine precision for any signal length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

WINDOW_LENGTH = 256


class SignalError(Exception):
    pass


class TooShortError(SignalError):
    pass


class UnknownWaveletError(SignalError):
    pass


class MalformedCoeffsError(SignalError):
    pass


class EmptyInputError(SignalError):
    pass


class BadNError(SignalError):
    pass


class NegativeLambdaError(SignalError):
    pass


class WindowFileError(SignalError):
    pass


_HAAR = np.array([1.0, 1.0]) / np.sqrt(2.0)
# Daubechies 4-vanishing-moment scaling filter, polished to machine
# precision against the orthonormality and moment conditions.
_DB4 = np.array([
    0.2303778133088968,
    0.7148465705529159,
    0.6308807679298585,
    -0.027983769416860236,
    -0.18703481171909292,
    0.030841381835560837,
    0.032883011666885155,
    -0.01059740178506903,
])

_FILTERS = {"haar": _HAAR, "db4": _DB4}


def _scaling_filter(wavelet):
    try:
        return _FILTERS[wavelet]
    except KeyError:
        raise UnknownWaveletError(f"unknown wavelet {wavelet!r}; expected one of {sorted(_FILTERS)}") from None


def _wavelet_filter(h):
    # Quadrature mirror: g[j] = (-1)^j h[L-1-j]
    length = len(h)
    return ((-1.0) ** np.arange(length)) * h[::-1]


@dataclass(frozen=True)
class RawSignal:
    """A finite real signal of length >= 2."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise TooShortError(f"signal must be 1-D with length >= 2, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise SignalError("signal contains non-finite samples")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class WaveletCoeffs:
    """Pyramid of one approximation band plus per-level detail bands.

    ``details`` is ordered coarse to fine; ``lengths`` records the analyzed
    length at each level so the inverse can undo the boundary extension
    exactly.
    """

    approx: np.ndarray
    details: list
    wavelet_name: str
    levels: int
    lengths: list = field(default_factory=list)


def _analyze_once(x, h, g):
    length = len(h)
    n = len(x)
    k_max = (n + length - 3) // 2
    n_ext = 2 * k_max + length
    left = length - 2
    right = n_ext - n - left
    parts = []
    if left:
        parts.append(x[:left][::-1])
    parts.append(x)
    if right:
        parts.append(x[n - right :][::-1])
    ext = np.concatenate(parts) if len(parts) > 1 else x
    windows = np.lib.stride_tricks.sliding_window_view(ext, length)[:: 2][: k_max + 1]
    return windows @ h, windows @ g


def _synthesize_once(approx, detail, h, g, n):
    length = len(h)
    left = length - 2
    n_ext = 2 * (len(approx) - 1) + length
    full = np.zeros(n_ext)
    for shift in range(length):
        full[shift : shift + 2 * len(approx) : 2] += approx * h[shift] + detail * g[shift]
    return full[left : left + n]


def dwt_forward(signal: RawSignal, wavelet: str = "db4", levels: int = 4) -> WaveletCoeffs:
    """Multi-level DWT of a signal with symmetric boundary extension.

    Args:
        signal: input signal, length >= 2**levels.
        wavelet: "haar" or "db4".
        levels: number of detail bands to produce (>= 1).

    Returns:
        WaveletCoeffs with ``levels`` detail bands, coarse to fine.
    """
    h = _scaling_filter(wavelet)
    if levels < 1:
        raise TooShortError(f"levels must be >= 1, got {levels}")
    x = signal.samples
    if len(x) < 2 ** levels:
        raise TooShortError(f"signal of length {len(x)} too short for {levels} levels")
    g = _wavelet_filter(h)
    details = []
    lengths = []
    current = x
    for _ in range(levels):
        if len(current) < len(h):
            raise TooShortError(
                f"band of length {len(current)} shorter than the {wavelet} filter ({len(h)} taps)"
            )
        lengths.append(len(current))
        current, detail = _analyze_once(current, h, g)
        details.append(detail)
    details.reverse()  # coarse -> fine
    return WaveletCoeffs(approx=current, details=details, wavelet_name=wavelet, levels=levels, lengths=lengths)


def dwt_inverse(coeffs: WaveletCoeffs) -> RawSignal:
    """Exact inverse of :func:`dwt_forward`."""
    h = _scaling_filter(coeffs.wavelet_name)
    g = _wavelet_filter(h)
    if len(coeffs.details) != coeffs.levels or len(coeffs.lengths) != coeffs.levels:
        raise MalformedCoeffsError("detail band count does not match levels")
    current = np.asarray(coeffs.approx, dtype=np.float64)
    for level in range(coeffs.levels - 1, -1, -1):
        detail = np.asarray(coeffs.details[coeffs.levels - 1 - level], dtype=np.float64)
        if len(detail) != len(current):
            raise MalformedCoeffsError(
                f"band length mismatch at level {level + 1}: approx {len(current)} vs detail {len(detail)}"
            )
        n = coeffs.lengths[level]
        expected = (n + len(h) - 3) // 2 + 1
        if len(current) != expected:
            raise MalformedCoeffsError(
                f"band length {len(current)} inconsistent with analyzed length {n}"
            )
        current = _synthesize_once(current, detail, h, g, n)
    return RawSignal(samples=current)


def mad_sigma(finest_details) -> float:
    """Robust noise estimate: median(|d|) / 0.6745."""
    d = np.asarray(finest_details, dtype=np.float64)
    if d.size == 0:
        raise EmptyInputError("mad_sigma needs a nonempty sequence")
    return float(np.median(np.abs(d)) / 0.6745)


def universal_threshold(sigma: float, n: int) -> float:
    """Shrinkage threshold sigma * sqrt(2 ln n)."""
    if n < 2:
        raise BadNError(f"n must be >= 2, got {n}")
    if sigma < 0:
        raise SignalError("sigma must be nonnegative")
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def soft_threshold(coeffs, lam: float):
    """sign(c) * max(|c| - lam, 0) elementwise."""
    if lam < 0:
        raise NegativeLambdaError(f"threshold must be nonnegative, got {lam}")
    c = np.asarray(coeffs, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)


def denoise(signal: RawSignal, wavelet: str = "db4", levels: int = 4) -> RawSignal:
    """Wavelet shrinkage denoising.

    Decomposes, estimates the noise scale from the finest detail band,
    soft-thresholds every detail band with the universal threshold for the
    full signal length, and reconstructs.  The approximation band is left
    untouched.
    """
    coeffs = dwt_forward(signal, wavelet, levels)
    sigma = mad_sigma(coeffs.details[-1])
    lam = universal_threshold(sigma, len(signal.samples))
    thresholded = [soft_threshold(d, lam) for d in coeffs.details]
    return dwt_inverse(replace(coeffs, details=thresholded))


# ---------------------------------------------------------------------------
# Window file format: CSV with header "label,s0,...,s255", one window per
# row, label in {0,1}, samples as decimal floats, LF line endings.
# ---------------------------------------------------------------------------

WINDOW_HEADER = "label," + ",".join(f"s{i}" for i in range(WINDOW_LENGTH))


def save_window_csv(path, samples, labels):
    """Write windows [N, 256] and labels [N] to the window CSV format."""
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels)
    if samples.ndim != 2 or samples.shape[1] != WINDOW_LENGTH:
        raise WindowFileError(f"expected samples of shape [N, {WINDOW_LENGTH}], got {samples.shape}")
    if labels.shape != (samples.shape[0],):
        raise WindowFileError("label count does not match window count")
    lines = [WINDOW_HEADER]
    for row, label in zip(samples, labels):
        lines.append(str(int(label)) + "," + ",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_window_csv(path):
    """Read a window CSV; returns (samples [N, 256] float64, labels [N] int)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != WINDOW_HEADER:
                raise WindowFileError(f"bad header in {path}: expected 'label,s0,...,s255'")
            samples = []
            labels = []
            for line_no, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != WINDOW_LENGTH + 1:
                    raise WindowFileError(f"{path}:{line_no}: expected {WINDOW_LENGTH + 1} fields, got {len(fields)}")
                try:
                    label = int(fields[0])
                    row = np.array(fields[1:], dtype=np.float64)
                except ValueError as exc:
                    raise WindowFileError(f"{path}:{line_no}: unparsable value ({exc})") from None
                if label not in (0, 1):
                    raise WindowFileError(f"{path}:{line_no}: label must be 0 or 1, got {label}")
                if not np.all(np.isfinite(row)):
                    raise WindowFileError(f"{path}:{line_no}: non-finite sample")
                samples.append(row)
                labels.append(label)
    except UnicodeDecodeError as exc:
        raise WindowFileError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not samples:
        raise WindowFileError(f"{path}: no data rows")
    return np.stack(samples), np.array(labels, dtype=np.int64)
