import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgkd.signal import (
    BadNError,
    EmptyInputError,
    MalformedCoeffsError,
    NegativeLambdaError,
    RawSignal,
    SignalError,
    TooShortError,
    UnknownWaveletError,
    WaveletCoeffs,
    WindowFileError,
    denoise,
    dwt_forward,
    dwt_inverse,
    load_window_csv,
    mad_sigma,
    save_window_csv,
    soft_threshold,
    universal_threshold,
)


def test_haar_pair_example():
    coeffs = dwt_forward(RawSignal([1.0, 1.0]), "haar", 1)
    assert coeffs.approx == pytest.approx([np.sqrt(2.0)], abs=1e-12)
    assert coeffs.details[0] == pytest.approx([0.0], abs=1e-12)


def test_haar_pair_detail_formula():
    x0, x1 = 2.0, -1.5
    coeffs = dwt_forward(RawSignal([x0, x1]), "haar", 1)
    assert coeffs.approx[0] == pytest.approx((x0 + x1) / np.sqrt(2.0))
    assert coeffs.details[0][0] == pytest.approx((x0 - x1) / np.sqrt(2.0))


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
def test_constant_signal_has_zero_details(wavelet):
    coeffs = dwt_forward(RawSignal(np.full(64, 3.7)), wavelet, 2)
    for band in coeffs.details:
        assert np.max(np.abs(band)) < 1e-12


@pytest.mark.parametrize("wavelet", ["haar", "db4"])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_perfect_reconstruction_256(wavelet, levels):
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.standard_normal(256) * 3.0
        coeffs = dwt_forward(RawSignal(x), wavelet, levels)
        back = dwt_inverse(coeffs)
        assert np.max(np.abs(back.samples - x)) < 1e-9


@pytest.mark.parametrize("n", [8, 9, 33, 100, 255, 257])
def test_perfect_reconstruction_odd_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    coeffs = dwt_forward(RawSignal(x), "db4", 1)
    assert np.max(np.abs(dwt_inverse(coeffs).samples - x)) < 1e-9


def test_inverse_of_zero_coeffs_is_zero():
    coeffs = dwt_forward(RawSignal(np.zeros(32)), "haar", 2)
    back = dwt_inverse(coeffs)
    assert np.max(np.abs(back.samples)) == 0.0


def test_dwt_forward_errors():
    with pytest.raises(UnknownWaveletError):
        dwt_forward(RawSignal([1.0, 2.0, 3.0, 4.0]), "sym8", 1)
    with pytest.raises(TooShortError):
        dwt_forward(RawSignal([1.0, 2.0]), "haar", 2)
    with pytest.raises(TooShortError):
        dwt_forward(RawSignal(np.arange(4.0)), "db4", 1)


def test_raw_signal_invariants():
    with pytest.raises(TooShortError):
        RawSignal([1.0])
    with pytest.raises(SignalError):
        RawSignal([1.0, np.nan])


def test_malformed_coeffs_rejected():
    coeffs = dwt_forward(RawSignal(np.arange(32.0)), "haar", 2)
    broken = WaveletCoeffs(
        approx=coeffs.approx,
        details=[coeffs.details[0][:-1], coeffs.details[1]],
        wavelet_name="haar",
        levels=2,
        lengths=coeffs.lengths,
    )
    with pytest.raises(MalformedCoeffsError):
        dwt_inverse(broken)


def test_mad_sigma_examples():
    assert mad_sigma([1, -1, 2, -2, 3]) == pytest.approx(2.0 / 0.6745, rel=1e-12)
    assert mad_sigma(np.zeros(10)) == 0.0
    assert mad_sigma([-4.2]) == pytest.approx(4.2 / 0.6745, rel=1e-12)
    with pytest.raises(EmptyInputError):
        mad_sigma([])


def test_universal_threshold_examples():
    assert universal_threshold(1.0, 1024) == pytest.approx(np.sqrt(2 * np.log(1024)), rel=1e-12)
    assert universal_threshold(1.0, 1024) == pytest.approx(3.7233, abs=5e-5)
    assert universal_threshold(0.0, 77) == 0.0
    assert universal_threshold(2.0, 8) == pytest.approx(2 * np.sqrt(2 * np.log(8)), rel=1e-12)
    assert universal_threshold(2.0, 8) == pytest.approx(4.07867, abs=5e-5)
    with pytest.raises(BadNError):
        universal_threshold(1.0, 1)


def test_soft_threshold_examples():
    out = soft_threshold([3.0, -0.5, -3.0], 1.0)
    assert out == pytest.approx([2.0, 0.0, -2.0])
    with pytest.raises(NegativeLambdaError):
        soft_threshold([1.0], -0.1)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=50),
    st.floats(0, 50),
)
@settings(max_examples=200, deadline=None)
def test_soft_threshold_odd_and_contractive(values, lam):
    c = np.array(values)
    out = soft_threshold(c, lam)
    flipped = soft_threshold(-c, lam)
    assert np.allclose(flipped, -out, atol=1e-12)
    assert np.all(np.abs(out) <= np.abs(c) + 1e-12)


def test_denoise_constant_unchanged():
    x = np.full(256, 2.5)
    out = denoise(RawSignal(x), "db4", 4)
    assert np.max(np.abs(out.samples - x)) < 1e-9


def test_denoise_zero_signal():
    out = denoise(RawSignal(np.zeros(256)), "haar", 3)
    assert np.max(np.abs(out.samples)) < 1e-12


def test_denoise_improves_noisy_sinusoid():
    t = np.linspace(0, 4 * np.pi, 256)
    clean = np.sin(t)
    improved = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0.0, 0.2, 256)
        out = denoise(RawSignal(noisy), "db4", 4).samples
        if np.mean((out - clean) ** 2) < np.mean((noisy - clean) ** 2):
            improved += 1
    assert improved > 10


def test_denoise_near_idempotent_on_smooth_signal():
    x = np.full(256, 1.0)
    once = denoise(RawSignal(x), "db4", 4)
    twice = denoise(once, "db4", 4)
    assert np.max(np.abs(twice.samples - once.samples)) < 1e-6


def test_window_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((7, 256))
    labels = np.array([0, 1, 1, 0, 1, 0, 0])
    path = tmp_path / "w.csv"
    save_window_csv(path, samples, labels)
    got_s, got_l = load_window_csv(path)
    assert np.array_equal(got_l, labels)
    assert np.array_equal(got_s, samples)


def test_window_csv_row_errors(tmp_path):
    path = tmp_path / "bad.csv"
    header = "label," + ",".join(f"s{i}" for i in range(256))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("0," + ",".join(["0.0"] * 255) + "\n")
    with pytest.raises(Exception) as err:
        load_window_csv(path)
    assert ":2:" in str(err.value)


def test_window_csv_non_utf8_names_file(tmp_path):
    path = tmp_path / "latin1.csv"
    header = "label," + ",".join(f"s{i}" for i in range(256))
    path.write_bytes(header.encode() + b"\n0," + b",".join([b"0.0"] * 255) + b",\xb5\n")
    with pytest.raises(WindowFileError, match="latin1.csv"):
        load_window_csv(path)
