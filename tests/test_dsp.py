"""STFT/iSTFT, mel filterbank, decimator, and PCM conversion tests.

Transform results are checked against direct O(N^2) DFT evaluations
rather than against other FFT code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearstream.dsp import (
    DECIMATOR_PASS_EDGE,
    DECIMATOR_STOP_EDGE,
    DECIMATOR_TAPS,
    DEFAULT_HOP,
    DEFAULT_WIN,
    MelFilterbank,
    WaveBuffer,
    decimate_by_2,
    decimator_stopband_db,
    decimator_taps,
    float_to_int16,
    frame_count,
    hz_to_mel,
    int16_to_float,
    istft,
    mel_bin_assignment,
    mel_filterbank,
    mel_to_hz,
    stft,
)
from clearstream.pipeline import PipelineConfig, _Combiner

SR = 15625.0


def hann(n: int) -> np.ndarray:
    # periodic Hann, written out so the test does not share library code
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def dft_frame_oracle(x: np.ndarray, frame: int, hop: int, win: int) -> np.ndarray:
    """One STFT frame by explicit correlation with complex exponentials."""
    padded = np.zeros(frame * hop + win)
    seg = x[frame * hop : frame * hop + win]
    padded[frame * hop : frame * hop + len(seg)] = seg
    w = padded[frame * hop : frame * hop + win] * hann(win)
    n = np.arange(win)
    bins = np.zeros(win // 2 + 1, dtype=complex)
    for k in range(win // 2 + 1):
        bins[k] = np.sum(w * np.exp(-2j * np.pi * k * n / win))
    return bins


# -- stft ----------------------------------------------------------------


def test_stft_matches_direct_dft(rng):
    x = rng.standard_normal(900)
    spec = stft(x, hop=128, win_len=256)
    for frame in (0, 3, spec.time_bins - 1):
        want = dft_frame_oracle(x, frame, 128, 256)
        np.testing.assert_allclose(spec.data[:, frame], want, atol=1e-9)


def test_stft_constant_input_bin0_is_window_sum():
    x = np.ones(4 * DEFAULT_HOP + DEFAULT_WIN)
    spec = stft(x)
    # interior frame: fully covered by the constant signal
    assert abs(spec.data[0, 1]) == pytest.approx(hann(DEFAULT_WIN).sum(), rel=1e-12)


def test_stft_frame_count_22400():
    spec = stft(np.ones(22400))
    assert spec.time_bins == 64
    assert frame_count(22400) == 64


def test_stft_zero_input_zero_magnitudes():
    spec = stft(np.zeros(2000))
    assert np.all(spec.magnitude() == 0.0)


def test_stft_rejects_bad_args():
    with pytest.raises(ValueError):
        stft(np.zeros(0))
    with pytest.raises(ValueError):
        stft(np.ones(100), hop=512, win_len=256)
    with pytest.raises(ValueError):
        stft(np.ones((2, 100)))


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_stft_linearity(a, b, seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal(1500)
    y = r.standard_normal(1500)
    lhs = stft(a * x + b * y, hop=128, win_len=256).data
    rhs = a * stft(x, hop=128, win_len=256).data + b * stft(y, hop=128, win_len=256).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + abs(a) + abs(b)))


# -- istft ---------------------------------------------------------------


def test_roundtrip_interior_exact(rng):
    n = 20 * DEFAULT_HOP
    x = rng.standard_normal(n)
    y = istft(stft(x), out_len=n)
    peak = np.max(np.abs(x))
    interior = slice(DEFAULT_WIN, n - DEFAULT_WIN)
    assert np.max(np.abs(y[interior] - x[interior])) <= 1e-6 * peak
    # coverage normalization is healthy well before one window has passed
    assert np.max(np.abs(y[128:n] - x[128:n])) <= 1e-6 * peak


def test_roundtrip_multiple_window_sizes(rng):
    for hop, win in ((64, 256), (100, 400), (350, 1024)):
        n = 12 * hop
        x = rng.standard_normal(n)
        y = istft(stft(x, hop=hop, win_len=win), out_len=n)
        err = np.abs(y[win:] - x[win:])
        assert err.max() <= 1e-6 * np.abs(x).max()


def test_istft_zero_spectrogram_is_silence():
    spec = stft(np.ones(3000))
    spec.data[:] = 0.0
    assert np.all(istft(spec) == 0.0)


def test_istft_single_frame_dc_matches_inverse_dft_oracle():
    win = DEFAULT_WIN
    spec = stft(np.ones(DEFAULT_HOP))  # one frame
    assert spec.time_bins == 1
    spec.data[:] = 0.0
    spec.data[0, 0] = 7.5
    got = istft(spec, out_len=DEFAULT_HOP)

    # inverse DFT of a DC-only one-sided spectrum, evaluated longhand
    n = np.arange(win)
    full = np.zeros(win, dtype=complex)
    full[0] = 7.5
    y = np.array([np.sum(full * np.exp(2j * np.pi * k * n / win)) for k in range(win)])
    y = y.real / win
    w = hann(win)
    den = w * w
    floor = 0.01 * den.max()
    want = np.where(den >= floor, y * w / np.maximum(den, 1e-300), 0.0)[:DEFAULT_HOP]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_istft_out_len_pads_and_truncates(rng):
    x = rng.standard_normal(5 * DEFAULT_HOP)
    spec = stft(x)
    assert len(istft(spec, out_len=100)) == 100
    long = istft(spec, out_len=10_000)
    assert len(long) == 10_000
    assert np.all(long[5 * DEFAULT_HOP + DEFAULT_WIN :] == 0.0)


# -- mel filterbank -------------------------------------------------------


def test_mel_scale_1khz():
    assert hz_to_mel(1000.0) == pytest.approx(1000.1, abs=0.5)
    assert mel_to_hz(hz_to_mel(432.1)) == pytest.approx(432.1, rel=1e-12)


def test_filter_rows_are_unit_peak_triangles():
    fb = mel_filterbank()
    assert fb.weights.shape == (128, 513)
    assert np.all(fb.weights >= 0.0)
    np.testing.assert_allclose(fb.weights.max(axis=1), 1.0, atol=0)
    assert np.all(fb.weights.min(axis=1) == 0.0)


def test_filter_centers_increase():
    fb = mel_filterbank()
    centers = np.argmax(fb.weights, axis=1)
    assert np.all(np.diff(centers) >= 0)


def test_interior_column_sums_bounded():
    fb = mel_filterbank()
    centers = np.argmax(fb.weights, axis=1)
    sums = fb.weights.sum(axis=0)
    interior = sums[centers[0] : centers[-1] + 1]
    assert np.all(interior > 0.0)
    assert np.all(interior <= 2.0)


def test_mel_filterbank_rejects_too_many_filters():
    with pytest.raises(ValueError):
        mel_filterbank(n_mel=512, n_fft=1024)


# -- mel projection and mask expansion ------------------------------------
#
# The pipeline projects STFT frames onto the mel filters with
# _Combiner.mel_frames and expands a mel mask column to linear bins as
# col[mel_bin_assignment(fb)] in _Combiner.combine.


def _mel_frames(x: np.ndarray, first: int, k: int) -> np.ndarray:
    comb = _Combiner(PipelineConfig())
    return comb.mel_frames(x, first, np.empty((comb.fb.weights.shape[0], k)))


def test_mel_frames_zero_input():
    assert np.all(_mel_frames(np.zeros(4 * DEFAULT_HOP), 0, 4) == 0.0)


def test_mel_frames_match_stft(rng):
    """Column j is log1p of the filters times |stft(x)| frame first + j,
    the zero-padded tail frames included."""
    x = rng.standard_normal(6 * DEFAULT_HOP + 17)
    spec = stft(x)
    fb = mel_filterbank()
    for first in (0, 2):
        k = spec.time_bins - first
        want = np.log1p(fb.weights @ np.abs(spec.data[:, first:]))
        np.testing.assert_allclose(_mel_frames(x, first, k), want, rtol=0, atol=1e-12)


def test_mel_frames_tone_peaks_at_nearest_center():
    t = np.arange(8 * DEFAULT_HOP) / SR
    mel = _mel_frames(np.sin(2 * np.pi * 1000.0 * t), 0, 8)
    got = int(np.argmax(mel[:, 4]))

    # independent center table from the HTK formula
    pts = np.linspace(0.0, 2595.0 * np.log10(1.0 + SR / 2.0 / 700.0), 130)
    centers_hz = 700.0 * (10.0 ** (pts[1:-1] / 2595.0) - 1.0)
    want = int(np.argmin(np.abs(centers_hz - 1000.0)))
    assert abs(got - want) <= 1


def test_mel_frames_monotone_in_magnitude(rng):
    x = rng.standard_normal(6 * DEFAULT_HOP)
    assert np.all(_mel_frames(3.0 * x, 0, 6) >= _mel_frames(x, 0, 6) - 1e-15)


def _lowest_max_filter(weights: np.ndarray, b: int) -> int:
    """Brute force: the lowest-index filter holding column b's maximum."""
    col = weights[:, b]
    return next(m for m in range(len(col)) if col[m] == col.max())


def test_mask_expand_trivial_and_single_bin():
    """Each linear bin takes the mask value of a filter holding its
    column maximum."""
    fb = mel_filterbank()
    assign = mel_bin_assignment(fb)
    assert assign.shape == (fb.weights.shape[1],)
    for b in range(len(assign)):
        assert assign[b] == _lowest_max_filter(fb.weights, b)
    assert np.all(np.ones(128)[assign] == 1.0)
    assert np.all(np.zeros(128)[assign] == 0.0)


def test_mask_expand_stays_binary(rng):
    """Ties, the all-zero DC column among them, go to the lowest index,
    and a binary mel mask expands to a binary one."""
    fb = mel_filterbank()
    assign = mel_bin_assignment(fb)
    assert np.all(fb.weights[:, 0] == 0.0) and assign[0] == 0
    tied = MelFilterbank(
        np.array([[0.0, 1.0, 0.5, 0.0], [0.0, 1.0, 0.5, 1.0], [0.0, 0.0, 0.5, 1.0]]),
        sample_rate=SR, n_fft=6,
    )
    assert mel_bin_assignment(tied).tolist() == [0, 0, 0, 1]
    mask = (rng.random((128, 3)) > 0.5).astype(float)
    assert set(np.unique(mask[assign])) <= {0.0, 1.0}


# -- decimator -------------------------------------------------------------


def test_decimator_taps_equal_their_design():
    """The pinned taps are bit-equal to the remez design they were written
    from, and symmetric and read-only."""
    from scipy.signal import remez

    design = remez(DECIMATOR_TAPS,
                   [0.0, DECIMATOR_PASS_EDGE, DECIMATOR_STOP_EDGE, 0.5],
                   [1.0, 0.0], fs=1.0)
    taps = decimator_taps()
    assert np.array_equal(taps, design / design.sum())
    assert np.array_equal(taps, taps[::-1])
    assert not taps.flags.writeable


def test_decimate_lengths_and_errors():
    assert len(decimate_by_2(np.zeros(180))) == 90
    with pytest.raises(ValueError):
        decimate_by_2(np.zeros(181))
    with pytest.raises(ValueError):
        decimate_by_2(np.zeros((2, 90)))


def test_decimate_dc_gain():
    y = decimate_by_2(np.ones(400))
    assert np.abs(y[20:-20] - 1.0).max() <= 1e-6  # taps normalized to unity DC


def test_decimate_stopband_tone_attenuated_40db():
    t = np.arange(4000) / 31250.0
    x = np.sin(2 * np.pi * 11000.0 * t)  # above the 7812.5 Hz output Nyquist
    y = decimate_by_2(x)
    in_rms = np.sqrt(np.mean(x[500:-500] ** 2))
    out_rms = np.sqrt(np.mean(y[250:-250] ** 2))
    assert 20 * np.log10(in_rms / out_rms) >= 40.0
    assert decimator_stopband_db() >= 40.0


def test_decimate_impulse_delay():
    x = np.zeros(200)
    x[60] = 1.0
    y = decimate_by_2(x)
    assert int(np.argmax(np.abs(y))) == 30


def test_decimate_never_amplifies_bandlimited(rng):
    t = np.arange(2000) / 31250.0
    x = sum(np.sin(2 * np.pi * f * t + p) for f, p in ((300, 0.3), (1200, 1.0), (4000, 2.2)))
    y = decimate_by_2(x)
    assert np.sqrt(np.mean(y**2)) <= 1.01 * np.sqrt(np.mean(x**2))


# -- PCM conversion ---------------------------------------------------------


def test_pcm_roundtrip_exact_on_grid():
    ints = np.array([-32768, -32767, -1, 0, 1, 12345, 32767], dtype=np.int16)
    assert np.array_equal(float_to_int16(int16_to_float(ints)), ints)


def test_pcm_saturates():
    out = float_to_int16(np.array([-2.0, 2.0]))
    assert out.tolist() == [-32768, 32767]


def test_wavebuffer_validation():
    with pytest.raises(ValueError):
        WaveBuffer(np.zeros((3, 10)))
    with pytest.raises(ValueError):
        WaveBuffer(np.array([np.nan, 0.0]))
    buf = WaveBuffer(np.zeros(10), sample_rate=SR)
    assert buf.channels == 1 and buf.n_samples == 10
