"""Shared signal-processing primitives for the enhancement stack.

Everything here is deliberately plain numpy: fixed-configuration
STFT/iSTFT with weighted overlap-add, an HTK-style mel filterbank, the
half-band decimator used by the PCM front end (its taps a pinned
constant; the recipe is beside them), and PCM sample-format
conversions.  The neural engines and the evaluation code all build on
these functions, so their conventions (frame placement, zero padding,
normalization) are pinned down once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_SAMPLE_RATE = 15625.0
DEFAULT_HOP = 350
DEFAULT_WIN = 1024
DEFAULT_N_MEL = 128

# Denominator floor for weighted overlap-add; samples whose window-power
# sum falls below this (only the very outermost edge samples) come back 0.
_WOLA_EPS = 1e-12
# edge samples with window coverage below this fraction of the peak are
# zeroed in istft rather than divided up (see istft docstring)
_WOLA_FLOOR_RATIO = 1e-2


@dataclass
class WaveBuffer:
    """A mono or stereo float waveform with its sample rate.

    data is (channels, n_samples) float64.  Channel 0 is left.
    """

    data: np.ndarray
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        self.data = np.atleast_2d(np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 2:
            raise ValueError("WaveBuffer data must be 1-D or 2-D")
        if self.data.shape[0] not in (1, 2):
            raise ValueError(
                f"WaveBuffer supports 1 or 2 channels, got {self.data.shape[0]}"
            )
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("WaveBuffer amplitudes must be finite")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class ComplexSpectrogram:
    """One-sided STFT frames: data is (n_fft//2+1, time_bins) complex."""

    data: np.ndarray
    hop: int = DEFAULT_HOP
    win_len: int = DEFAULT_WIN
    sample_rate: float = DEFAULT_SAMPLE_RATE

    @property
    def time_bins(self) -> int:
        return self.data.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.data)


@dataclass
class MelFilterbank:
    """Triangular mel filters: weights is (n_mel, n_fft//2+1), row peak 1."""

    weights: np.ndarray
    sample_rate: float
    n_fft: int


@lru_cache(maxsize=8)
def _hann_periodic(win_len: int) -> np.ndarray:
    n = np.arange(win_len)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / win_len)
    w.flags.writeable = False
    return w


def frame_count(n_samples: int, hop: int = DEFAULT_HOP) -> int:
    """Number of STFT frames for a signal: ceil(n_samples / hop)."""
    return -(-n_samples // hop)


def stft(
    x: np.ndarray,
    hop: int = DEFAULT_HOP,
    win_len: int = DEFAULT_WIN,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> ComplexSpectrogram:
    """Short-time Fourier transform with end-of-signal zero padding.

    Frame t covers samples [t*hop, t*hop + win_len) of the zero-padded
    signal and is weighted by a periodic Hann window before the FFT.
    There is no centering pre-pad: frame 0 starts at sample 0.

    Parameters
    ----------
    x : 1-D array of samples.
    hop, win_len : frame advance and window length in samples.

    Returns
    -------
    ComplexSpectrogram with ceil(len(x)/hop) time bins.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a 1-D signal")
    if len(x) == 0:
        raise ValueError("stft expects a non-empty signal")
    if hop <= 0 or win_len <= 0 or hop > win_len:
        raise ValueError("need 0 < hop <= win_len")
    n_frames = frame_count(len(x), hop)
    padded = np.zeros((n_frames - 1) * hop + win_len, dtype=np.float64)
    padded[: len(x)] = x
    idx = np.arange(win_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = padded[idx] * _hann_periodic(win_len)[None, :]
    spec = np.fft.rfft(frames, axis=1).T
    return ComplexSpectrogram(spec, hop=hop, win_len=win_len, sample_rate=sample_rate)


def istft(spec: ComplexSpectrogram, out_len: int | None = None) -> np.ndarray:
    """Inverse STFT by weighted overlap-add with window-power normalization.

    Reconstruction is exact (to rounding) at every interior sample.  At
    the outermost edges the summed squared window vanishes and the
    normalizing division would amplify whatever a masked or modified
    spectrogram left there, so samples whose window coverage falls
    below 1% of the peak coverage are zeroed instead.  Output is
    truncated or zero-padded to out_len (default hop*time_bins).
    """
    hop, win_len = spec.hop, spec.win_len
    n_frames = spec.time_bins
    win = _hann_periodic(win_len)
    frames = np.fft.irfft(spec.data.T, n=win_len, axis=1) * win[None, :]
    total = (n_frames - 1) * hop + win_len
    acc = np.zeros(total)
    den = np.zeros(total)
    win_sq = win * win
    for t in range(n_frames):
        acc[t * hop : t * hop + win_len] += frames[t]
        den[t * hop : t * hop + win_len] += win_sq
    floor = _WOLA_FLOOR_RATIO * float(den.max())
    out = np.where(den >= floor, acc / np.maximum(den, _WOLA_EPS), 0.0)
    if out_len is None:
        out_len = hop * n_frames
    if out_len <= total:
        return out[:out_len]
    return np.concatenate([out, np.zeros(out_len - total)])


def hz_to_mel(f):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mel: int = DEFAULT_N_MEL,
    n_fft: int = DEFAULT_WIN,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> MelFilterbank:
    """Build triangular mel filters over the one-sided FFT bins.

    Filter centers are equally spaced on the mel scale between 0 Hz and
    Nyquist.  Each row is rescaled so its peak over the discrete bins is
    exactly 1 (the triangles are not area-normalized).
    """
    if n_mel >= n_fft // 2:
        raise ValueError("n_mel must be < n_fft/2 so filters are wider than bins")
    n_bins = n_fft // 2 + 1
    mel_pts = np.linspace(0.0, float(hz_to_mel(sample_rate / 2.0)), n_mel + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_hz = np.arange(n_bins) * sample_rate / n_fft
    lo, ctr, hi = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    rising = (bin_hz[None, :] - lo) / np.maximum(ctr - lo, 1e-12)
    falling = (hi - bin_hz[None, :]) / np.maximum(hi - ctr, 1e-12)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    peaks = weights.max(axis=1, keepdims=True)
    if np.any(peaks <= 0):
        raise ValueError("degenerate mel filter (empty row); reduce n_mel")
    weights /= peaks
    return MelFilterbank(weights, sample_rate=sample_rate, n_fft=n_fft)


def mel_bin_assignment(fb: MelFilterbank) -> np.ndarray:
    """For each linear bin, the index of the mel filter with maximum weight.

    Ties (and all-zero columns such as DC) resolve to the lowest index.
    """
    return np.argmax(fb.weights, axis=0)


# Half-band decimator: 31-tap equiripple low-pass centered on 0.25*fs
# (= half the output Nyquist), normalized to exact unity DC gain.  Band
# edges leave ~45 dB in the stopband.  The taps are a pinned constant:
# the design is remez(DECIMATOR_TAPS, [0, DECIMATOR_PASS_EDGE,
# DECIMATOR_STOP_EDGE, 0.5], [1, 0], fs=1.0) divided by its sum, which is
# exactly symmetric, so only its first 16 taps are written out.
# tests/test_dsp.py re-runs the design and checks the bits.  Pinned, the
# filter does not change with the installed scipy, and enhancing capture-
# rate audio does not import scipy.signal (46 MB resident, 0.6 s).
DECIMATOR_TAPS = 31
DECIMATOR_PASS_EDGE = 0.18  # fraction of the input rate
DECIMATOR_STOP_EDGE = 0.32
_DECIMATOR_HALF = (
    -0.0005499068134942075, 4.578045587624481e-07,
    0.0020607050186751013, -1.3594576465215577e-06,
    -0.005514545979340436, 3.10122200891225e-06,
    0.01225186618646816, -5.320879976315187e-06,
    -0.024437271648725858, 7.780358340591192e-06,
    0.04669929243829734, -9.97150733421288e-06,
    -0.09505864712178456, 1.158197704213144e-05,
    0.31451211095668047, 0.500060254892461,
)


@lru_cache(maxsize=1)
def decimator_taps() -> np.ndarray:
    half = np.array(_DECIMATOR_HALF)
    taps = np.concatenate([half, half[-2::-1]])
    taps.flags.writeable = False
    return taps


def decimator_stopband_db() -> float:
    """Worst-case attenuation (dB) over the designed stopband."""
    n = 4096  # response on n frequencies in [0, 0.5), as freqz(worN=n)
    h = np.fft.rfft(decimator_taps(), 2 * n)[:n]
    stop = np.abs(h[np.arange(n) / (2 * n) >= DECIMATOR_STOP_EDGE])
    return float(-20.0 * np.log10(stop.max()))


def decimate_by_2(x: np.ndarray) -> np.ndarray:
    """Halve the sample rate: 31-tap half-band filter, then keep evens.

    The filter's 15-sample group delay is compensated by trimming, so an
    impulse at sample n lands at output sample n/2.  Input length must be
    even; output length is exactly half.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("decimate_by_2 expects a 1-D signal")
    if len(x) % 2 != 0:
        raise ValueError("decimate_by_2 requires an even-length input")
    taps = decimator_taps()
    delay = (DECIMATOR_TAPS - 1) // 2
    y = np.convolve(x, taps)[delay : delay + len(x)]
    return y[::2]


def float_to_int16(x: np.ndarray) -> np.ndarray:
    """Float [-1, 1) to 16-bit PCM at scale 32768, saturating."""
    scaled = np.rint(np.asarray(x, dtype=np.float64) * 32768.0)
    return np.clip(scaled, -32768, 32767).astype(np.int16)


def int16_to_float(x: np.ndarray) -> np.ndarray:
    """16-bit PCM to float at scale 1/32768."""
    return np.asarray(x, dtype=np.float64) / 32768.0
