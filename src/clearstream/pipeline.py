"""End-to-end streaming enhancer: TCN, mel-mask UNet, spectral combine.

Per push of k >= 1 350-sample stereo packets the stream sets
non-finite samples, and those beyond the float32 range, to 0, then
pushes the block through the streaming TCN in one pass, obtaining the
k enhanced mono packets that sit `lookahead` (700 samples) behind the
newest input.  Each layer's pointwise GEMM runs once over all 7k new
frames, so the pass reads the TCN weights once instead of k times.  Only the decoder runs per packet,
as one stacked matmul: OpenBLAS's float32 (M, 512) @ (512, 50) decoder
GEMM gives rows that differ in the last bit from a 7-row GEMM's for
every M >= 8, so one GEMM over two or more packets would not match
single pushes.  Each packet then ends one
placement of two trailing 64-frame windows (22400 samples), one of the
mixture's mono sum (L+R) and one of the TCN output, and _enhance_block
turns a stack of up to _ORACLE_BLOCK such placements into their packets:

1. the log1p mel spectrogram of each mixture window is its inside
   frames (wholly inside the mixture so far; each packet adds one),
   plus the frames zero-padded at the window end;
2. one UNet forward computes the `cover_frames` mask columns the
   combiner reads, copying its down path from a PhaseMaps, and they
   are thresholded to a binary mel mask;
3. the mask, expanded to linear bins, is applied to the STFT frames of
   the TCN-output window that cover its newest packet, and exactly
   those 350 samples are re-synthesized by weighted overlap-add.

Computing only those mask columns is exact: the UNet convs are local
and zero-padded, so a mask column depends on a bounded cone of the up
path (see UNetEngine.forward); so is copying from the maps (see
PhaseMaps).  The stream grows its maps push by push; offline_oracle()
computes every inside frame and builds the maps once over the whole
mixture, after pushing the whole mixture to a cold TCN stream as one
block, then runs the same _enhance_block.  Both compute every mel
column through _Combiner.mel_frames, whose columns do not depend on
which frames it computes together, and both set the same input samples
to 0 at ingress (_sanitise), so the two agree bit for bit.

The mixture window ends `lookahead` samples after the emitted packet
and the TCN window ends at the packet's right edge, so the mel mask
column for a given absolute STFT frame lands on the matching TCN frame
(the windows differ by exactly lookahead/hop = 2 columns).  End-to-end
delay is therefore exactly `lookahead`: the packet covering input
sample t is emitted once input has advanced past t + lookahead + W.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import (
    DEFAULT_WIN,
    WaveBuffer,
    _hann_periodic,
    decimate_by_2,
    mel_bin_assignment,
    mel_filterbank,
)
from .tcn import TcnConfig, TcnEngine, tcn_flop_count
from .unet import (
    PhaseMaps,
    UNetConfig,
    UNetEngine,
    threshold_mask,
    unet_flop_count,
)

# enhance_signal pushes at most this many packets per call: it bounds
# the TCN activations of long inputs at about 1.8 MB per layer
_BLOCK_PACKETS = 64
# offline_oracle runs the UNet and the combiner once per this many
# windows; a block's UNet arrays peak at about 7.5 MB at the default
# config, and blocks of 8 to 32 windows took the same time per window
_ORACLE_BLOCK = 16
# larger input samples are set to 0, like NaN and inf
_SAMPLE_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class PipelineConfig:
    tcn: TcnConfig = field(default_factory=TcnConfig)
    unet: UNetConfig = field(default_factory=UNetConfig)
    sample_rate: float = 15625.0
    win_len: int = DEFAULT_WIN

    @property
    def hop(self) -> int:
        """The STFT hop: one TCN packet."""
        return self.tcn.packet_len

    @property
    def window_samples(self) -> int:
        return self.unet.input_frames * self.hop

    @property
    def lookahead_cols(self) -> int:
        return self.tcn.lookahead // self.hop

    @property
    def cover_frames(self) -> int:
        """STFT frames whose windows overlap one emitted packet."""
        return -(-self.win_len // self.hop)

    @property
    def mask_cols(self) -> tuple[int, int]:
        """The mel mask columns [lo, hi) the combiner reads: those of the
        cover_frames newest TCN-window frames, which sit lookahead_cols
        columns before the end of the mixture window."""
        hi = self.unet.input_frames - self.lookahead_cols
        return hi - self.cover_frames, hi

    def tensor_specs(self) -> list[tuple[str, tuple[int, ...], int]]:
        return self.tcn.tensor_specs() + self.unet.tensor_specs()

    def to_dict(self) -> dict:
        return {
            "tcn": asdict(self.tcn),
            "unet": asdict(self.unet),
            "sample_rate": self.sample_rate,
            "win_len": self.win_len,
        }

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        """Inverse of to_dict; absent keys keep their defaults.

        A malformed document (not an object, an unknown key, a value of
        the wrong type) raises ValueError naming the section at fault.
        """
        if not isinstance(d, dict):
            raise ValueError("pipeline config must be a JSON object")
        kw = _typed(PipelineConfig, d, "pipeline config")
        for name, cls in (("tcn", TcnConfig), ("unet", UNetConfig)):
            sec = kw.get(name, {})
            if not isinstance(sec, dict):
                raise ValueError(f"pipeline config {name!r} must be a JSON object")
            sec = _typed(cls, sec, f"pipeline config {name!r}")
            try:
                kw[name] = cls(**sec)
            except TypeError as e:
                raise ValueError(f"pipeline config {name!r}: {e}") from e
        try:
            return PipelineConfig(**kw)
        except TypeError as e:
            raise ValueError(f"pipeline config: {e}") from e


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _typed(cls, d: dict, where: str) -> dict:
    """d with each value checked against the type of the cls field it
    names: int fields take integers (not bools), float fields integers
    or floats, tuple[int, ...] fields a list of integers.  Other keys
    pass through for the constructor to judge."""
    types = {f.name: f.type for f in fields(cls)}
    out = dict(d)
    for key, v in d.items():
        t = types.get(key)
        if t == "int":
            ok = _is_int(v)
        elif t == "float":
            ok = _is_int(v) or isinstance(v, float)
        elif t == "tuple[int, ...]":
            ok = isinstance(v, (list, tuple)) and all(map(_is_int, v))
            out[key] = tuple(v) if ok else v
        else:
            continue
        if not ok:
            raise ValueError(f"{where}: {key!r} must be {t}, got {v!r}")
    return out


def _sanitise(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x with every sample that is not finite or exceeds the float32
    range in magnitude (float32 being the widest sample format wavio
    reads) set to 0, and the number of such samples."""
    ok = np.abs(x) <= _SAMPLE_MAX  # False for NaN too
    if ok.all():
        return x, 0
    return np.where(ok, x, 0.0), int(ok.size - np.count_nonzero(ok))


def _pad_slice(x: np.ndarray, start: int, end: int) -> np.ndarray:
    """x[..., start:end] with zeros where the range leaves the last axis."""
    out = np.zeros(x.shape[:-1] + (end - start,))
    lo, hi = max(start, 0), min(end, x.shape[-1])
    if hi > lo:
        out[..., lo - start : hi - start] = x[..., lo:hi]
    return out


def _windows(x: np.ndarray, n: int, step: int) -> np.ndarray:
    """Row p views x[p * step : p * step + n], for every p whose range
    lies inside the contiguous x."""
    rows = max((len(x) - n) // step + 1, 0)
    return np.ndarray((rows, n), x.dtype, x, strides=(step * x.itemsize, x.itemsize))


class _Combiner:
    """Masked re-synthesis of one packet from a TCN-output window, or of
    one packet each from a stack of them."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.fb = mel_filterbank(
            cfg.unet.input_mel, cfg.win_len, cfg.sample_rate
        )
        self.assign = mel_bin_assignment(self.fb)
        self.win = _hann_periodic(cfg.win_len)
        hop, cover = cfg.hop, cfg.cover_frames
        # den[i]: summed squared window over the frames covering sample
        # (T-1)*hop + i of the window; positive everywhere for hop < win.
        # The oldest covering frame reaches only win_len - (cover-1)*hop
        # samples into the emitted hop, hence the clipped adds.
        self.den = np.zeros(hop)
        for back in range(cover):
            seg = self.win[back * hop : back * hop + hop] ** 2
            self.den[: len(seg)] += seg

    def mel_frames(self, x: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
        """Fill out (n_mel, k) with the log1p mel magnitudes of STFT
        frames first .. first + k - 1 of x, framed as dsp.stft does
        (frame t covers x[t*hop : t*hop + win_len], zero outside x).
        A (B, n) stack of signals fills a (B, n_mel, k) out, each from
        its own signal.

        The k frames go through one rfft call, which transforms its rows
        one by one, and one stacked matmul, which runs one GEMV per
        frame; every other op is elementwise.  So a column does not
        depend on which other frames are computed with it: callers that
        cut a signal into windows differently still get bit-identical
        columns for the same samples.
        """
        hop, wl = self.cfg.hop, self.cfg.win_len
        k = out.shape[-1]
        if not k:
            return out
        span = _pad_slice(x, first * hop, (first + k - 1) * hop + wl)
        frames = sliding_window_view(span, wl, axis=-1)[..., ::hop, :]
        mag = np.abs(np.fft.rfft(frames * self.win))
        mel = np.matmul(self.fb.weights, mag[..., None])[..., 0]
        out[...] = np.log1p(mel).swapaxes(-1, -2)
        return out

    def unet_input(self, mix_win: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
        """The (n_mel, T) log1p mel spectrogram of a mixture window, or
        the (B, n_mel, T) spectrograms of a (B, n) stack of them.

        For a stack of consecutive windows, one hop apart, first may give
        the first window's inside frames but its newest, (n_mel, whole -
        1): one mel_frames call then computes only each window's newest
        inside frame and the frames zero-padded at its end, and each later
        window's older frames are the window before's.
        """
        cfg = self.cfg.unet
        mel = np.empty(mix_win.shape[:-1] + (cfg.input_mel, cfg.input_frames))
        start = 0 if first is None else cfg.input_frames - self.cfg.cover_frames
        self.mel_frames(mix_win, start, mel[..., start:])
        if first is not None:
            mel[0, :, :start] = first
            for i in range(1, len(mel)):
                mel[i, :, :start] = mel[i - 1, :, 1 : start + 1]
        return mel

    def combine(self, tcn_win: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Emit the final hop samples of tcn_win under the given mask.

        mask holds the (n_mel, cover_frames) mel mask columns
        cfg.mask_cols; column j masks TCN-window frame T - cover + j.
        A (B, n) stack of windows with a (B, n_mel, cover_frames) stack
        of masks emits (B, hop) samples, each row bit for bit that of
        its window on its own: the ops are elementwise, and each FFT
        call transforms the B rows one by one.
        """
        cfg = self.cfg
        hop, wl = cfg.hop, cfg.win_len
        t_frames = cfg.unet.input_frames
        cover = cfg.cover_frames
        out = np.zeros(tcn_win.shape[:-1] + (hop,))
        for back in range(cover):
            f = t_frames - 1 - back  # frame index within the TCN window
            seg = _pad_slice(tcn_win, f * hop, f * hop + wl)
            spec = np.fft.rfft(seg * self.win)
            col = mask[..., cover - 1 - back]
            spec *= col[..., self.assign]
            syn = np.fft.irfft(spec, n=wl) * self.win
            part = syn[..., back * hop : back * hop + hop]
            out[..., : part.shape[-1]] += part
        return out / self.den


def _enhance_block(cfg: PipelineConfig, unet: UNetEngine, comb: _Combiner, cache,
                   first: np.ndarray, mix_wins: np.ndarray,
                   tcn_wins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, hop) packets of B consecutive windows, and their mels.

    mix_wins and tcn_wins are the (B, n) mixture and TCN-output windows,
    and first the first window's inside frames but its newest (see
    _Combiner.unet_input).  cache is PhaseMaps.at of the first window,
    whose maps are given (and so compute the columns of) the inside
    frames they lack, or None.  Each window of the stack comes out
    bit-identical to a call of its own.
    """
    whole = cfg.unet.input_frames - cfg.cover_frames + 1
    mel = comb.unet_input(mix_wins, first)
    if cache is not None:
        maps, p = cache
        maps.append(first[:, maps.n - p :])
        maps.append(mel[maps.n - p - whole + 1 :, :, whole - 1].T)
    probs = unet.forward(mel, cfg.mask_cols, cache=cache)
    mask = threshold_mask(probs, cfg.unet.threshold)
    return comb.combine(tcn_wins, mask), mel


class Engines(NamedTuple):
    tcn: TcnEngine
    unet: UNetEngine
    comb: _Combiner


def bound_engines(bundle, config: PipelineConfig) -> Engines:
    """The engines of bundle under config, built on first use and kept
    with the bundle (WeightBundle.bind), which is read-only from then
    on: a TcnEngine per cfg.tcn, a UNetEngine per cfg.unet and a
    _Combiner per config.  They hold weights and constants only; every
    caller's state stays with the caller, and only their tallies are
    shared."""
    return Engines(bundle.bind(config.tcn, TcnEngine),
                   bundle.bind(config.unet, UNetEngine),
                   bundle.bind(config, lambda _, cfg: _Combiner(cfg)))


class CbNetStream:
    """Packetwise streaming state for the full enhancement network.

    The engines come from bound_engines, so streams and oracle calls on
    one bundle share them; the stream holds only its own state: the TCN
    buffers, its phase maps, windows and mel.
    """

    def __init__(self, bundle, config: PipelineConfig | None = None):
        self.cfg = config or PipelineConfig()
        self.tcn_engine, self.unet_engine, self.comb = bound_engines(bundle, self.cfg)
        self.tcn_state = self.tcn_engine.init_state()
        # the UNet down path over the windows' inside frames, from the
        # first window that emits a packet; None reuses nothing
        self.maps = PhaseMaps(self.unet_engine, np.empty((self.cfg.unet.input_mel, 0)))
        # mix_win and tcn_win, each row followed by room for a push's packets
        self.wins = np.zeros((2, self.cfg.window_samples))
        self.mix_win, self.tcn_win = self.wins
        # mel of mix_win; that of the silent window is exactly 0
        self.mix_mel = np.zeros((self.cfg.unet.input_mel, self.cfg.unet.input_frames))
        self.packets_seen = 0
        # input samples set to 0: non-finite, or beyond the float32 range
        self.samples_sanitised = 0

    def _tcn_push(self, x: np.ndarray) -> np.ndarray:
        return self.tcn_state.push_packet(x)

    def push(self, x: np.ndarray) -> np.ndarray:
        """Consume k >= 1 stereo packets, (in_channels, k * W) samples;
        emit k * W enhanced mono samples.

        Any other shape raises ValueError and changes nothing.
        Samples that are not finite or exceed the float32 range in
        magnitude are replaced by 0 (see _sanitise) before any state
        changes, and counted in samples_sanitised.  The TCN then runs
        once over the whole block, and the packets' windows go through
        _enhance_block in blocks of _ORACLE_BLOCK.  A window reads only
        its own frames and map columns equal to its own, and the maps
        depend only on the frames appended, so the output is
        bit-identical to single pushes.

        Down-path work: window q's whole = T - cover_frames + 1 inside
        frames are frames q .. q + whole - 1 of the maps' sequence, so
        the maps then hold n >= q + whole frames.  A level-L column at
        frame f reads frames up to f + 3 2^L - 2, so they hold every
        column below done[L] = n - 3 2^L + 2, each frame completing one
        per level.  The window copies its column j (frame q + 2^L j) if
        it reads inside frames only, j < (whole - 2^(L+1) + 1) >> L, so
        below done[L], and computes the rest: 3 per level at the default
        config (T = 64, whole = 62), 4 and 3 at T = 16, whole = 13.

        The emitted samples cover the input `lookahead` samples back; the
        first lookahead/W packets of a cold stream are the pre-stream
        silent past, forced to exact zeros.  tcn_win is then still all
        zeros, so combine would give exact zeros under any mask: those
        packets skip the UNet and the combiner, and only advance the
        TCN state and the mixture window and its mel.
        """
        x = np.asarray(x, dtype=np.float64)
        cfg = self.cfg
        k = cfg.tcn.packets_in(x)
        w, nwin = cfg.tcn.packet_len, cfg.window_samples
        whole = cfg.unet.input_frames - cfg.cover_frames + 1
        x, bad = _sanitise(x)
        self.samples_sanitised += bad
        tcn_out = self._tcn_push(x)
        # the window after packet i of this push is window q0 + i of the
        # maps' sequence; windows before 0 emit the silent past
        q0 = self.packets_seen - cfg.lookahead_cols
        cold = min(max(-q0, 0), k)
        self.packets_seen += k
        adv = (k * w, (k - cold) * w)  # samples the mixture and TCN windows advance
        if self.wins.shape[1] < nwin + k * w:
            self.wins = np.concatenate([self.wins[:, :nwin], np.empty((2, k * w))], axis=1)
        self.wins[0, nwin : nwin + adv[0]] = x.sum(axis=0)
        self.wins[1, nwin : nwin + adv[1]] = tcn_out[cold * w :]
        mix_wins = _windows(self.wins[0, w : nwin + adv[0]], nwin, w)
        tcn_wins = _windows(self.wins[1, w : nwin + adv[1]], nwin, w)
        mel = [self.mix_mel]
        if cold:  # the windows of the silent past need only their mels
            mel = self.comb.unet_input(mix_wins[:cold], self.mix_mel[:, 1:whole])
        out, a = np.zeros(k * w), cold
        while a < k:
            b = min(a + _ORACLE_BLOCK, k)
            cache = None if self.maps is None else self.maps.at(q0 + a)
            pkts, mel = _enhance_block(cfg, self.unet_engine, self.comb, cache,
                                       mel[-1][:, 1:whole], mix_wins[a:b],
                                       tcn_wins[a - cold : b - cold])
            out[a * w : b * w] = pkts.reshape(-1)
            if cache is not None:
                self.maps.drop(q0 + b)
            a = b
        for r, a in zip(self.wins, adv):
            r[:nwin] = r[a : a + nwin]
        self.mix_win, self.tcn_win = self.wins[:, :nwin]
        self.mix_mel[...] = mel[-1]
        return out


def offline_oracle(x: np.ndarray, bundle,
                   config: PipelineConfig | None = None) -> np.ndarray:
    """Batch recomputation of the streamed output.

    x is (2, S) with S a multiple of the packet length.  Returns the
    S - lookahead samples a cold-started stream emits for x (i.e. the
    enhancement of x[..., :S-lookahead]), with the same samples set to
    0 at ingress, bit for bit.  The TCN runs as one block push to a
    cold stream (TcnEngine.forward_stream).  Every STFT frame that lies
    wholly inside some window is computed once, over the whole
    mixture, and so is the UNet down path over those frames
    (PhaseMaps).  The windows then go through _enhance_block, the
    stream's routine, in blocks of _ORACLE_BLOCK.  The engines come from
    bound_engines, so repeated calls on one bundle build them once.
    """
    cfg = config or PipelineConfig()
    x = np.asarray(x, dtype=np.float64)
    w = cfg.tcn.packet_len
    if x.ndim != 2 or x.shape[0] != cfg.tcn.in_channels:
        raise ValueError(f"expected ({cfg.tcn.in_channels}, S) input")
    if x.shape[1] % w != 0:
        raise ValueError("input length must be a multiple of the packet length")
    x, _ = _sanitise(x)
    n_pkts = x.shape[1] // w
    la_pkts = cfg.lookahead_cols
    if n_pkts <= la_pkts:
        return np.zeros(0)
    n_out = n_pkts - la_pkts
    tcn_engine, unet_engine, comb = bound_engines(bundle, cfg)
    # allocated before the TCN pass: a caller that keeps many outputs
    # (a benchmark loop) otherwise finds them placed where the next
    # pass's arrays go, and the heap grows in steps of megabytes
    out = np.empty((n_out, w))
    tcn_stream = tcn_engine.forward_stream(x)  # [0, S - lookahead)
    mixsum = x.sum(axis=0)
    nwin = cfg.window_samples
    t_frames = cfg.unet.input_frames
    # Window p's frame t is mixture frame p + first + t; frames
    # [0, whole) lie inside the window, the rest run past its end.
    first = 1 + la_pkts - t_frames
    whole = t_frames - cfg.cover_frames + 1
    frames = comb.mel_frames(
        mixsum, first, np.empty((cfg.unet.input_mel, n_out - 1 + whole))
    )
    maps = PhaseMaps(unet_engine, frames)
    # window p ends at TCN sample (p + 1) w and mixture sample (p + 1 + la_pkts) w
    pad = np.zeros(nwin - w)
    tcn_wins = _windows(np.concatenate([pad, tcn_stream]), nwin, w)
    mix_wins = _windows(np.concatenate([pad, mixsum]), nwin, w)[la_pkts:]
    for p in range(0, n_out, _ORACLE_BLOCK):
        q = min(p + _ORACLE_BLOCK, n_out)
        out[p:q] = _enhance_block(cfg, unet_engine, comb, maps.at(p),
                                  frames[:, p : p + whole - 1], mix_wins[p:q],
                                  tcn_wins[p:q])[0]
    return out.reshape(-1)


def enhance_signal(x: np.ndarray, bundle,
                   config: PipelineConfig | None = None,
                   oracle: bool = False) -> np.ndarray:
    """Enhance a whole stereo signal; output aligned with the input.

    Pads x to whole packets, streams it in pushes of at most
    _BLOCK_PACKETS packets (or runs the batch oracle), flushes the
    lookahead with silent packets, and returns exactly len(x) mono
    samples aligned sample-for-sample with the input.
    """
    cfg = config or PipelineConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != cfg.tcn.in_channels:
        raise ValueError(f"expected ({cfg.tcn.in_channels}, n) samples")
    w = cfg.tcn.packet_len
    n = x.shape[1]
    pad_pkts = -(-n // w) + cfg.lookahead_cols
    padded = np.zeros((x.shape[0], pad_pkts * w))
    padded[:, :n] = x
    if oracle:
        return offline_oracle(padded, bundle, cfg)[:n]
    stream = CbNetStream(bundle, cfg)
    step = _BLOCK_PACKETS * w
    out = np.concatenate([stream.push(padded[:, s : s + step])
                          for s in range(0, padded.shape[1], step)])
    # an owned copy: a view would keep the lookahead packets alive
    return out[cfg.lookahead_cols * w :][:n].copy()


def process_file(in_path, bundle, out_path,
                 config: PipelineConfig | None = None,
                 oracle: bool = False) -> WaveBuffer:
    """Enhance a stereo WAV end to end; returns (and writes) the result.

    Accepts the native 15625 Hz rate directly, or 31250 Hz input which
    is first decimated per channel.
    """
    from .wavio import read_wav, write_wav

    cfg = config or PipelineConfig()
    wave = read_wav(in_path)
    if wave.channels != 2:
        raise ValueError("enhancement input must be stereo")
    data = wave.data
    if round(wave.sample_rate) == round(2 * cfg.sample_rate):
        if data.shape[1] % 2:
            data = data[:, :-1]
        data = np.stack([decimate_by_2(ch) for ch in data])
    elif round(wave.sample_rate) != round(cfg.sample_rate):
        raise ValueError(
            f"expected {cfg.sample_rate:.0f} or {2 * cfg.sample_rate:.0f} Hz, "
            f"got {wave.sample_rate:.0f}"
        )
    out = enhance_signal(data, bundle, cfg, oracle=oracle)
    result = WaveBuffer(out[None, :], sample_rate=cfg.sample_rate)
    if out_path is not None:
        write_wav(out_path, result)
    return result


# -- latency accounting ----------------------------------------------------

@dataclass(frozen=True)
class LatencyBudget:
    """Per-stage one-way mouth-to-network latency, in milliseconds.

    Defaults: a 180-sample capture buffer at 31.25 kHz, the 15 ms
    minimum BLE connection interval, stream buffering on the host, and
    measured per-packet inference.
    """

    pcm_buffer_ms: float = 5.76
    ble_ms: float = 15.0
    stream_buffer_ms: float = 67.2
    inference_ms: float = 21.4
    budget_ms: float = 200.0


@dataclass(frozen=True)
class LatencyReport:
    total_ms: float
    allowance_ms: float
    total_ms_rounded: int
    allowance_ms_rounded: int
    over_budget: bool
    components: dict


def latency_total(budget: LatencyBudget | None = None) -> LatencyReport:
    b = budget or LatencyBudget()
    total = b.pcm_buffer_ms + b.ble_ms + b.stream_buffer_ms + b.inference_ms
    allowance = b.budget_ms - total
    return LatencyReport(
        total_ms=round(total, 1),
        allowance_ms=round(allowance, 1),
        total_ms_rounded=int(round(total)),
        allowance_ms_rounded=int(round(allowance)),
        over_budget=total > b.budget_ms,
        components=asdict(b),
    )


# -- per-packet wall-clock benchmark ----------------------------------------

@dataclass
class BenchReport:
    """Per-packet timings and FLOPs.  unet_flops prices one full forward;
    unet_flops_per_push is what the timed pushes ran, counted by the
    engine's tally, and net_flops_per_packet adds the mode's TCN cost
    to it."""

    mode: str
    n_packets: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    packet_ms: float
    realtime: bool
    tcn_flops_cached: int
    tcn_flops_uncached: int
    unet_flops: int
    unet_flops_per_push: int
    net_flops_per_packet: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


class _UncachedRunner(CbNetStream):
    """The stream with per-packet full TCN recompute and a UNet without
    phase maps (no activation reuse), for comparison."""

    def __init__(self, bundle, cfg: PipelineConfig):
        super().__init__(bundle, cfg)
        self.maps = None
        self.in_win = np.zeros((cfg.tcn.in_channels, cfg.tcn.min_input_samples))

    def _tcn_push(self, x: np.ndarray) -> np.ndarray:
        w = self.cfg.tcn.packet_len
        outs = []
        for s in range(0, x.shape[1], w):
            self.in_win[:, :-w] = self.in_win[:, w:]
            self.in_win[:, -w:] = x[:, s : s + w]
            outs.append(self.tcn_engine.full_forward(self.in_win))
        return np.concatenate(outs)


def bench_packet(bundle, config: PipelineConfig | None = None,
                 n_packets: int = 100, cached: bool = True,
                 seed: int = 0, warmup: int = 3) -> BenchReport:
    """Wall-clock per-packet timing over synthetic random input."""
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    cfg = config or PipelineConfig()
    rng = np.random.default_rng(seed)
    w = cfg.tcn.packet_len
    runner = (
        CbNetStream(bundle, cfg) if cached else _UncachedRunner(bundle, cfg)
    )
    packets = rng.standard_normal((n_packets + warmup, cfg.tcn.in_channels, w))
    packets *= 0.1
    times = []
    tally = runner.unet_engine.tally
    for i in range(n_packets + warmup):
        if i == warmup:
            tally.reset()
        t0 = time.perf_counter()
        runner.push(packets[i])
        dt = (time.perf_counter() - t0) * 1e3
        if i >= warmup:
            times.append(dt)
    times_arr = np.asarray(times)
    packet_ms = 1e3 * w / cfg.sample_rate
    p95 = float(np.percentile(times_arr, 95))
    unet_per_push = round(2 * tally.total() / n_packets)
    tcn = tcn_flop_count(cfg.tcn, cached=cached)
    return BenchReport(
        mode="cached" if cached else "uncached",
        n_packets=n_packets,
        mean_ms=float(times_arr.mean()),
        median_ms=float(np.median(times_arr)),
        p95_ms=p95,
        packet_ms=packet_ms,
        realtime=bool(p95 < packet_ms),
        tcn_flops_cached=tcn_flop_count(cfg.tcn, cached=True),
        tcn_flops_uncached=tcn_flop_count(cfg.tcn, cached=False),
        unet_flops=unet_flop_count(cfg.unet),
        unet_flops_per_push=unet_per_push,
        net_flops_per_packet=tcn + unet_per_push,
    )
