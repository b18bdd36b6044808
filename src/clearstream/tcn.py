"""Streaming time-domain separator: framewise encoder, dilated TCN, decoder.

The network is a Conv-TasNet-style stack operating on stereo input at
15.625 kHz.  A kernel-50 stride-50 encoder turns each 50-sample frame
into N latent channels; 14 dilated depthwise-separable conv layers
(kernel 3, dilations 1..64 twice, no padding, causal) produce a sigmoid
mask over the latent; the masked latent decodes linearly back to 50
mono samples per frame.

The mask computed at frame position p is applied to the encoder output
at position p - lookahead_frames, so each emitted packet has seen
`lookahead` samples beyond its own end.  A packet is 350 samples
(7 frames); the full receptive span per mask position is
1 + 2*sum(dilations) = 509 frames.

Two evaluation paths produce identical numbers:

* batch: full_forward recomputes everything from an explicit context
  window, and forward_stream runs a whole signal in one pass, feeding
  each layer its constant response to the silent past.  The pass holds
  its activations in two buffers and each layer writes into the one it
  does not read, so no layer allocates its output or copies its input;
* streaming: TcnState keeps per-layer rolling activation buffers and,
  per push of k packets, computes only the 7k new frames of every layer,
  so a block of packets runs each layer's GEMM once, over 7k rows.

Activations are held time-major, (frames, channels): the pointwise
matmul then runs on contiguous rows, which measures almost 2x faster
than the channel-major orientation for the 7-frame packets streaming
produces.  They are float32, the weights' own dtype; only the encoder
runs in float64, and its output is clamped (_LATENT_MAX) and rounded to
float32 before the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

DEFAULT_DILATIONS = (1, 2, 4, 8, 16, 32, 64, 1, 2, 4, 8, 16, 32, 64)
# A layer's elementwise stages run over this many rows at a time: a
# 64 x 512 float32 tile is 128 KB, so the tile, its scratch and the
# rows its taps read stay in L2 (2 MiB per core) between the taps and
# adds, and the tap scratch is one tile, not a (T, N) array.  Against
# one whole-array pass, a 3 s default-config forward_stream took 62-73
# instead of 69-78 ms (2-vCPU Xeon, OpenBLAS at 2 threads).
_ROW_TILE = 64
# The float64 encoder's outputs are clamped to this before the float32
# layers.  Input samples at the edge of the float32 range, which ingress
# passes, encode to up to 9.7e38 on the default config (weight seeds
# 0-9), past float32, and over 14 float64 layers the activations then
# grew at most 3.9x; clamped, they stay 8 orders of magnitude below
# float32 overflow.  Audio encodes many orders below the bound.
_LATENT_MAX = 1e30


@dataclass(frozen=True)
class TcnConfig:
    frame_len: int = 50            # L: encoder kernel and stride
    packet_len: int = 350          # W: samples per streamed packet
    latent_channels: int = 512     # N
    in_channels: int = 2
    conv_kernel: int = 3
    dilations: tuple[int, ...] = DEFAULT_DILATIONS

    def __post_init__(self) -> None:
        if self.packet_len % self.frame_len != 0:
            raise ValueError("packet_len must be a multiple of frame_len")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd and >= 1")
        if any(d < 1 for d in self.dilations):
            raise ValueError("dilations must be >= 1")

    @property
    def frames_per_packet(self) -> int:
        return self.packet_len // self.frame_len

    @property
    def lookahead(self) -> int:
        """Samples of future context per packet: two packets."""
        return 2 * self.packet_len

    @property
    def lookahead_frames(self) -> int:
        return self.lookahead // self.frame_len

    def packets_in(self, x: np.ndarray) -> int:
        """The k >= 1 whole packets in x, (in_channels, k * packet_len)
        samples; raises ValueError on any other shape."""
        w = self.packet_len
        if (x.ndim != 2 or x.shape[0] != self.in_channels or x.shape[1] == 0
                or x.shape[1] % w):
            raise ValueError(f"expected ({self.in_channels}, k * {w}) samples, k >= 1")
        return x.shape[1] // w

    @property
    def layer_spans(self) -> tuple[int, ...]:
        """Past frames consumed by each layer: (kernel-1) * dilation."""
        return tuple((self.conv_kernel - 1) * d for d in self.dilations)

    @property
    def buffer_lens(self) -> tuple[int, ...]:
        """Frames TcnState buffers per stage (the encoder, then layers
        0 .. n-2): one packet plus the next layer's dilated history; the
        encoder buffer also keeps the lookahead-lagged rows the mask
        multiplies."""
        fpp = self.frames_per_packet
        lens = [fpp + span for span in self.layer_spans]
        lens[0] = max(lens[0], 2 * fpp + self.lookahead_frames)
        return tuple(lens)

    @property
    def receptive_frames(self) -> int:
        """Total frames feeding one mask position: 1 + sum of layer spans."""
        return 1 + sum(self.layer_spans)

    @property
    def past_frames(self) -> int:
        """Frames of history needed before an output frame."""
        return self.receptive_frames - 1 - self.lookahead_frames

    @property
    def past_context(self) -> int:
        """Samples of history needed before an output packet."""
        return self.past_frames * self.frame_len

    @property
    def min_input_samples(self) -> int:
        return self.past_context + self.packet_len + self.lookahead

    def tensor_specs(self) -> list[tuple[str, tuple[int, ...], int]]:
        n, l, k = self.latent_channels, self.frame_len, self.conv_kernel
        enc_fan = self.in_channels * l
        specs: list[tuple[str, tuple[int, ...], int]] = [
            ("enc.w", (n, self.in_channels, l), enc_fan),
            ("enc.b", (n,), enc_fan),
        ]
        for i in range(len(self.dilations)):
            specs.append((f"tcn.{i}.dw.w", (n, k), k))
            specs.append((f"tcn.{i}.pw.w", (n, n), n))
            specs.append((f"tcn.{i}.pw.b", (n,), n))
        specs.append(("dec.w", (l, n), n))
        specs.append(("dec.b", (l,), n))
        return specs


@dataclass
class MacTally:
    """Multiply-accumulate counts actually performed, by stage."""

    enc: int = 0
    dw: int = 0
    pw: int = 0
    dec: int = 0
    mask_mult: int = 0

    def total(self) -> int:
        return self.enc + self.dw + self.pw + self.dec + self.mask_mult

    def reset(self) -> None:
        self.enc = self.dw = self.pw = self.dec = self.mask_mult = 0


class TcnEngine:
    """Weight-bound engine exposing batch and streaming evaluation.

    The pointwise and decoder weights are transposed views of the
    bundle's float32 tensors, read by BLAS through its transpose flag,
    and the float32 biases are the tensors themselves, so an engine
    copies no (N, N) weight.  An engine built directly on a writable
    bundle thus holds views of it: writing those tensors later changes
    what the engine computes.  bound_engines builds engines on a bundle
    that is read-only from then on.
    """

    def __init__(self, bundle, config: TcnConfig | None = None):
        self.cfg = config or TcnConfig()
        bundle.validate_specs(self.cfg.tensor_specs())
        t = bundle.tensor
        n, l = self.cfg.latent_channels, self.cfg.frame_len
        # every matmul below is (frames, in) @ (in, out): rows stay
        # contiguous, and the weights, stored output-major, are read
        # transposed
        enc_w = np.asarray(t("enc.w"), dtype=np.float64)
        self.enc_wt = np.ascontiguousarray(enc_w.reshape(n, self.cfg.in_channels * l).T)
        self.enc_b = np.asarray(t("enc.b"), dtype=np.float64)
        self.layers = [
            (
                np.ascontiguousarray(t(f"tcn.{i}.dw.w").T),   # (k, N)
                t(f"tcn.{i}.pw.w").T,                         # (N, N) view
                t(f"tcn.{i}.pw.b"),
            )
            for i in range(len(self.cfg.dilations))
        ]
        self.dec_wt = t("dec.w").T                            # (N, L) view
        self.dec_b = t("dec.b")
        self.tally = MacTally()

    # -- shared stages -------------------------------------------------

    def _encode(self, x: np.ndarray) -> np.ndarray:
        """Stereo samples (C, T*L) -> latent frames (T, N)."""
        c, s = x.shape
        l = self.cfg.frame_len
        t = s // l
        rows = x[:, : t * l].reshape(c, t, l).transpose(1, 0, 2).reshape(t, c * l)
        self.tally.enc += self.enc_wt.size * t
        return np.clip(rows @ self.enc_wt + self.enc_b, 0.0, _LATENT_MAX).astype(np.float32)

    def _layer(self, h: np.ndarray, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """One causal dilated ds-conv layer: (T, N) -> (T - span, N),
        written into out when given.

        The depthwise taps, and then the bias, ReLU and residual, run
        over tiles of _ROW_TILE rows; the pointwise GEMM runs once over
        all rows, whose bits depend on the row count.
        """
        dw, pw_wt, pw_b = self.layers[i]
        d = self.cfg.dilations[i]
        k = self.cfg.conv_kernel
        span = (k - 1) * d
        t_out, n = h.shape[0] - span, h.shape[1]
        if t_out <= 0:
            raise ValueError("input too short for dilated conv stack")
        if out is None:
            out = np.empty((t_out, n), np.float32)
        y = np.empty((t_out, n), np.float32)
        tmp = np.empty((min(t_out, _ROW_TILE), n), np.float32)
        for r in range(0, t_out, _ROW_TILE):
            yr = y[r : r + _ROW_TILE]
            tr = tmp[: len(yr)]
            np.multiply(h[r : r + len(yr)], dw[0], out=yr)
            for j in range(1, k):
                np.multiply(h[j * d + r : j * d + r + len(yr)], dw[j], out=tr)
                yr += tr
        np.matmul(y, pw_wt, out=out)
        for r in range(0, t_out, _ROW_TILE):
            zr = out[r : r + _ROW_TILE]
            zr += pw_b
            np.maximum(zr, 0.0, out=zr)
            zr += h[span + r : span + r + len(zr)]
        self.tally.dw += n * k * t_out
        self.tally.pw += n * n * t_out
        return out

    def _mask_positions(self, enc: np.ndarray) -> np.ndarray:
        """Run the conv stack; returns sigmoid mask for positions
        [receptive_frames - 1, T) of the given encoder frames."""
        h = enc
        for i in range(len(self.layers)):
            h = self._layer(h, i)
        return expit(h)

    def _decode(self, latent: np.ndarray) -> np.ndarray:
        """Masked latent frames (..., T, N) -> mono samples, L per frame.

        A stacked (k, T, N) input decodes each T-frame block as its own
        GEMM.
        """
        self.tally.dec += self.dec_wt.size * (latent.size // latent.shape[-1])
        return (latent @ self.dec_wt + self.dec_b).reshape(-1)

    @cached_property
    def _silence_constants(self) -> list[np.ndarray]:
        """Per-stage constant activation over an infinite silent past,
        computed on first use; readers copy it.

        Element 0 is the encoder output for a silent frame; element i is
        layer i's output when its input has been that constant forever.
        """
        consts = [self._encode(np.zeros((self.cfg.in_channels, self.cfg.frame_len)))[0]]
        for i, span in enumerate(self.cfg.layer_spans):
            consts.append(self._layer(np.tile(consts[-1], (span + 1, 1)), i)[0])
        return consts

    # -- batch evaluation ----------------------------------------------

    def full_forward(self, x: np.ndarray) -> np.ndarray:
        """One packet from an explicit context window.

        x is (in_channels, S) with S a multiple of frame_len and at
        least past_context + packet_len + lookahead.  Returns the
        packet_len mono samples for the last packet that still has
        `lookahead` samples of signal after it.
        """
        x = np.asarray(x, dtype=np.float64)
        cfg = self.cfg
        if x.ndim != 2 or x.shape[0] != cfg.in_channels:
            raise ValueError(f"expected ({cfg.in_channels}, S) input")
        if x.shape[1] % cfg.frame_len != 0:
            raise ValueError("input length must be a multiple of frame_len")
        if x.shape[1] < cfg.min_input_samples:
            raise ValueError(
                f"need at least {cfg.min_input_samples} samples, got {x.shape[1]}"
            )
        fpp, la = cfg.frames_per_packet, cfg.lookahead_frames
        enc = self._encode(x)
        mask = self._mask_positions(enc)[-fpp:]
        out_cols = enc[enc.shape[0] - la - fpp : enc.shape[0] - la]
        self.tally.mask_mult += mask.size
        return self._decode(mask * out_cols)

    def forward_stream(self, x: np.ndarray) -> np.ndarray:
        """Enhance a whole signal in one pass, silence-primed like a
        cold-started stream.

        x is (in_channels, S), S a multiple of frame_len.  Returns
        S - lookahead mono samples: the enhancement of x[..., :S-700],
        exactly matching what packetwise streaming emits.
        """
        x = np.asarray(x, dtype=np.float64)
        cfg = self.cfg
        if x.ndim != 2 or x.shape[0] != cfg.in_channels:
            raise ValueError(f"expected ({cfg.in_channels}, S) input")
        if x.shape[1] % cfg.frame_len != 0:
            raise ValueError("input length must be a multiple of frame_len")
        t = x.shape[1] // cfg.frame_len
        la = cfg.lookahead_frames
        if t <= la:
            return np.zeros(0, np.float32)
        enc = self._encode(x)
        # Each layer sees the silent past as its constant response to
        # silence, as the primed TcnState buffers do: span rows of it
        # ahead of the t real rows keep every layer's output at t rows.
        # Rows [s, s + t) of a buffer hold a layer's output, and the
        # next layer writes its silent past into the span rows above.
        # Mask row la + j has seen la frames past encoder frame j.
        s = max(cfg.layer_spans)
        bufs = np.empty((2, s + t, enc.shape[1]), np.float32)
        bufs[0, s:] = enc
        for i, (const, span) in enumerate(zip(self._silence_constants, cfg.layer_spans)):
            src, dst = bufs[i % 2], bufs[1 - i % 2]
            src[s - span : s] = const
            self._layer(src[s - span :], i, dst[s:])
        h = bufs[len(self.layers) % 2, s + la :]
        mask = expit(h, out=h)
        mask *= enc[: t - la]
        self.tally.mask_mult += mask.size
        return self._decode(mask)

    # -- streaming evaluation --------------------------------------------

    def init_state(self) -> "TcnState":
        return TcnState(self)


class TcnState:
    """Rolling activation buffers for packetwise evaluation.

    Stage i's buffer keeps exactly the frames its consumer needs: the
    next layer's dilated taps, plus (for the encoder buffer) the
    lookahead-lagged rows the mask multiplies.  Cold start primes
    every buffer with that stage's constant response to silence, so a
    fresh stream behaves as if preceded by an infinite silent past.
    """

    def __init__(self, engine: TcnEngine):
        self.engine = engine
        self.frames_seen = 0
        consts = engine._silence_constants
        self.bufs = [np.tile(c, (need, 1))
                     for c, need in zip(consts, engine.cfg.buffer_lens)]

    def push_packet(self, x: np.ndarray) -> np.ndarray:
        """Consume k >= 1 whole packets, (in_channels, k * packet_len)
        stereo samples; emit k * packet_len mono samples.

        The emitted samples correspond to the packets `lookahead` samples
        behind the newest input, so the first two packets a cold stream
        emits are the enhancement of the silent past.  The encoder, the
        layers and the mask run once over all k * frames_per_packet new
        rows; the output is bit-identical to k single-packet pushes.
        """
        eng = self.engine
        cfg = eng.cfg
        x = np.asarray(x, dtype=np.float64)
        k = cfg.packets_in(x)
        new = eng._encode(x)
        m, la = len(new), cfg.lookahead_frames
        enc_buf = self.bufs[0]
        # the rows the mask multiplies lag the new rows by la frames; the
        # encoder buffer keeps them only while la + m rows fit in it
        lag_old = enc_buf[-la:].copy() if la + m > len(enc_buf) else None
        h = new
        for i, (buf, span) in enumerate(zip(self.bufs, cfg.layer_spans)):
            rows = span + m
            if rows <= len(buf):  # single packets: shift in place, no copy
                buf[:-m] = buf[m:]
                buf[-m:] = h
                h = eng._layer(buf[-rows:], i)
            else:
                h = np.concatenate([buf[len(buf) - span :], h])
                buf[:] = h[-len(buf):]
                h = eng._layer(h, i)
        mask = expit(h)
        if lag_old is None:
            mask *= enc_buf[-(la + m) : -la]
        else:
            mask[:la] *= lag_old
            mask[la:] *= new[: m - la]
        eng.tally.mask_mult += mask.size
        self.frames_seen += m
        # decoded packet by packet: the decoder GEMM's rows are not
        # bit-stable across row counts, a stacked matmul's are
        return eng._decode(mask.reshape(k, cfg.frames_per_packet, -1))


def tcn_buffer_frames(config: TcnConfig) -> int:
    """Analytic count of buffered frames across all stages."""
    return sum(config.buffer_lens)


def tcn_flop_count(config: TcnConfig, cached: bool = True) -> int:
    """Analytic FLOPs to emit one steady-state packet.

    Convolutions and matmuls count as 2 FLOPs per multiply-accumulate;
    the elementwise mask multiply counts 1 per value; activations are
    not counted.  Cached mode prices only the newly computed frames per
    packet; uncached prices a from-scratch recompute of the minimal
    context window.
    """
    fpp = config.frames_per_packet
    n = config.latent_channels
    k = config.conv_kernel
    enc_fan = config.in_channels * config.frame_len

    def window_macs(frames_out: int) -> tuple[int, int, int]:
        """(enc, dw, pw) MACs when the deepest layer emits frames_out."""
        need = frames_out
        dw = pw = 0
        for span in reversed(config.layer_spans):
            need += span
            dw += n * k * (need - span)
            pw += n * n * (need - span)
        return n * enc_fan * need, dw, pw

    if cached:
        enc = n * enc_fan * fpp
        dw = sum(n * k * fpp for _ in config.dilations)
        pw = sum(n * n * fpp for _ in config.dilations)
    else:
        enc, dw, pw = window_macs(fpp)
    dec = config.frame_len * n * fpp
    mask = n * fpp
    return 2 * (enc + dw + pw + dec) + mask
