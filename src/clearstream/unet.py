"""Spectral mask refiner: a small UNet over a mel spectrogram window.

Input is a (n_mel, n_frames) = (128, 64) log-compressed mel magnitude
window of the mono (L+R) mixture.  Four levels of depthwise-separable
3x3 convs (zero-padded, ReLU) each followed by 2x2 max pooling descend
to an (8, 4) grid; four up levels (ds-conv + 2x2 stride-2 transposed
conv, both ReLU) come back up, concatenating the matching-resolution
encoder activation before each ds-conv.  Channels start at
base_channels and double per level on the way down.  A final 1x1 conv and sigmoid yield
per-cell probabilities; thresholding at 0.5 (>= passes) gives the
binary time-frequency mask.

Everything is a pure function of (weights, input): no state is kept
between forwards, so recomputing a sliding window per packet gives the
same columns a one-shot evaluation would.  A forward can be asked for a
range of output columns only.  The down path then still runs in full,
but the up path and the 1x1 head run only on the backward cone of those
columns: each conv is local and zero-padded, so a column reads a fixed
neighbourhood one level down, and the values come out bit-identical to
the same columns of a full forward.  The stream and the batch oracle
read just the few mask columns that cover the packet they emit.

Internally the engine computes in single precision with activations
laid out channels-last, and each stage owns its pad / accumulator
scratch.  That keeps one forward inside a realtime packet budget on a
single core; inputs and the returned probability map stay float64.  A
given engine instance must not run concurrent forwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


@dataclass(frozen=True)
class UNetConfig:
    input_mel: int = 128
    input_frames: int = 64
    base_channels: int = 16
    levels: int = 4
    threshold: float = 0.5

    def __post_init__(self) -> None:
        div = 1 << self.levels
        if self.input_mel % div or self.input_frames % div:
            raise ValueError(
                f"input dims must be divisible by 2^levels = {div}"
            )
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")

    # Channel plan.  Down level i maps down_in[i] -> down_out[i] and
    # pools; up level i ds-convs up_in[i] -> up_mid[i], then a 2x2
    # transposed conv maps up_mid[i] -> tc_out[i] at doubled resolution
    # and the matching encoder activation (skip_ch[i] channels) is
    # concatenated onto the result.

    @property
    def down_out(self) -> list[int]:
        return [self.base_channels << i for i in range(self.levels)]

    @property
    def down_in(self) -> list[int]:
        return [1] + self.down_out[:-1]

    @property
    def skip_ch(self) -> list[int]:
        return self.down_out[::-1]

    @property
    def up_mid(self) -> list[int]:
        return self.down_out[::-1]

    @property
    def tc_out(self) -> list[int]:
        outs = [c // 2 for c in self.up_mid]
        outs[-1] = self.up_mid[-1]
        return outs

    @property
    def up_in(self) -> list[int]:
        ins = [self.down_out[-1]]
        for i in range(1, self.levels):
            ins.append(self.tc_out[i - 1] + self.skip_ch[i - 1])
        return ins

    @property
    def final_ch(self) -> int:
        return self.tc_out[-1] + self.skip_ch[-1]

    def tensor_specs(self) -> list[tuple[str, tuple[int, ...], int]]:
        specs: list[tuple[str, tuple[int, ...], int]] = []
        for i in range(self.levels):
            cin, cout = self.down_in[i], self.down_out[i]
            specs.append((f"unet.down{i}.dw.w", (cin, 3, 3), 9))
            specs.append((f"unet.down{i}.pw.w", (cout, cin), cin))
            specs.append((f"unet.down{i}.pw.b", (cout,), cin))
        for i in range(self.levels):
            cin, cmid, cout = self.up_in[i], self.up_mid[i], self.tc_out[i]
            specs.append((f"unet.up{i}.dw.w", (cin, 3, 3), 9))
            specs.append((f"unet.up{i}.pw.w", (cmid, cin), cin))
            specs.append((f"unet.up{i}.pw.b", (cmid,), cin))
            specs.append((f"unet.up{i}.tc.w", (cmid, cout, 2, 2), 4 * cmid))
            specs.append((f"unet.up{i}.tc.b", (cout,), 4 * cmid))
        specs.append(("unet.out.w", (1, self.final_ch), self.final_ch))
        specs.append(("unet.out.b", (1,), self.final_ch))
        return specs


@dataclass
class UNetTally:
    """Multiply-accumulates actually performed, by stage kind."""

    dw: int = 0
    pw: int = 0
    tc: int = 0

    def total(self) -> int:
        return self.dw + self.pw + self.tc

    def reset(self) -> None:
        self.dw = self.pw = self.tc = 0


def _pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool on (H, W, C), pairwise along each spatial axis."""
    a = np.maximum(x[0::2], x[1::2])
    return np.maximum(a[:, 0::2], a[:, 1::2])


class _DsConv:
    """Depthwise 3x3 + pointwise 1x1 + ReLU at one fixed resolution.

    The pad buffer is viewed as rows of (w + 2) * C values, so each of
    the nine shifted multiplies runs along whole contiguous rows; the
    tap weights are tiled to that row length to match.  The zero border
    of the pad buffer is written once at construction.
    """

    def __init__(self, dw_w, pw_w, pw_b, h: int, w: int):
        self.cout, self.cin = pw_w.shape
        self.h, self.w = h, w
        self.taps = np.ascontiguousarray(
            np.tile(np.transpose(dw_w, (1, 2, 0)), (1, 1, w)), dtype=np.float32
        )
        self.pw_wt = np.ascontiguousarray(pw_w.T, dtype=np.float32)
        self.pw_b = np.asarray(pw_b, dtype=np.float32)
        self.pad = np.zeros((h + 2, w + 2, self.cin), dtype=np.float32)
        self.acc = np.empty(h * w * self.cin, dtype=np.float32)
        self.tmp = np.empty_like(self.acc)

    def run(self, x: np.ndarray, a: int = 0, b: int | None = None) -> np.ndarray:
        """Output columns [a, b) (default all), shape (h, b - a, cout).

        x is (h, w, cin) and need only hold valid values in the columns
        those outputs read, [a - 1, b + 1) clipped to the map; the zero
        border stands in for the columns beyond its edges.
        """
        h, w, c = self.h, self.w, self.cin
        b = w if b is None else b
        n = b - a
        lo, hi = max(a - 1, 0), min(b + 1, w)
        self.pad[1:-1, lo + 1 : hi + 1] = x[:, lo:hi]
        pad = self.pad.reshape(h + 2, -1)
        taps = self.taps[:, :, : n * c]
        acc = self.acc[: h * n * c].reshape(h, n * c)
        tmp = self.tmp[: acc.size].reshape(acc.shape)
        np.multiply(pad[0:h, a * c : (a + n) * c], taps[0, 0], out=acc)
        for dy in range(3):
            for dx in range(3):
                if dy == 0 and dx == 0:
                    continue
                cols = slice((a + dx) * c, (a + dx + n) * c)
                np.multiply(pad[dy : dy + h, cols], taps[dy, dx], out=tmp)
                acc += tmp
        acc = acc.reshape(-1, c)
        # with one input channel the GEMM is a broadcast product
        z = acc * self.pw_wt if c == 1 else acc @ self.pw_wt
        z += self.pw_b
        np.maximum(z, 0.0, out=z)
        return z.reshape(h, n, self.cout)


class _TConv:
    """2x2 stride-2 transposed conv + ReLU: one GEMM, then a scatter of
    the four phase grids into the doubled-resolution output."""

    def __init__(self, tc_w, tc_b):
        cmid, cout = tc_w.shape[0], tc_w.shape[1]
        self.cmid, self.cout = cmid, cout
        self.wt = np.ascontiguousarray(
            np.transpose(tc_w, (0, 2, 3, 1)).reshape(cmid, 4 * cout),
            dtype=np.float32,
        )
        self.b = np.asarray(tc_b, dtype=np.float32)

    def run(self, x: np.ndarray, out: np.ndarray) -> None:
        """x (h, n, cmid) -> out (2h, 2n, cout), written in place."""
        h, n, _ = x.shape
        piece = (x.reshape(-1, self.cmid) @ self.wt).reshape(h, n, 2, 2, self.cout)
        out[0::2, 0::2] = piece[:, :, 0, 0]
        out[0::2, 1::2] = piece[:, :, 0, 1]
        out[1::2, 0::2] = piece[:, :, 1, 0]
        out[1::2, 1::2] = piece[:, :, 1, 1]
        out += self.b
        np.maximum(out, 0.0, out=out)


class UNetEngine:
    """Weight-bound mask network over fixed-size mel windows."""

    def __init__(self, bundle, config: UNetConfig | None = None):
        self.cfg = config or UNetConfig()
        cfg = self.cfg
        bundle.validate_specs(cfg.tensor_specs())
        t = bundle.tensor
        self.down = [
            _DsConv(
                t(f"unet.down{i}.dw.w"),
                t(f"unet.down{i}.pw.w"),
                t(f"unet.down{i}.pw.b"),
                cfg.input_mel >> i,
                cfg.input_frames >> i,
            )
            for i in range(cfg.levels)
        ]
        self.up = []
        self.cat_bufs = []
        for i in range(cfg.levels):
            h = cfg.input_mel >> (cfg.levels - i)
            w = cfg.input_frames >> (cfg.levels - i)
            self.up.append(
                (
                    _DsConv(
                        t(f"unet.up{i}.dw.w"),
                        t(f"unet.up{i}.pw.w"),
                        t(f"unet.up{i}.pw.b"),
                        h,
                        w,
                    ),
                    _TConv(t(f"unet.up{i}.tc.w"), t(f"unet.up{i}.tc.b")),
                )
            )
            self.cat_bufs.append(
                np.empty(
                    (2 * h, 2 * w, cfg.tc_out[i] + cfg.skip_ch[i]),
                    dtype=np.float32,
                )
            )
        self.out_wt = np.ascontiguousarray(
            np.asarray(t("unet.out.w"), dtype=np.float32).T
        )
        self.out_b = np.asarray(t("unet.out.b"), dtype=np.float32)
        self.tally = UNetTally()

    def up_cols(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Per up level, the ds-conv output columns that output columns
        [lo, hi) depend on.

        Walking back from the output: the 1x1 head reads its own
        columns, a transposed-conv column c comes from ds-conv column
        c // 2, and a 3x3 ds-conv column reads one column either side
        of it (clipped at the map edge, where the zero pad stands in).
        """
        cols = []
        for i in reversed(range(self.cfg.levels)):
            a, b = lo // 2, (hi - 1) // 2 + 1
            cols.append((a, b))
            lo, hi = max(a - 1, 0), min(b + 1, self.up[i][0].w)
        return cols[::-1]

    def forward(self, mel_input: np.ndarray,
                cols: tuple[int, int] | None = None) -> np.ndarray:
        """Mel window (input_mel, input_frames) -> probability map, each
        value sigmoid-activated in (0, 1).

        cols = (lo, hi) asks for output columns [lo, hi) only, shape
        (input_mel, hi - lo); the default is every column.  The values
        equal forward(mel_input)[:, lo:hi] bit for bit: the down path
        runs in full, and the up path and head run on the columns of
        up_cols(lo, hi), which hold every value those outputs read.
        """
        cfg = self.cfg
        mel_input = np.asarray(mel_input, dtype=np.float64)
        if mel_input.shape != (cfg.input_mel, cfg.input_frames):
            raise ValueError(
                f"expected ({cfg.input_mel}, {cfg.input_frames}) input"
            )
        lo, hi = (0, cfg.input_frames) if cols is None else cols
        if not 0 <= lo < hi <= cfg.input_frames:
            raise ValueError(f"cols must satisfy 0 <= lo < hi <= {cfg.input_frames}")
        if not np.all(np.isfinite(mel_input)):
            raise ValueError("mel input must be finite")
        x = mel_input.astype(np.float32)[:, :, None]
        skips = []
        for ds in self.down:
            px = x.shape[0] * x.shape[1]
            self.tally.dw += ds.cin * 9 * px
            self.tally.pw += ds.cout * ds.cin * px
            x = ds.run(x)
            skips.append(x)
            x = _pool2(x)
        for i, ((ds, tc), (a, b)) in enumerate(zip(self.up, self.up_cols(lo, hi))):
            px = ds.h * (b - a)
            self.tally.dw += ds.cin * 9 * px
            self.tally.pw += ds.cout * ds.cin * px
            self.tally.tc += tc.cmid * tc.cout * 4 * px
            cat = self.cat_bufs[i]
            tc.run(ds.run(x, a, b), cat[:, 2 * a : 2 * b, : tc.cout])
            cat[:, 2 * a : 2 * b, tc.cout :] = skips[cfg.levels - 1 - i][:, 2 * a : 2 * b]
            x = cat
        x = x[:, lo:hi]
        self.tally.pw += self.out_wt.size * x.shape[0] * x.shape[1]
        logits = x.reshape(-1, cfg.final_ch) @ self.out_wt
        logits += self.out_b
        probs = expit(logits.reshape(cfg.input_mel, hi - lo))
        return probs.astype(np.float64)


def threshold_mask(probs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Probabilities to binary mask; values >= threshold pass."""
    probs = np.asarray(probs)
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return (probs >= threshold).astype(np.float64)


def unet_flop_count(config: UNetConfig | None = None) -> int:
    """Analytic FLOPs for one full forward pass.

    Convs (depthwise, pointwise, transposed) count 2 FLOPs per MAC;
    pooling, concatenation, and activations are not counted.
    """
    cfg = config or UNetConfig()
    h, w = cfg.input_mel, cfg.input_frames
    macs = 0
    for i in range(cfg.levels):
        px = (h >> i) * (w >> i)
        macs += cfg.down_in[i] * 9 * px
        macs += cfg.down_in[i] * cfg.down_out[i] * px
    for i in range(cfg.levels):
        shift = cfg.levels - i
        px = (h >> shift) * (w >> shift)
        macs += cfg.up_in[i] * 9 * px
        macs += cfg.up_in[i] * cfg.up_mid[i] * px
        macs += cfg.up_mid[i] * cfg.tc_out[i] * 4 * px
    macs += cfg.final_ch * h * w
    return 2 * macs
