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

A forward can be asked for a range of output columns only.  The up
path and the 1x1 head then run only on the backward cone of those
columns: each conv is local and zero-padded, so a column reads a fixed
neighbourhood one level down, and the values come out bit-identical to
the same columns of a full forward.  The stream and the batch oracle
read just the few mask columns that cover the packet they emit.

Without phase maps the down path runs in full and nothing is kept
between forwards; that forward is the reference the reusing one is
tested against.  A window shifted by one column is shifted by 2^-L
columns at level L, so windows 2^L columns apart share level L's
pooling phase.  PhaseMaps holds each level's columns over a frame
sequence, every phase at once, and computes each column once, when the
frames it reads have arrived: the batch oracle appends the whole
mixture's frames, and a stream each push's.  A window copies its
columns from there and recomputes only those that read its
zero-padded end frames or its left zero pad.  Reuse is decided by
comparing the window with the frames the maps saw, so the output is
bit-identical to a forward without them for any call sequence.

A forward also takes a stack of B windows, and each stage then runs
once over all of them on a leading axis: the oracle and the stream
forward their windows in blocks, windows p .. p + B - 1 through
PhaseMaps.at(p).  Every stage is elementwise or a GEMM over rows, so
each window's map is bit-identical to its own forward.  Like the
column cone, this relies on a float32 GEMM giving each output row the
same bits whatever the number of rows, which the tests check.

Internally the engine computes in single precision with every map
held time-major, (B, columns, n_mel, channels): a column's n_mel *
channels values are contiguous, so the shifted multiplies of a ds-conv
run over a few long rows however few columns the cone holds, and a
window copies its columns from PhaseMaps as whole slabs.
forward transposes at entry and exit, so callers see (n_mel, frames).
The engine holds only the map columns something reads: each ds-conv
pads just its input span, and the up path's maps hold just their cone.
That keeps one forward inside a realtime packet budget on a single
core; inputs and the returned probability map stay float64.
"""

from __future__ import annotations

import sys
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

    def up_cols(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Per up level, the ds-conv output columns that output columns
        [lo, hi) depend on.

        Walking back from the output: the 1x1 head reads its own
        columns, a transposed-conv column c comes from ds-conv column
        c // 2, and a 3x3 ds-conv column reads one column either side
        of it (clipped at the map edge, where the zero pad stands in).
        """
        cols = []
        for i in reversed(range(self.levels)):
            a, b = lo // 2, (hi - 1) // 2 + 1
            cols.append((a, b))
            lo, hi = max(a - 1, 0), min(b + 1, self.input_frames >> (self.levels - i))
        return cols[::-1]


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


class PhaseMaps:
    """Every down level's map over a frame sequence, for the windows that
    slide over it.

    Window p of the sequence starts at its frame p, and its level-L
    column j covers frames p + 2^L j .. p + 2^L (j + 1) - 1.  maps[L]
    holds the column that starts at frame f in row f - base, so windows
    2^L frames apart share their level-L columns, shifted by one (one
    pooling phase per residue mod 2^L).  That column reads frames
    f - 2^(L+1) + 1 .. f + 3 2^L - 2, zeros left of frame 0.

    append computes each column once, when the last frame it reads
    arrives: after n frames level L holds the columns at frames below
    done[L] = n - 3 2^L + 2.  A forward given at(p) copies each column
    whose reach lies inside the frames the window shares with the
    sequence, found by comparing them, and clear of the window's left
    zero pad; such a column is below done[L].  It computes the rest.
    """

    def __init__(self, engine: UNetEngine, frames: np.ndarray):
        cfg = engine.cfg
        self.engine = engine
        self.base = self.n = 0  # the frame of row 0, the frames appended
        # rows for the frames and a stream's first windows, before any forward's
        rows = np.shape(frames)[-1] + cfg.input_frames + (1 << cfg.levels)
        self.frames = np.empty((rows, cfg.input_mel), dtype=np.float32)
        self.maps = [np.empty((rows, cfg.input_mel >> i, c), dtype=np.float32)
                     for i, c in enumerate(cfg.down_out)]
        self.append(frames)

    @property
    def done(self) -> list[int]:
        """Per level, the frame below which every column is held."""
        return [max(self.n - (3 << i) + 2, 0) for i in range(len(self.maps))]

    def append(self, frames: np.ndarray) -> None:
        """Add (input_mel, k) frames at the end of the sequence, and
        compute the columns they complete: per level, one ds-conv run
        per pooling phase that has new columns."""
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[0] != self.engine.cfg.input_mel:
            raise ValueError(f"expected ({self.engine.cfg.input_mel}, n) frames")
        end = self.n + frames.shape[1] - self.base
        if end > len(self.frames):  # twice the rows, or enough for the frames
            old, size = (self.frames, *self.maps), max(end, 2 * len(self.frames))
            self.frames, *self.maps = [np.empty((size,) + a.shape[1:], np.float32) for a in old]
            for a, b in zip((self.frames, *self.maps), old):
                a[: len(b)] = b
        self.frames[self.n - self.base : end] = frames.T
        old = self.done
        self.n += frames.shape[1]
        for i, (ds, d0, d1) in enumerate(zip(self.engine.down_seq, old, self.done)):
            s = 1 << i
            for f in range(d0, min(d0 + s, d1)):  # each phase's first new column
                a, m = f >> i, ((d1 - 1 - f) >> i) + 1  # its first column, their count
                # their input columns a - 1 .. a + m, from frame g
                g = max(f - s, f % s) - self.base
                rows = slice(g, f + (m << i) + 1 - self.base, s)
                if i:  # pool level i - 1's columns at g and g + 2^(i-1)
                    prev, h = self.maps[i - 1], s >> 1
                    x = np.maximum(prev[rows], prev[g + h : rows.stop + h : s])
                    x = np.maximum(x[:, 0::2], x[:, 1::2])
                else:
                    x = self.frames[rows, :, None]
                self.engine._tally_down(ds, m)
                self.maps[i][f - self.base : d1 - self.base : s] = ds.run(
                    x[None], a, a + m, x0=max(a - 1, 0))[0]

    def at(self, p: int) -> tuple[PhaseMaps, int]:
        """What a forward over window p, or over a stack of windows
        p, p + 1, ..., takes as its cache."""
        if p < self.base:
            raise ValueError(f"window index must be >= {self.base}")
        return self, p

    def drop(self, p: int) -> None:
        """Forget what neither windows from p on nor the next append read,
        the rows below the least of p, done[0] - 1 (frames) and done[L] -
        2^L (level L - 1).  The rows move a whole window length at a time."""
        done = self.done
        low = min(p, done[0] - 1, *(d - (1 << i) for i, d in enumerate(done[1:], 1)))
        base = low - low % self.engine.cfg.input_frames
        k = base - self.base
        if k > 0:
            for a, end in zip((self.frames, *self.maps), (self.n, *done)):
                rows = max(end - base, 0)
                a[:rows] = a[k : k + rows]
            self.base = base


def _pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool on time-major (B, W, H, C), pairwise along each
    spatial axis: first over whole columns, then along the mel axis."""
    a = np.maximum(x[:, 0::2], x[:, 1::2])
    return np.maximum(a[:, :, 0::2], a[:, :, 1::2])


class _DsConv:
    """Depthwise 3x3 + pointwise 1x1 + ReLU at one fixed resolution,
    over a leading axis of B time-major maps.

    A run pads just the columns it reads, zero where they leave the
    map, and views each padded column of (h + 2) * C values as one
    contiguous row, so each of the nine shifted multiplies runs over n
    rows of h * C values; the tap weights are tiled to h * C to match.
    """

    def __init__(self, dw_w, pw_w, pw_b, h: int, w: int):
        self.cout, self.cin = pw_w.shape
        self.h, self.w = h, w
        self.taps = np.ascontiguousarray(
            np.tile(np.transpose(dw_w, (1, 2, 0)), (1, 1, h)), dtype=np.float32
        )
        self.pw_wt = np.ascontiguousarray(pw_w.T, dtype=np.float32)
        self.pw_b = np.asarray(pw_b, dtype=np.float32)

    def widened(self, w: int) -> _DsConv:
        """The same conv at width w."""
        dw_w = np.transpose(self.taps[:, :, : self.cin], (2, 0, 1))
        return _DsConv(dw_w, self.pw_wt.T, self.pw_b, self.h, w)

    def run(self, x: np.ndarray, a: int = 0, b: int | None = None,
            x0: int = 0) -> np.ndarray:
        """Output columns [a, b) (default all) of each map, shape
        (B, b - a, h, cout).

        x is (B, m, h, cin) and holds map columns [x0, x0 + m).  It need
        hold only the columns those outputs read, [a - 1, b + 1) clipped
        to the map; zeros stand in for the columns beyond its edges.
        Every map goes through the same elementwise ops, and the
        pointwise GEMM gives each row the same bits whatever the number
        of rows, so a map's output does not depend on B.
        """
        h, w, c = self.h, self.w, self.cin
        b = w if b is None else b
        n = b - a
        lo, hi = max(a - 1, 0), min(b + 1, w)
        pad = np.zeros((len(x), n + 2, h + 2, c), dtype=np.float32)
        pad[:, lo - a + 1 : hi - a + 1, 1:-1] = x[:, lo - x0 : hi - x0]
        pad = pad.reshape(len(x), n + 2, -1)
        taps = self.taps
        acc = pad[:, 0:n, 0 : h * c] * taps[0, 0]
        tmp = np.empty_like(acc)
        for dy in range(3):
            for dx in range(3):
                if dy == 0 and dx == 0:
                    continue
                np.multiply(pad[:, dx : dx + n, dy * c : (dy + h) * c], taps[dy, dx], out=tmp)
                acc += tmp
        acc = acc.reshape(-1, c)
        # with one input channel the GEMM is a broadcast product
        z = acc * self.pw_wt if c == 1 else acc @ self.pw_wt
        z += self.pw_b
        np.maximum(z, 0.0, out=z)
        return z.reshape(len(x), n, h, self.cout)


class _TConv:
    """2x2 stride-2 transposed conv + ReLU: one GEMM, bias and ReLU on
    its contiguous output, then one scatter of the four phase grids
    into the doubled-resolution output."""

    def __init__(self, tc_w, tc_b):
        cmid, cout = tc_w.shape[0], tc_w.shape[1]
        self.cmid, self.cout = cmid, cout
        # GEMM columns are (dy, dx, cout): mel offset, column offset, channel
        self.wt = np.ascontiguousarray(
            np.transpose(tc_w, (0, 2, 3, 1)).reshape(cmid, 4 * cout),
            dtype=np.float32,
        )
        self.b = np.tile(np.asarray(tc_b, dtype=np.float32), 4)

    def run(self, x: np.ndarray, out: np.ndarray) -> None:
        """x (B, n, h, cmid) -> out (B, 2n, 2h, cout), written in place."""
        bsz, n, h, _ = x.shape
        z = x.reshape(-1, self.cmid) @ self.wt
        z += self.b
        np.maximum(z, 0.0, out=z)
        # out[:, 2c + dx, 2r + dy] is z at column c, mel row r, offsets
        # (dy, dx); the reshape only splits out's column and mel axes,
        # so grid is a view of out whatever out's channel stride
        grid = out.reshape(bsz, n, 2, h, 2, self.cout)
        assert np.may_share_memory(grid, out)
        grid[...] = z.reshape(bsz, n, h, 2, 2, self.cout).transpose(0, 1, 4, 2, 3, 5)


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
        # for PhaseMaps, each down conv at a width no sequence reaches:
        # it pads only left of frame 0
        self.down_seq = [ds.widened(sys.maxsize) for ds in self.down]
        self.up = []
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
        self.out_wt = np.ascontiguousarray(
            np.asarray(t("unet.out.w"), dtype=np.float32).T
        )
        self.out_b = np.asarray(t("unet.out.b"), dtype=np.float32)
        self.tally = UNetTally()

    def _tally_down(self, ds: _DsConv, n: int) -> None:
        px = ds.h * n
        self.tally.dw += ds.cin * 9 * px
        self.tally.pw += ds.cout * ds.cin * px

    def _down(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """The full down path: every level's map and the bottom map."""
        skips = []
        for ds in self.down:
            self._tally_down(ds, len(x) * ds.w)
            x = ds.run(x)
            skips.append(x)
            x = _pool2(x)
        return skips, x

    def _plan(self, up: list[tuple[int, int]], same: int) -> list[tuple[int, int]]:
        """Per down level, from level 0, the columns (need, start) of a
        down path that copies what it can from maps computed before.

        need is the first column of the level's map that the up path or
        the level below reads; columns [need, start) are copied and
        [start, w) computed.  A level-L column reads the 2^(L+1) - 1
        input columns either side of its own 2^L (its reach); it is
        copied when that span lies inside the window's first `same`
        columns, which the copied map saw too.  A level copies nothing
        when its first needed column reads the left zero pad.
        """
        cfg = self.cfg
        need = 2 * max(up[0][0] - 1, 0)
        plan = []
        for i in reversed(range(cfg.levels)):
            need = min(need, 2 * up[cfg.levels - 1 - i][0])
            reach = (2 << i) - 1
            edge = -(-reach >> i)  # columns whose reach crosses the left pad
            start = need
            if edge <= need:
                start = max(need, (same - reach) >> i)
            plan.append((need, start))
            need = 2 * max(start - 1, 0)
        return plan[::-1]

    def _down_phased(self, x: np.ndarray, at: tuple[PhaseMaps, int],
                     up: list[tuple[int, int]]) -> tuple[list[np.ndarray], np.ndarray]:
        """The down path of windows at.p, at.p + 1, ... of a PhaseMaps
        sequence, one per map of x: window q's level-L column j is the
        maps' column at frame q + 2^L j.  The block shares one plan, so
        each window copies what every window of it may copy.  Every map,
        the bottom one included, holds only the columns at its right end
        that something reads; each of those equals that of _down."""
        maps, p = at
        if maps.engine is not self:
            raise ValueError("phase maps were built by another engine")
        t = self.cfg.input_frames
        same = t
        for q, win in enumerate(x[:, :, :, 0], p):
            seen = maps.frames[q - maps.base : maps.n - maps.base][:t]
            differ = np.flatnonzero(np.any(win[: len(seen)] != seen, axis=1))
            same = min(same, differ[0] if differ.size else len(seen))
        plan = self._plan(up, int(same))
        skips = []
        x0 = 0
        for i, (ds, (need, start)) in enumerate(zip(self.down, plan)):
            if i:
                x0 = max(start - 1, 0)
                # level i's columns [x0, w) pool the last 2 (w - x0) above
                x = _pool2(skips[-1][:, -2 * (ds.w - x0) :])
            m = np.empty((len(x), ds.w - need, ds.h, ds.cout), dtype=np.float32)
            for r, mq in enumerate(m, p - maps.base):
                mq[: start - need] = maps.maps[i][r + (need << i) : r + (start << i) : 1 << i]
            m[:, start - need :] = ds.run(x, start, x0=x0)
            self._tally_down(ds, len(x) * (ds.w - start))
            skips.append(m)
        k = max(up[0][0] - 1, 0)
        return skips, _pool2(skips[-1][:, -2 * (self.up[0][0].w - k) :])

    def forward(self, mel_input: np.ndarray,
                cols: tuple[int, int] | None = None,
                cache: tuple[PhaseMaps, int] | None = None) -> np.ndarray:
        """Mel window (input_mel, input_frames) -> probability map, each
        value sigmoid-activated in (0, 1).  A stack of B windows,
        (B, input_mel, input_frames), gives the B maps stacked, each bit
        for bit that of the window on its own: every stage is
        elementwise or a GEMM over rows, and runs once for the stack.

        cols = (lo, hi) asks for output columns [lo, hi) only, shape
        (input_mel, hi - lo); the default is every column.  The values
        equal forward(mel_input)[:, lo:hi] bit for bit: the up path and
        head run on the columns of cfg.up_cols(lo, hi), which hold every
        value those outputs read.

        With PhaseMaps.at(p), windows p, p + 1, ... of a frame sequence
        copy down-path columns from its maps; the result is bit for bit
        that of a forward without them.
        """
        cfg = self.cfg
        mel_input = np.asarray(mel_input, dtype=np.float64)
        if (mel_input.ndim not in (2, 3)
                or mel_input.shape[-2:] != (cfg.input_mel, cfg.input_frames)):
            raise ValueError(
                f"expected ({cfg.input_mel}, {cfg.input_frames}) input or a stack of them"
            )
        lo, hi = (0, cfg.input_frames) if cols is None else cols
        if not 0 <= lo < hi <= cfg.input_frames:
            raise ValueError(f"cols must satisfy 0 <= lo < hi <= {cfg.input_frames}")
        if not np.all(np.isfinite(mel_input)):
            raise ValueError("mel input must be finite")
        x = mel_input.reshape(-1, cfg.input_mel, cfg.input_frames).swapaxes(1, 2)
        x = x.astype(np.float32, order="C")[..., None]  # time-major (B, W, H, 1)
        bsz = len(x)
        up = cfg.up_cols(lo, hi)
        if cache is None:
            skips, x = self._down(x)
        else:
            skips, x = self._down_phased(x, cache, up)
        # every down-path map holds the columns at its right end; the
        # up path's maps hold just their cone, from column x0
        x0 = self.up[0][0].w - x.shape[1]
        for i, ((ds, tc), (a, b)) in enumerate(zip(self.up, up)):
            px = bsz * ds.h * (b - a)
            self.tally.dw += ds.cin * 9 * px
            self.tally.pw += ds.cout * ds.cin * px
            self.tally.tc += tc.cmid * tc.cout * 4 * px
            skip = skips[cfg.levels - 1 - i]
            s0 = 2 * ds.w - skip.shape[1]
            cat = np.empty((bsz, 2 * (b - a), 2 * ds.h, tc.cout + skip.shape[3]),
                           dtype=np.float32)
            tc.run(ds.run(x, a, b, x0), cat[..., : tc.cout])
            cat[..., tc.cout :] = skip[:, 2 * a - s0 : 2 * b - s0]
            x, x0 = cat, 2 * a
        # the head reads whole columns: contiguous rows, as a full forward's
        x = x[:, lo - x0 : hi - x0]
        self.tally.pw += self.out_wt.size * bsz * cfg.input_mel * (hi - lo)
        logits = x.reshape(-1, cfg.final_ch) @ self.out_wt
        logits += self.out_b
        probs = expit(logits.reshape(bsz, hi - lo, cfg.input_mel)).swapaxes(1, 2)
        return probs.astype(np.float64, order="C").reshape(mel_input.shape[:-1] + (hi - lo,))


def threshold_mask(probs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Probabilities to binary mask; values >= threshold pass."""
    probs = np.asarray(probs)
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return (probs >= threshold).astype(np.float64)


def unet_flop_count(config: UNetConfig | None = None,
                    cols: tuple[int, int] | None = None) -> int:
    """Analytic FLOPs of one forward without a cache: the full down path,
    then the up path and head over output columns cols = (lo, hi)
    (default every column, a full forward).

    Convs (depthwise, pointwise, transposed) count 2 FLOPs per MAC;
    pooling, concatenation, and activations are not counted.
    """
    cfg = config or UNetConfig()
    h, w = cfg.input_mel, cfg.input_frames
    lo, hi = (0, w) if cols is None else cols
    macs = 0
    for i in range(cfg.levels):
        px = (h >> i) * (w >> i)
        macs += cfg.down_in[i] * 9 * px
        macs += cfg.down_in[i] * cfg.down_out[i] * px
    for i, (a, b) in enumerate(cfg.up_cols(lo, hi)):
        px = (h >> (cfg.levels - i)) * (b - a)
        macs += cfg.up_in[i] * 9 * px
        macs += cfg.up_in[i] * cfg.up_mid[i] * px
        macs += cfg.up_mid[i] * cfg.tc_out[i] * 4 * px
    macs += cfg.final_ch * h * (hi - lo)
    return 2 * macs
