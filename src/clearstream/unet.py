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

Without a cache the down path runs in full and nothing is kept between
forwards; that forward is the reference the two reusing ones are tested
against.  A window shifted by one column is shifted by 2^-L columns at
level L, so windows 2^L columns apart share level L's pooling phase.
A stream, whose window moves one column per packet, passes a UNetCache:
level L reuses its map from 2^L forwards back, shifted by one column,
and recomputes only the columns whose inputs changed.  The batch oracle,
which holds the whole mixture's frames, builds a PhaseMaps instead:
each level's map over the whole frame sequence, once per pooling phase,
from which each window copies its columns and recomputes only those
that read its zero-padded end frames or its left zero pad.  Either way
reuse is decided by comparing the window with what the maps were built
from, so the output is bit-identical to a cache-free forward for any
call sequence.

A forward also takes a stack of B windows, and each stage then runs
once over all of them on a leading axis: the oracle forwards its
windows in blocks, windows p .. p + B - 1 through PhaseMaps.at(p),
and the stream forwards one.  Every stage is elementwise or a GEMM
over rows, so each window's map is bit-identical to its own forward.
Like the column cone, this relies on a float32 GEMM giving each output
row the same bits whatever the number of rows, which the tests check.

Internally the engine computes in single precision with activations
laid out channels-last, and holds only the map columns something reads:
each ds-conv pads just its input span, and the up path's maps hold just
their cone.  That keeps one forward inside a realtime packet budget on
a single core; inputs and the returned probability map stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class UNetCache:
    """The down-path maps one stream carries from one forward to the next.

    Level L keeps its output maps from the last 2^L forwards, oldest
    first: a window shifted by 2^L columns is shifted by exactly one
    column at level L, with the same pooling phase.  A level-L column
    reads the 2^(L+1) - 1 input columns either side of its own 2^L
    (its reach), so it equals the next column of the map 2^L forwards
    back wherever that span holds the same values, shifted, and stays
    inside the window.  The window's right end changes every forward
    and its left edge reads the zero pad, so the columns near either
    edge are recomputed (those at the left only when something reads
    them); every other column is copied.

    links[i] is the number of leading columns in which the window i
    forwards back equals the one before it shifted left by one: the
    first column where they differ, found by comparing them, not
    assumed.  A window that is not a shift of the last one gives a
    short link, and the levels whose span it falls in recompute in
    full.  first[L][s] is the first column of map s that holds valid
    values; the columns before it are never read.
    """

    def __init__(self, cfg: UNetConfig):
        self.mel = np.zeros((cfg.input_mel, cfg.input_frames), dtype=np.float32)
        self.links = np.zeros(1 << (cfg.levels - 1), dtype=np.int64)
        self.maps = [
            [np.zeros((cfg.input_mel >> i, cfg.input_frames >> i, c), dtype=np.float32)
             for _ in range(1 << i)]
            for i, c in enumerate(cfg.down_out)
        ]
        self.first = [np.full(1 << i, cfg.input_frames >> i) for i in range(cfg.levels)]

    def arrays(self) -> list[np.ndarray]:
        """Every value a later forward can read: the last window, the
        links, and each map's valid columns."""
        live = [m[:, f:] for maps, first in zip(self.maps, self.first)
                for m, f in zip(maps, first)]
        return [self.mel, self.links, *self.first, *live]


class PhaseMaps:
    """Every down level's map over one whole frame sequence, once per
    pooling phase, for the windows that slide over it.

    Window p of the sequence starts at its frame p.  A window shifted
    by 2^L frames is shifted by one column at level L, so the windows
    with p mod 2^L = φ share one level-L map, phase φ, and window p
    starts at its column p >> L.  Level L, phase φ pools the level L-1
    map of phase φ mod 2^(L-1) from its column φ >> (L-1).  A forward
    given at(p) copies each column whose reach lies inside the frames
    the window shares with the sequence, found by comparing them, and
    clear of the window's left zero pad; it computes the rest.

    The maps hold (input_mel * base_channels) values per frame and
    level.
    """

    def __init__(self, engine: UNetEngine, frames: np.ndarray):
        cfg = engine.cfg
        frames = np.array(frames, dtype=np.float32)  # a copy the caller cannot change
        if frames.ndim != 2 or frames.shape[0] != cfg.input_mel:
            raise ValueError(f"expected ({cfg.input_mel}, n) frames")
        self.engine = engine
        self.frames = frames
        self.maps: list[list[np.ndarray]] = []
        x = frames[None, :, :, None]
        for i, ds in enumerate(engine.down):
            level = []
            for phase in range(1 << i):
                if i:
                    prev = self.maps[i - 1][phase % (1 << (i - 1))]
                    s = phase >> (i - 1)
                    n = max((prev.shape[1] - s) // 2, 0)
                    x = _pool2(prev[None, :, s : s + 2 * n])
                wide = ds.widened(x.shape[2])
                engine._tally_down(wide, wide.w)
                level.append(wide.run(x)[0])
            self.maps.append(level)

    def at(self, p: int) -> PhaseWindow:
        """What a forward over window p, or over a stack of windows
        p, p + 1, ..., takes as its cache."""
        if p < 0:
            raise ValueError("window index must be >= 0")
        return PhaseWindow(self, p)


class PhaseWindow(NamedTuple):
    """Window p of a PhaseMaps sequence, the first of a stack of them,
    as UNetEngine.forward's cache."""

    maps: PhaseMaps
    p: int


def _pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool on (B, H, W, C), pairwise along each spatial axis."""
    a = np.maximum(x[:, 0::2], x[:, 1::2])
    return np.maximum(a[:, :, 0::2], a[:, :, 1::2])


class _DsConv:
    """Depthwise 3x3 + pointwise 1x1 + ReLU at one fixed resolution,
    over a leading axis of B maps.

    A run pads just the columns it reads, zero where they leave the
    map, and views each padded row of (n + 2) * C values as contiguous,
    so each of the nine shifted multiplies runs along whole rows; the
    tap weights are tiled to the full width's row length to match.
    """

    def __init__(self, dw_w, pw_w, pw_b, h: int, w: int):
        self.cout, self.cin = pw_w.shape
        self.h, self.w = h, w
        self.taps = np.ascontiguousarray(
            np.tile(np.transpose(dw_w, (1, 2, 0)), (1, 1, w)), dtype=np.float32
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
        (B, h, b - a, cout).

        x is (B, h, m, cin) and holds map columns [x0, x0 + m).  It need
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
        pad = np.zeros((x.shape[0], h + 2, n + 2, c), dtype=np.float32)
        pad[:, 1:-1, lo - a + 1 : hi - a + 1] = x[:, :, lo - x0 : hi - x0]
        pad = pad.reshape(x.shape[0], h + 2, -1)
        taps = self.taps[:, :, : n * c]
        acc = pad[:, 0:h, 0 : n * c] * taps[0, 0]
        tmp = np.empty_like(acc)
        for dy in range(3):
            for dx in range(3):
                if dy == 0 and dx == 0:
                    continue
                np.multiply(pad[:, dy : dy + h, dx * c : (dx + n) * c], taps[dy, dx], out=tmp)
                acc += tmp
        acc = acc.reshape(-1, c)
        # with one input channel the GEMM is a broadcast product
        z = acc * self.pw_wt if c == 1 else acc @ self.pw_wt
        z += self.pw_b
        np.maximum(z, 0.0, out=z)
        return z.reshape(x.shape[0], h, n, self.cout)


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
        """x (B, h, n, cmid) -> out (B, 2h, 2n, cout), written in place."""
        bsz, h, n, _ = x.shape
        piece = (x.reshape(-1, self.cmid) @ self.wt).reshape(bsz, h, n, 2, 2, self.cout)
        out[:, 0::2, 0::2] = piece[:, :, :, 0, 0]
        out[:, 0::2, 1::2] = piece[:, :, :, 0, 1]
        out[:, 1::2, 0::2] = piece[:, :, :, 1, 0]
        out[:, 1::2, 1::2] = piece[:, :, :, 1, 1]
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

    def _plan(self, up: list[tuple[int, int]], same: list[int],
              valid: list[int]) -> list[tuple[int, int]]:
        """Per down level, from level 0, the columns (need, start) of a
        down path that copies what it can from maps computed before.

        need is the first column of the level's map that the up path or
        the level below reads; columns [need, start) are copied and
        [start, w) computed.  A level-L column reads the 2^(L+1) - 1
        input columns either side of its own 2^L (its reach); it is
        copied when that span lies inside the window's first same[L]
        columns, which the copied map saw too.  A level copies nothing
        when its first needed column reads the left zero pad or
        precedes valid[L], the first column its source holds.
        """
        cfg = self.cfg
        need = 2 * max(up[0][0] - 1, 0)
        plan = []
        for i in reversed(range(cfg.levels)):
            need = min(need, 2 * up[cfg.levels - 1 - i][0])
            reach = (2 << i) - 1
            edge = -(-reach >> i)  # columns whose reach crosses the left pad
            start = need
            if max(edge, valid[i]) <= need:
                start = max(need, (int(same[i]) - reach) >> i)
            plan.append((need, start))
            need = 2 * max(start - 1, 0)
        return plan[::-1]

    def _down_planned(self, x: np.ndarray, plan: list[tuple[int, int]],
                      up: list[tuple[int, int]], copy) -> tuple[list[np.ndarray], np.ndarray]:
        """The down path by plan: copy(i, need, start) returns level i's
        map columns [need, w), of which [need, start) are filled, and the
        rest are computed.  Every map, the bottom one included, holds
        only the columns at its right end that something reads; each
        of those equals that of _down."""
        skips = []
        x0 = 0
        for i, (ds, (need, start)) in enumerate(zip(self.down, plan)):
            if i:
                x0 = max(start - 1, 0)
                # level i's columns [x0, w) pool the last 2 (w - x0) above
                x = _pool2(skips[-1][:, :, -2 * (ds.w - x0) :])
            m = copy(i, need, start)
            m[:, :, start - need :] = ds.run(x, start, x0=x0)
            self._tally_down(ds, len(x) * (ds.w - start))
            skips.append(m)
        k = max(up[0][0] - 1, 0)
        return skips, _pool2(skips[-1][:, :, -2 * (self.up[0][0].w - k) :])

    def _down_cached(self, x: np.ndarray, cache: UNetCache,
                     up: list[tuple[int, int]]) -> tuple[list[np.ndarray], np.ndarray]:
        """The down path through cache: each level copies what it can
        from its map 2^L forwards back, shifted by one column."""
        cfg = self.cfg
        w = cfg.input_frames
        if len(x) != 1:
            raise ValueError("a UNetCache takes one window per forward")
        differ = np.flatnonzero(np.any(x[0, :, :-1, 0] != cache.mel[:, 1:], axis=0))
        links = cache.links
        links[1:] = links[:-1]
        links[0] = differ[0] if differ.size else w - 1
        cache.mel[...] = x[0, :, :, 0]
        # same[j]: leading columns that equal those of the window j + 1
        # forwards back, shifted left by j + 1
        same = np.minimum.accumulate(links - np.arange(links.size))
        plan = self._plan(up, [same[(1 << i) - 1] for i in range(cfg.levels)],
                          [f[0] - 1 for f in cache.first])

        def copy(i: int, need: int, start: int) -> np.ndarray:
            maps, first = cache.maps[i], cache.first[i]
            m = maps.pop(0)
            m[:, need:start] = m[:, need + 1 : start + 1]
            maps.append(m)
            first[:-1] = first[1:]
            first[-1] = need
            return m[None, :, need:]

        return self._down_planned(x, plan, up, copy)

    def _down_phased(self, x: np.ndarray, at: PhaseWindow,
                     up: list[tuple[int, int]]) -> tuple[list[np.ndarray], np.ndarray]:
        """The down path of windows at.p, at.p + 1, ... of a PhaseMaps
        sequence, one per map of x: window q copies what it can from
        the map of phase q mod 2^L, from its column q >> L on.  The
        block shares one plan, so each window copies the columns that
        every window of the block may copy."""
        maps, p = at
        if maps.engine is not self:
            raise ValueError("phase maps were built by another engine")
        t = self.cfg.input_frames
        same = t
        for q, win in enumerate(x[:, :, :, 0], p):
            seen = maps.frames[:, q : q + t]
            differ = np.flatnonzero(np.any(win[:, : seen.shape[1]] != seen, axis=0))
            same = min(same, differ[0] if differ.size else seen.shape[1])
        plan = self._plan(up, [same] * self.cfg.levels, [0] * self.cfg.levels)

        def copy(i: int, need: int, start: int) -> np.ndarray:
            ds = self.down[i]
            m = np.empty((len(x), ds.h, ds.w - need, ds.cout), dtype=np.float32)
            for q, mq in enumerate(m, p):
                off = q >> i
                mq[:, : start - need] = maps.maps[i][q % (1 << i)][:, off + need : off + start]
            return m

        return self._down_planned(x, plan, up, copy)

    def forward(self, mel_input: np.ndarray,
                cols: tuple[int, int] | None = None,
                cache: UNetCache | PhaseWindow | None = None) -> np.ndarray:
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

        With a UNetCache, the down path of one window reuses the maps of
        earlier forwards through that cache and updates it; with
        PhaseMaps.at(p), windows p, p + 1, ... of a whole frame sequence
        copy from its maps.  Either way the result is bit for bit that
        of a forward without one.
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
        x = mel_input.astype(np.float32).reshape(-1, cfg.input_mel, cfg.input_frames, 1)
        bsz = len(x)
        up = cfg.up_cols(lo, hi)
        if cache is None:
            skips, x = self._down(x)
        elif isinstance(cache, PhaseWindow):
            skips, x = self._down_phased(x, cache, up)
        else:
            skips, x = self._down_cached(x, cache, up)
        # every down-path map holds the columns at its right end; the
        # up path's maps hold just their cone, from column x0
        x0 = self.up[0][0].w - x.shape[2]
        for i, ((ds, tc), (a, b)) in enumerate(zip(self.up, up)):
            px = bsz * ds.h * (b - a)
            self.tally.dw += ds.cin * 9 * px
            self.tally.pw += ds.cout * ds.cin * px
            self.tally.tc += tc.cmid * tc.cout * 4 * px
            skip = skips[cfg.levels - 1 - i]
            s0 = 2 * ds.w - skip.shape[2]
            cat = np.empty((bsz, 2 * ds.h, 2 * (b - a), tc.cout + skip.shape[3]),
                           dtype=np.float32)
            tc.run(ds.run(x, a, b, x0), cat[..., : tc.cout])
            cat[..., tc.cout :] = skip[:, :, 2 * a - s0 : 2 * b - s0]
            x, x0 = cat, 2 * a
        x = x[:, :, lo - x0 : hi - x0]
        self.tally.pw += self.out_wt.size * bsz * cfg.input_mel * (hi - lo)
        logits = x.reshape(-1, cfg.final_ch) @ self.out_wt
        logits += self.out_b
        probs = expit(logits.reshape(mel_input.shape[:-1] + (hi - lo,)))
        return probs.astype(np.float64)


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
