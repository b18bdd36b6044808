"""Mask refiner network: loop-level reference forward, thresholds, FLOPs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearstream.dsp import ComplexSpectrogram
from clearstream.metrics import oracle_mask
from clearstream.pipeline import PipelineConfig
from clearstream.unet import (
    PhaseMaps,
    UNetConfig,
    UNetEngine,
    threshold_mask,
    unet_flop_count,
)
from clearstream.weights import random_init, zero_init


def naive_forward(mel, bundle, cfg: UNetConfig) -> np.ndarray:
    """Per-pixel reference UNet. Explicit loops everywhere."""

    def dw3x3(x, w):
        c, h, wd = x.shape
        out = np.zeros_like(x)
        for ch in range(c):
            for y in range(h):
                for xx in range(wd):
                    acc = 0.0
                    for dy in range(3):
                        for dx in range(3):
                            sy, sx = y + dy - 1, xx + dx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc += w[ch, dy, dx] * x[ch, sy, sx]
                    out[ch, y, xx] = acc
        return out

    def pw(x, w, b):
        cin, h, wd = x.shape
        out = np.zeros((w.shape[0], h, wd))
        for co in range(w.shape[0]):
            for y in range(h):
                for xx in range(wd):
                    acc = b[co]
                    for ci in range(cin):
                        acc += w[co, ci] * x[ci, y, xx]
                    out[co, y, xx] = acc
        return out

    def pool(x):
        c, h, wd = x.shape
        out = np.zeros((c, h // 2, wd // 2))
        for ch in range(c):
            for y in range(h // 2):
                for xx in range(wd // 2):
                    out[ch, y, xx] = max(
                        x[ch, 2 * y, 2 * xx],
                        x[ch, 2 * y, 2 * xx + 1],
                        x[ch, 2 * y + 1, 2 * xx],
                        x[ch, 2 * y + 1, 2 * xx + 1],
                    )
        return out

    def tconv(x, w, b):
        cin, h, wd = x.shape
        cout = w.shape[1]
        out = np.zeros((cout, 2 * h, 2 * wd))
        for co in range(cout):
            for y in range(h):
                for xx in range(wd):
                    for dy in range(2):
                        for dx in range(2):
                            acc = 0.0
                            for ci in range(cin):
                                acc += w[ci, co, dy, dx] * x[ci, y, xx]
                            out[co, 2 * y + dy, 2 * xx + dx] = acc
        return out + b[:, None, None]

    t8 = lambda name: np.asarray(bundle.tensor(name), dtype=np.float64)
    x = np.asarray(mel, dtype=np.float64)[None]
    skips = []
    for i in range(cfg.levels):
        x = np.maximum(
            pw(dw3x3(x, t8(f"unet.down{i}.dw.w")), t8(f"unet.down{i}.pw.w"), t8(f"unet.down{i}.pw.b")),
            0.0,
        )
        skips.append(x)
        x = pool(x)
    for i in range(cfg.levels):
        x = np.maximum(
            pw(dw3x3(x, t8(f"unet.up{i}.dw.w")), t8(f"unet.up{i}.pw.w"), t8(f"unet.up{i}.pw.b")),
            0.0,
        )
        x = np.maximum(tconv(x, t8(f"unet.up{i}.tc.w"), t8(f"unet.up{i}.tc.b")), 0.0)
        x = np.concatenate([x, skips[cfg.levels - 1 - i]], axis=0)
    logits = pw(x, t8("unet.out.w"), t8("unet.out.b"))[0]
    return 1.0 / (1.0 + np.exp(-logits))


def test_forward_matches_naive_oracle(small_unet, rng):
    bundle = random_init(small_unet, seed=42)
    mel = rng.standard_normal((small_unet.input_mel, small_unet.input_frames))
    got = UNetEngine(bundle, small_unet).forward(mel)
    want = naive_forward(mel, bundle, small_unet)
    assert got.shape == mel.shape
    # engine convolves in single precision; observed deviation from the
    # float64 reference stays below 1e-7 on post-sigmoid values
    assert np.max(np.abs(got - want)) <= 1e-5


def test_zero_weights_give_half_probabilities(small_unet, rng):
    bundle = zero_init(small_unet)
    mel = rng.standard_normal((small_unet.input_mel, small_unet.input_frames))
    probs = UNetEngine(bundle, small_unet).forward(mel)
    assert np.all(probs == 0.5)


def test_default_shape_and_range(rng):
    cfg = UNetConfig()
    bundle = random_init(cfg, seed=1)
    mel = np.abs(rng.standard_normal((128, 64)))
    probs = UNetEngine(bundle, cfg).forward(mel)
    assert probs.shape == (128, 64)
    assert np.all((probs > 0.0) & (probs < 1.0))


@pytest.mark.parametrize("config", ["small", "default", "head"])
def test_column_cone_is_bit_identical(config, small_unet, rng):
    """forward(mel, (lo, hi)) computes only the up-path cone of those
    columns; it must equal the same columns of a full forward exactly,
    for a window on its own and for the same window in a stack.  At the
    "head" config (8 channels into the 1x1 head) and weight seed 2, a
    single column's head product read strided rows and missed the full
    forward's by one float32 step in most draws."""
    cfg = {"small": small_unet, "default": UNetConfig(),
           "head": UNetConfig(input_mel=32, input_frames=32, base_channels=4, levels=3)}[config]
    w = cfg.input_frames
    ranges = [(0, 1), (0, 3), (w - 1, w), (w - 3, w), (1, 2), (w // 2 - 1, w // 2 + 2),
              (w - 5, w - 2), (0, w), *((c, c + 1) for c in range(2, w - 1, 5))]
    for seed in range(3):
        engine = UNetEngine(random_init(cfg, seed=seed), cfg)
        mel, other = np.abs(rng.standard_normal((2, cfg.input_mel, w)))
        full = engine.forward(mel)
        for lo, hi in ranges:
            # run another input first, so a cone that reads a stale
            # column it did not compute gets it wrong
            engine.forward(other)
            assert np.array_equal(engine.forward(mel, (lo, hi)), full[:, lo:hi]), (lo, hi)
            stacked = engine.forward(np.stack([other, mel]), (lo, hi))
            assert np.array_equal(stacked[1], full[:, lo:hi]), (lo, hi)
        assert np.array_equal(engine.forward(mel), full)


def test_forward_deterministic(small_unet, rng):
    bundle = random_init(small_unet, seed=9)
    engine = UNetEngine(bundle, small_unet)
    mel = rng.standard_normal((small_unet.input_mel, small_unet.input_frames))
    assert np.array_equal(engine.forward(mel), engine.forward(mel))


def test_threshold_mask_boundary_and_monotonicity(rng):
    probs = np.array([[0.0, 0.4999, 0.5, 0.5001, 1.0]])
    assert threshold_mask(probs).tolist() == [[0.0, 0.0, 1.0, 1.0, 1.0]]
    grid = rng.uniform(0.0, 1.0, size=(20, 20))
    prev = None
    for th in (0.1, 0.3, 0.5, 0.7, 0.9):
        mask = threshold_mask(grid, th)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        if prev is not None:
            # raising the threshold can only turn cells off
            assert np.all(mask <= prev)
        prev = mask
    with pytest.raises(ValueError):
        threshold_mask(np.array([1.5]))
    with pytest.raises(ValueError):
        threshold_mask(np.array([-0.1]))


def test_ibm_target_brute_force(rng):
    """The IBM, the binary target a mask refiner estimates, from
    metrics.oracle_mask: 1 where the target magnitude is >= every
    interferer's."""

    def spec(shape):
        mag = rng.uniform(0, 2, size=shape)
        return ComplexSpectrogram(mag * np.exp(2j * np.pi * rng.random(shape)))

    target = spec((6, 5))
    others = [spec((6, 5)) for _ in range(3)]
    mask, _ = oracle_mask("ibm", target, others)
    for i in range(6):
        for j in range(5):
            t = abs(target.data[i, j])
            want = 1.0 if all(t >= abs(o.data[i, j]) for o in others) else 0.0
            assert mask[i, j] == want


def test_flop_count_matches_instrumented_forward(small_unet, rng):
    for cfg in (small_unet, UNetConfig()):
        bundle = random_init(cfg, seed=2)
        engine = UNetEngine(bundle, cfg)
        mel = rng.standard_normal((cfg.input_mel, cfg.input_frames))
        w = cfg.input_frames
        for cols in (None, (0, 1), (w - 5, w - 2), (w - 1, w)):
            engine.tally.reset()
            engine.forward(mel, cols)
            assert 2 * engine.tally.total() == unet_flop_count(cfg, cols), cols
    cfg = PipelineConfig()
    assert unet_flop_count(cfg.unet, cfg.mask_cols) == 12_124_160
    assert unet_flop_count(cfg.unet) == 32_399_360


def test_flop_scaling_with_width():
    base = UNetConfig()
    wide = UNetConfig(base_channels=2 * base.base_channels)
    # pointwise and transposed-conv terms are quadratic in width
    ratio = unet_flop_count(wide) / unet_flop_count(base)
    assert 3.0 <= ratio <= 4.5


def test_input_validation(small_unet):
    bundle = random_init(small_unet, seed=0)
    engine = UNetEngine(bundle, small_unet)
    with pytest.raises(ValueError, match="expected"):
        engine.forward(np.zeros((small_unet.input_mel, small_unet.input_frames + 1)))
    with pytest.raises(ValueError, match="expected"):
        engine.forward(np.zeros((1, 1, small_unet.input_mel, small_unet.input_frames)))
    bad = np.zeros((small_unet.input_mel, small_unet.input_frames))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        engine.forward(bad)
    good = np.zeros((small_unet.input_mel, small_unet.input_frames))
    for cols in ((2, 2), (-1, 3), (0, small_unet.input_frames + 1)):
        with pytest.raises(ValueError, match="cols"):
            engine.forward(good, cols)


def test_config_validation():
    with pytest.raises(ValueError):
        UNetConfig(input_mel=100)  # not divisible by 16
    with pytest.raises(ValueError):
        UNetConfig(base_channels=0)
    with pytest.raises(ValueError):
        UNetConfig(threshold=1.0)


# Per config, the weight seeds the cache tests use, and the spec their
# bundles are drawn from.  On log1p(16 |N(0, 1)|) windows each seed's
# masks hold both 0s and 1s, which mixed_engines checks; many seeds of
# an untrained UNet pass or block every cell.  The default config uses
# the acceptance tests' pipeline seeds (seed 9's UNet passes every cell).
_SMALL = UNetConfig(input_mel=16, input_frames=16, base_channels=2, levels=2)
# input_frames == 2**levels: the deepest map is one column wide, so its
# left and right edges are the same column
_EDGE = UNetConfig(input_mel=16, input_frames=16, base_channels=2, levels=4)
_CACHE_CASES = {
    "small": (_SMALL, _SMALL, (1, 3)),
    "edge": (_EDGE, _EDGE, (0, 4, 6)),
    "default": (UNetConfig(), PipelineConfig(), (1, 3, 4, 8)),
}


def _window(cfg, rng, cols=None):
    shape = (cfg.input_mel, cols or cfg.input_frames)
    return np.log1p(16 * np.abs(rng.standard_normal(shape)))


@pytest.fixture(scope="module")
def mixed_engines():
    engines = {}
    rng = np.random.default_rng(5)
    for name, (cfg, spec, seeds) in _CACHE_CASES.items():
        engines[name] = [UNetEngine(random_init(spec, seed=s), cfg) for s in seeds]
        for engine in engines[name]:
            masks = [threshold_mask(engine.forward(_window(cfg, rng))) for _ in range(4)]
            assert np.min(masks) == 0.0 and np.max(masks) == 1.0
    return engines


@pytest.mark.parametrize("config", sorted(_CACHE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_phase_maps_are_bit_identical_to_cache_free(config, mixed_engines, data):
    """Over a random frame sequence, each block of windows forwarded
    through the sequence's PhaseMaps equals a forward of each window
    without them.  A window takes its first `whole` columns from the
    sequence and redraws the rest, as the oracle's zero-padded end
    frames are; sequences with fewer windows than the deepest level's
    phases are drawn too.  A block starts at any window and holds any
    number of those that follow; a one-window block is sometimes passed
    unstacked.  Some blocks are given the wrong index, or a sequence
    frame of one window altered, so the maps' columns must be checked
    before they are copied."""
    engines = mixed_engines[config]
    engine = engines[data.draw(st.integers(0, len(engines) - 1))]
    cfg = engine.cfg
    w = cfg.input_frames
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    whole = data.draw(st.integers(1, w))
    n_win = data.draw(st.integers(1, (2 << cfg.levels) + 2))
    frames = _window(cfg, rng, n_win - 1 + whole)
    maps = PhaseMaps(engine, frames)
    lo = data.draw(st.integers(0, w - 1))
    cols = data.draw(st.sampled_from([None, (w - 5, w - 2), (lo, w)]))
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.integers(0, n_win - 1))
        mel = np.stack([_window(cfg, rng) for _ in range(data.draw(st.integers(1, n_win - p)))])
        for j, m in enumerate(mel):
            m[:, :whole] = frames[:, p + j : p + j + whole]
        kind = data.draw(st.sampled_from(["block"] * 4 + ["index", "altered"]))
        at = p
        if kind == "index":
            at = data.draw(st.integers(0, n_win + 2))
        elif kind == "altered":
            # any shared frame, or one of the last few, whose reach the
            # copied columns share, mostly in a window after the first
            j = len(mel) - 1 - data.draw(st.integers(0, len(mel) - 1))
            t = st.integers(0, whole - 1) | st.integers(max(whole - 4, 0), whole - 1)
            mel[j, :, data.draw(t)] += 1.0
        if len(mel) == 1 and data.draw(st.booleans()):
            got = engine.forward(mel[0], cols, cache=maps.at(at))[None]
        else:
            got = engine.forward(mel, cols, cache=maps.at(at))
        assert len(got) == len(mel)
        for j, m in enumerate(mel):
            assert np.array_equal(got[j], engine.forward(m, cols)), (kind, p, j, at)


@pytest.mark.parametrize("config", sorted(_CACHE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_phase_maps_extended_in_chunks_equal_built_once(config, mixed_engines, data):
    """PhaseMaps built over no frames that grow as a stream's do, frames
    appended block by block, blocks of any sizes forwarded through
    them and the passed windows dropped, hold on every column below
    done[L] that is not dropped exactly what PhaseMaps built once over
    all the frames hold.  Each window takes its first `whole` frames
    from the sequence and redraws the rest; some blocks alter a shared
    frame of one window, which must then not copy the columns that read
    it.  Every forward equals one without maps, over the
    stream's mask columns, every column, or a range or single column
    anywhere, whose cone may read map columns left of the stream's."""
    engines = mixed_engines[config]
    engine = engines[data.draw(st.integers(0, len(engines) - 1))]
    cfg = engine.cfg
    w = cfg.input_frames
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    whole = data.draw(st.integers(4, w))
    n_win = data.draw(st.integers(1, w + (2 << cfg.levels)))
    frames = _window(cfg, rng, n_win - 1 + whole)
    built = PhaseMaps(engine, frames)
    maps = PhaseMaps(engine, frames[:, :0])
    lo = data.draw(st.integers(0, w - 1))
    cols = data.draw(st.sampled_from([(w - 5, w - 2), (w - 5, w - 2), None, (lo, w),
                                      (lo, lo + 1)]))
    p = 0
    while p < n_win:
        b = data.draw(st.integers(1, min(2 * w, n_win - p)))
        maps.append(frames[:, maps.n : p + b - 1 + whole])
        mel = np.stack([_window(cfg, rng) for _ in range(b)])
        for j, m in enumerate(mel):
            m[:, :whole] = frames[:, p + j : p + j + whole]
        if data.draw(st.integers(0, 4)) == 0:
            mel[data.draw(st.integers(0, b - 1)), :, data.draw(st.integers(0, whole - 1))] += 1.0
        got = engine.forward(mel, cols, cache=maps.at(p))
        for j, m in enumerate(mel):
            assert np.array_equal(got[j], engine.forward(m, cols)), (p, j)
        p += b
        maps.drop(p)
    assert maps.n == built.n == len(frames.T) and maps.done == built.done
    # drop keeps exactly the rows from window p on and those the next append reads
    d = maps.done
    low = min(p, d[0] - 1, *(d[i] - (1 << i) for i in range(1, cfg.levels)))
    assert maps.base == max(low - low % w, 0)
    assert np.array_equal(maps.frames[: maps.n - maps.base], built.frames[maps.base : maps.n])
    for m, want, done in zip(maps.maps, built.maps, maps.done):
        assert np.array_equal(m[: max(done - maps.base, 0)], want[maps.base : done])


def test_phase_maps_compare_every_window_of_a_block(mixed_engines):
    """A block copies only what every one of its windows shares with the
    sequence: altering the last shared frame of any one window makes
    the block recompute the columns that read it."""
    engine = mixed_engines["default"][2]
    cfg = engine.cfg
    pipe = PipelineConfig()
    whole = cfg.input_frames - pipe.cover_frames + 1
    rng = np.random.default_rng(9)
    frames = _window(cfg, rng, 7 + whole)
    maps = PhaseMaps(engine, frames)
    mels = np.stack([_window(cfg, rng) for _ in range(8)])
    for p, mel in enumerate(mels):
        mel[:, :whole] = frames[:, p : p + whole]
    for j in range(len(mels)):
        altered = mels.copy()
        altered[j, :, whole - 1] += 1.0
        got = engine.forward(altered, pipe.mask_cols, cache=maps.at(0))
        for k, mel in enumerate(altered):
            assert np.array_equal(got[k], engine.forward(mel, pipe.mask_cols)), (j, k)


def test_phase_maps_recompute_three_columns_per_level(mixed_engines):
    """At the default config a window of the oracle, whose last 2
    frames are zero-padded ones, computes 3 columns of each down level
    over the stream's mask columns; the maps hold every other column.
    A block of B windows does B times that work."""
    engine = mixed_engines["default"][0]
    cfg = engine.cfg
    pipe = PipelineConfig()
    whole = cfg.input_frames - pipe.cover_frames + 1
    rng = np.random.default_rng(7)
    frames = _window(cfg, rng, 20 + whole)
    maps = PhaseMaps(engine, frames)
    down = [(cfg.down_in[i] * 9 + cfg.down_in[i] * cfg.down_out[i]) * (cfg.input_mel >> i)
            for i in range(cfg.levels)]
    want = unet_flop_count(cfg, pipe.mask_cols) - 2 * sum(
        d * ((cfg.input_frames >> i) - 3) for i, d in enumerate(down))
    mels = np.stack([_window(cfg, rng) for _ in range(21)])
    for p, mel in enumerate(mels):
        mel[:, :whole] = frames[:, p : p + whole]
        engine.tally.reset()
        engine.forward(mel, pipe.mask_cols, cache=maps.at(p))
        assert 2 * engine.tally.total() == want
    for p, b in ((0, 21), (3, 7), (5, 16), (20, 1)):
        engine.tally.reset()
        engine.forward(mels[p : p + b], pipe.mask_cols, cache=maps.at(p))
        assert 2 * engine.tally.total() == b * want, (p, b)


def test_phase_maps_input_validation(mixed_engines):
    small, other = mixed_engines["small"]
    cfg = small.cfg
    with pytest.raises(ValueError, match="frames"):
        PhaseMaps(small, np.zeros((cfg.input_mel + 1, 20)))
    maps = PhaseMaps(small, np.zeros((cfg.input_mel, 20)))
    with pytest.raises(ValueError, match="index"):
        maps.at(-1)
    with pytest.raises(ValueError, match="another engine"):
        other.forward(np.zeros((cfg.input_mel, cfg.input_frames)), cache=maps.at(0))
