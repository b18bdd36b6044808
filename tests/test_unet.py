"""Mask refiner network: loop-level reference forward, thresholds, FLOPs."""

import numpy as np
import pytest

from clearstream.dsp import ComplexSpectrogram
from clearstream.metrics import oracle_mask
from clearstream.unet import (
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


@pytest.mark.parametrize("config", ["small", "default"])
def test_column_cone_is_bit_identical(config, small_unet, rng):
    """forward(mel, (lo, hi)) computes only the up-path cone of those
    columns; it must equal the same columns of a full forward exactly."""
    cfg = small_unet if config == "small" else UNetConfig()
    w = cfg.input_frames
    ranges = [(0, 1), (0, 3), (w - 1, w), (w - 3, w), (1, 2), (w // 2 - 1, w // 2 + 2),
              (w - 5, w - 2), (0, w)]
    for seed in range(3):
        engine = UNetEngine(random_init(cfg, seed=seed), cfg)
        mel, other = np.abs(rng.standard_normal((2, cfg.input_mel, w)))
        full = engine.forward(mel)
        for lo, hi in ranges:
            # fill the engine's scratch with another input's values, so a
            # cone that reads a column it did not compute gets it wrong
            engine.forward(other)
            assert np.array_equal(engine.forward(mel, (lo, hi)), full[:, lo:hi]), (lo, hi)
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
        engine.tally.reset()
        engine.forward(rng.standard_normal((cfg.input_mel, cfg.input_frames)))
        assert 2 * engine.tally.total() == unet_flop_count(cfg)


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
