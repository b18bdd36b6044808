"""Full enhancement stream: streaming/batch agreement, alignment, latency math."""

import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearstream.pipeline import (
    _ORACLE_BLOCK,
    CbNetStream,
    LatencyBudget,
    PipelineConfig,
    _Combiner,
    _UncachedRunner,
    _pad_slice,
    bench_packet,
    bound_engines,
    enhance_signal,
    latency_total,
    offline_oracle,
    process_file,
)
from clearstream.dsp import WaveBuffer, decimate_by_2
from clearstream.tcn import TcnEngine
from clearstream.unet import UNetEngine, threshold_mask, unet_flop_count
from clearstream.wavio import read_wav, write_wav
from clearstream.weights import random_init


def test_stream_matches_offline_oracle(small_pipeline, small_pipeline_bundle, rng):
    x = 0.3 * rng.standard_normal((2, 8 * small_pipeline.tcn.packet_len))
    streamed = enhance_signal(x, small_pipeline_bundle, small_pipeline)
    batch = enhance_signal(x, small_pipeline_bundle, small_pipeline, oracle=True)
    assert streamed.shape == batch.shape == (x.shape[1],)
    assert np.max(np.abs(streamed - batch)) <= 1e-9


def test_stream_matches_oracle_default_config(rng, monkeypatch):
    """Criterion 1's gate on the weight seeds whose masks are not
    constant (see test_unet's cache cases), so that it compares real
    masking on both paths.  One second of noise whose level sweeps from
    0.01 to 30 gives each of these seeds' masks both 0s and 1s; at
    criterion 1's constant 0.2, seed 3 passes every cell."""
    cfg = PipelineConfig()
    probs = []
    real = UNetEngine.forward

    def record(self, mel, cols=None, cache=None):
        out = real(self, mel, cols, cache=cache)
        probs.append(out)
        return out

    monkeypatch.setattr(UNetEngine, "forward", record)
    n = int(cfg.sample_rate)
    x = np.logspace(-2, 1.5, n) * rng.standard_normal((2, n))
    for seed in (1, 3, 4, 8):
        bundle = random_init(cfg, seed=seed)
        probs.clear()
        streamed = enhance_signal(x, bundle, cfg)
        oracle = enhance_signal(x, bundle, cfg, oracle=True)
        # both paths forward stacks of windows; one row per window
        masks = threshold_mask(np.concatenate([pr.reshape(-1, pr.shape[-1]) for pr in probs]))
        assert np.min(masks) == 0.0 and np.max(masks) == 1.0, seed
        assert np.any(oracle != 0.0), seed
        assert np.max(np.abs(streamed - oracle)) <= 1e-4, seed


@pytest.mark.parametrize("config", ["small", "default"])
def test_incremental_mel_equals_recompute(config, small_pipeline, rng):
    """The stream updates only the newest mel columns per push; the
    window it holds must equal a from-scratch mel of its mixture window.
    After a block push it owns that window's mel, not a view that keeps
    the block's mels alive."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    stream = CbNetStream(random_init(cfg, seed=3), cfg)
    w = cfg.tcn.packet_len
    for k in [1] * (cfg.unet.input_frames + 6) + [16]:
        stream.push(0.3 * rng.standard_normal((2, k * w)))
        want = stream.comb.unet_input(stream.mix_win)
        assert np.array_equal(stream.mix_mel, want)
    assert stream.mix_mel.flags.owndata


@pytest.mark.parametrize("config", ["small", "default"])
def test_oracle_feeds_unet_the_stream_mel(config, small_pipeline, rng, monkeypatch):
    """Stream and oracle build each window's mel from different pieces;
    the UNet must still see bit-identical inputs for the same window.
    The oracle passes its windows in blocks, which are unstacked here;
    the signal spans more than one block."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    bundle = random_init(cfg, seed=4)
    seen = []
    real_forward = UNetEngine.forward

    def record(self, mel, cols=None, **kwargs):
        seen.extend((m.copy(), cols) for m in np.reshape(mel, (-1,) + mel.shape[-2:]))
        return real_forward(self, mel, cols, **kwargs)

    monkeypatch.setattr(UNetEngine, "forward", record)
    x = 0.3 * rng.standard_normal((2, (_ORACLE_BLOCK + 6) * cfg.tcn.packet_len))
    enhance_signal(x, bundle, cfg)
    streamed = seen
    seen = []
    enhance_signal(x, bundle, cfg, oracle=True)
    assert len(seen) == len(streamed) > 0
    for (got, got_cols), (want, want_cols) in zip(seen, streamed):
        assert got_cols == want_cols == cfg.mask_cols
        assert np.array_equal(got, want)


@pytest.mark.parametrize("config,seed", [("small", 42), ("small", 18), ("default", 1),
                                         ("default", 3), ("default", 4), ("default", 8)])
def test_blocked_oracle_equals_per_window_reference(config, seed, small_pipeline, rng):
    """The oracle runs the UNet and the combiner once per block of
    _ORACLE_BLOCK windows.  Its output must equal, bit for bit, a
    reference that takes each window on its own: the window's mel from
    scratch, a UNet forward without a cache, the threshold and a
    one-window combine, over the oracle's TCN output.  The window counts
    straddle the block edges, and the weight seeds give masks that hold
    both 0s and 1s."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    bundle = random_init(cfg, seed=seed)
    w, la, nwin = cfg.tcn.packet_len, cfg.lookahead_cols, cfg.window_samples
    b = _ORACLE_BLOCK
    counts = (1, b - 1, b, b + 1, 2 * b + 3)
    n_pkts = max(counts) + la
    n = n_pkts * w
    # a level sweep from 0.01 to 30, scaled per packet by 0.1 to 10
    level = np.logspace(-2, 1.5, n) * np.repeat(10 ** rng.uniform(-1, 1, n_pkts), w)
    x = level * rng.standard_normal((2, n))
    # window p's mask reads the mixture up to packet p + la only, so a
    # prefix of x has a prefix of these masks
    engine, comb = UNetEngine(bundle, cfg.unet), _Combiner(cfg)
    mixsum = x.sum(axis=0)
    masks = []
    for p in range(max(counts)):
        end = (p + 1 + la) * w
        probs = engine.forward(comb.unet_input(_pad_slice(mixsum, end - nwin, end)),
                               cfg.mask_cols)
        masks.append(threshold_mask(probs, cfg.unet.threshold))
    assert np.min(masks) == 0.0 and np.max(masks) == 1.0
    for k in counts:
        xk = x[:, : (k + la) * w]
        tcn = TcnEngine(bundle, cfg.tcn).forward_stream(xk)
        want = np.concatenate([
            comb.combine(_pad_slice(tcn, (p + 1) * w - nwin, (p + 1) * w), masks[p])
            for p in range(k)
        ])
        got = offline_oracle(xk, bundle, cfg)
        assert np.array_equal(got, want), k
    assert np.any(got != 0.0)


@pytest.mark.parametrize("config", ["small", "default"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_block_combine_equals_single_combines(config, small_pipeline, data):
    """A combine over a stack of B windows and masks emits, row by row,
    what B one-window combines emit, bit for bit."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    comb = _Combiner(cfg)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    b = data.draw(st.integers(1, 2 * _ORACLE_BLOCK + 3))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    wins = scale * rng.standard_normal((b, cfg.window_samples))
    masks = rng.random((b, cfg.unet.input_mel, cfg.cover_frames))
    if data.draw(st.booleans()):
        masks = threshold_mask(masks, data.draw(st.floats(0.01, 0.99)))
    got = comb.combine(wins, masks)
    assert got.shape == (b, cfg.hop)
    for row, win, mask in zip(got, wins, masks):
        assert np.array_equal(row, comb.combine(win, mask))


@pytest.mark.parametrize("config", ["small", "default"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batched_mel_equals_single_frames(config, small_pipeline, data):
    """One mel_frames call over k frames fills, column by column, what k
    one-frame calls do, bit for bit, wherever the frames lie: before
    the signal's start, across it or past its end.  A (B, n) stack of
    mixture windows gives, window by window, what B calls give."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    comb = _Combiner(cfg)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n = data.draw(st.integers(1, 40)) * cfg.hop + data.draw(st.integers(0, cfg.hop - 1))
    x = data.draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(n)
    reach = -(-cfg.win_len // cfg.hop)
    first = data.draw(st.integers(-reach - 3, n // cfg.hop + 3))
    k = data.draw(st.integers(1, 300))
    got = comb.mel_frames(x, first, np.empty((cfg.unet.input_mel, k)))
    for j in range(k):
        one = comb.mel_frames(x, first + j, np.empty((cfg.unet.input_mel, 1)))
        assert np.array_equal(got[:, j], one[:, 0]), (first, j)
    wins = rng.standard_normal((data.draw(st.integers(1, 2 * _ORACLE_BLOCK)),
                                cfg.window_samples))
    stacked = comb.unet_input(wins)
    for mel, win in zip(stacked, wins):
        assert np.array_equal(mel, comb.unet_input(win))


@pytest.mark.parametrize("oracle", [False, True])
def test_enhance_signal_rejects_bad_shapes(small_pipeline, small_pipeline_bundle, oracle):
    """Both modes check the input's shape first, with one message."""
    for bad in (np.zeros(640), np.zeros((3, 640)), np.zeros((1, 2, 640))):
        with pytest.raises(ValueError, match=r"^expected \(2, n\) samples$"):
            enhance_signal(bad, small_pipeline_bundle, small_pipeline, oracle=oracle)


def test_ones_mask_equals_tcn_stream(small_pipeline, constant_mask_bundle, rng):
    """Under an all-pass UNet mask, stream and oracle both give the TCN's
    own output: the combiner's masked overlap-add is then an identity."""
    cfg = small_pipeline
    bundle = constant_mask_bundle(cfg, 42, 0.0)
    w = cfg.tcn.packet_len
    n = 8 * w
    x = 0.3 * rng.standard_normal((2, n))
    pad_pkts = -(-n // w) + cfg.lookahead_cols
    padded = np.zeros((2, pad_pkts * w))
    padded[:, :n] = x
    want = TcnEngine(bundle, cfg.tcn).forward_stream(padded)[:n]
    scale = max(1.0, float(np.max(np.abs(want))))
    for oracle in (False, True):
        got = enhance_signal(x, bundle, cfg, oracle=oracle)
        assert np.max(np.abs(got - want)) <= 1e-5 * scale


def test_zeros_mask_gives_silence(small_pipeline, constant_mask_bundle, rng):
    bundle = constant_mask_bundle(small_pipeline, 42, -1.0)
    x = rng.standard_normal((2, 5 * small_pipeline.tcn.packet_len))
    for oracle in (False, True):
        out = enhance_signal(x, bundle, small_pipeline, oracle=oracle)
        assert np.all(out == 0.0)


@pytest.fixture()
def stage_calls(monkeypatch):
    """Windows through UNetEngine.forward and _Combiner.combine: one per
    window of a stack."""
    calls = {"forward": 0, "combine": 0}

    def count(cls, name, ndim):
        real = getattr(cls, name)

        def wrapper(self, x, *args, **kwargs):
            calls[name] += len(x) if np.ndim(x) > ndim else 1
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    count(UNetEngine, "forward", 2)
    count(_Combiner, "combine", 1)
    return calls


def test_cold_stream_emits_zero_packets_first(small_pipeline, small_pipeline_bundle,
                                              rng, stage_calls):
    stream = CbNetStream(small_pipeline_bundle, small_pipeline)
    w = small_pipeline.tcn.packet_len
    for _ in range(small_pipeline.lookahead_cols):
        out = stream.push(0.3 * rng.standard_normal((2, w)))
        assert np.all(out == 0.0)
    # the silent pushes run neither the UNet nor the combiner
    assert stage_calls == {"forward": 0, "combine": 0}
    out = stream.push(0.3 * rng.standard_normal((2, w)))
    assert np.any(out != 0.0)
    assert stage_calls == {"forward": 1, "combine": 1}


def _push_blocks(stream, x, sizes):
    """Push x through stream in blocks of the given packet counts."""
    w = stream.cfg.tcn.packet_len
    outs, p = [], 0
    for k in sizes:
        out = stream.push(x[:, p * w : (p + k) * w])
        assert out.shape == (k * w,)
        outs.append(out)
        p += k
    return np.concatenate(outs)


def _state(stream):
    """Every array the stream carries from one push to the next: of its
    phase maps, the frames from the next window on, done relative to
    that window, and every held column from that window up to done[L]."""
    maps, first = stream.maps, max(stream.packets_seen - stream.cfg.lookahead_cols, 0)
    held = [maps.frames[first - maps.base : maps.n - maps.base],
            np.subtract(maps.done, first)]
    held += [m[first - maps.base : max(d - maps.base, 0)] for m, d in zip(maps.maps, maps.done)]
    return [stream.mix_win, stream.tcn_win, stream.mix_mel] + stream.tcn_state.bufs + held


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=40),
       seed=st.integers(0, 2**16))
def test_block_push_equals_packet_pushes(small_pipeline, small_pipeline_bundle,
                                         sizes, seed):
    cfg = small_pipeline
    n_pkts = max(40, sum(sizes))
    sizes = sizes + [1] * (n_pkts - sum(sizes))
    x = 0.3 * np.random.default_rng(seed).standard_normal(
        (2, n_pkts * cfg.tcn.packet_len))
    single = CbNetStream(small_pipeline_bundle, cfg)
    want = _push_blocks(single, x, [1] * n_pkts)
    block = CbNetStream(small_pipeline_bundle, cfg)
    assert np.array_equal(_push_blocks(block, x, sizes), want)
    assert block.packets_seen == single.packets_seen == n_pkts
    for a, b in zip(_state(block), _state(single)):
        assert np.array_equal(a, b)


def test_block_push_default_config(rng, constant_mask_bundle):
    """3 s of signal in one push, on the full-size network.  Seed 6's
    UNet masks every cell, so the all-pass UNet makes a second case
    whose output is not silence; seeds 1, 3, 4 and 8 mask some cells."""
    cfg = PipelineConfig()
    w = cfg.tcn.packet_len
    n_pkts = -(-3 * 15625 // w)
    x = 0.3 * rng.standard_normal((2, n_pkts * w))
    for bundle in (random_init(cfg, seed=6), constant_mask_bundle(cfg, 6, 0.0),
                   *(random_init(cfg, seed=s) for s in (1, 3, 4, 8))):
        single = CbNetStream(bundle, cfg)
        want = _push_blocks(single, x, [1] * n_pkts)
        block = CbNetStream(bundle, cfg)
        assert np.array_equal(block.push(x), want)
        for a, b in zip(_state(block), _state(single)):
            assert np.array_equal(a, b)
    assert np.any(want != 0.0)


@pytest.mark.parametrize("config", ["small", "default"])
def test_primed_push_computes_few_down_columns(config, small_pipeline, rng):
    """On a primed stream, each packet of a k-packet push computes per
    down level only the columns CbNetStream.push derives: the append
    computes the 1 its frame completes, and the forward the 3 (default
    config) that read the zero-padded end frames.  The rest of the UNet
    work is the mask columns' cone, so a k-packet push does k times a
    single push's work."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    columns = {"small": (5, 4), "default": (4, 4, 4, 4)}[config]
    u = cfg.unet
    stream = CbNetStream(random_init(cfg, seed=1), cfg)
    w = cfg.tcn.packet_len
    tally = stream.unet_engine.tally
    per_col = [(u.down_in[i] * 9 + u.down_in[i] * u.down_out[i]) * (u.input_mel >> i)
               for i in range(u.levels)]
    full = sum(c * (u.input_frames >> i) for i, c in enumerate(per_col))
    want = unet_flop_count(u, cfg.mask_cols) - 2 * full + 2 * sum(
        c * n for c, n in zip(per_col, columns))
    for n in range(cfg.lookahead_cols + u.input_frames + 3):
        tally.reset()
        stream.push(0.3 * rng.standard_normal((2, w)))
        if n > cfg.lookahead_cols + (1 << u.levels):
            assert 2 * tally.total() == want, n
    for k in (1, 5, 16, 33):
        tally.reset()
        stream.push(0.3 * rng.standard_normal((2, k * w)))
        assert 2 * tally.total() == k * want, k


def test_enhance_signal_equals_packet_pushes(small_pipeline, small_pipeline_bundle,
                                             rng, tmp_path, monkeypatch):
    """enhance_signal and process_file push in blocks; their output is the
    one-packet-at-a-time stream's, owned, not a view."""
    cfg = small_pipeline
    w = cfg.tcn.packet_len
    monkeypatch.setattr("clearstream.pipeline._BLOCK_PACKETS", 4)
    n = 13 * w + 5
    x = 0.3 * rng.standard_normal((2, n))
    pad_pkts = -(-n // w) + cfg.lookahead_cols
    padded = np.zeros((2, pad_pkts * w))
    padded[:, :n] = x
    stream = CbNetStream(small_pipeline_bundle, cfg)
    want = _push_blocks(stream, padded, [1] * pad_pkts)[cfg.lookahead_cols * w :][:n]
    got = enhance_signal(x, small_pipeline_bundle, cfg)
    assert np.array_equal(got, want)
    assert got.base is None

    path = tmp_path / "in.wav"
    write_wav(path, WaveBuffer(x, sample_rate=15625.0))
    q = read_wav(path).data
    stream = CbNetStream(small_pipeline_bundle, cfg)
    padded[:, :n] = q
    want = _push_blocks(stream, padded, [1] * pad_pkts)[cfg.lookahead_cols * w :][:n]
    assert np.array_equal(process_file(path, small_pipeline_bundle, None, cfg).data[0],
                          want)


def _injected(x, rng, count):
    """x with count samples set to NaN, +inf or -inf at random places."""
    bad = x.copy()
    idx = rng.choice(x.size, size=count, replace=False)
    bad.flat[idx] = rng.choice([np.nan, np.inf, -np.inf], size=count)
    clean = x.copy()
    clean.flat[idx] = 0.0
    return bad, clean


_F32_MAX = float(np.finfo(np.float32).max)


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12),
       values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       min_size=1, max_size=40),
       seed=st.integers(0, 2**16))
def test_non_finite_input_is_sanitised(small_pipeline, small_pipeline_bundle,
                                       sizes, values, seed):
    """push never raises on any float64 sample, NaN and inf included,
    and emits exactly what it emits for the same input with the samples
    beyond the float32 range (and NaN) set to 0.  The oracle sets the
    same samples to 0, so it still equals the stream."""
    cfg = small_pipeline
    rng = np.random.default_rng(seed)
    x = 0.3 * rng.standard_normal((2, sum(sizes) * cfg.tcn.packet_len))
    values = values[: x.size]
    idx = rng.choice(x.size, size=len(values), replace=False)
    bad, clean = x.copy(), x.copy()
    bad.flat[idx] = values
    clean.flat[idx] = [v if abs(v) <= _F32_MAX else 0.0 for v in values]
    stream = CbNetStream(small_pipeline_bundle, cfg)
    got = _push_blocks(stream, bad, sizes)
    want = _push_blocks(CbNetStream(small_pipeline_bundle, cfg), clean, sizes)
    assert np.array_equal(got, want)
    assert np.all(np.isfinite(got))
    assert stream.samples_sanitised == sum(not abs(v) <= _F32_MAX for v in values)
    oracle = offline_oracle(bad, small_pipeline_bundle, cfg)
    assert oracle.shape == got[cfg.lookahead_cols * cfg.tcn.packet_len :].shape
    assert np.all(np.abs(oracle - got[cfg.lookahead_cols * cfg.tcn.packet_len :]) <= 1e-9)


def test_huge_samples_do_not_raise():
    """Four pushes of huge finite packets once raised from the UNet's
    finite-input check on the third push, after the TCN had advanced.
    Samples beyond the float32 range are now set to 0 at ingress; those
    at its edge pass through and still give finite output."""
    cfg = PipelineConfig()
    w = cfg.tcn.packet_len
    for value, dropped in ((1e306, True), (1.797e308, True), (_F32_MAX, False),
                           (-_F32_MAX, False)):
        stream = CbNetStream(random_init(cfg, seed=1), cfg)
        for _ in range(4):
            assert np.all(np.isfinite(stream.push(np.full((2, w), value))))
        assert stream.packets_seen == 4
        assert stream.samples_sanitised == (4 * 2 * w if dropped else 0)


@settings(max_examples=10, deadline=None)
@given(bad_pkts=st.integers(1, 6), count=st.integers(1, 40),
       sizes=st.lists(st.integers(1, 6), min_size=1, max_size=10),
       seed=st.integers(0, 2**16))
def test_bad_input_leaves_no_trace(small_pipeline, small_pipeline_bundle,
                                   bad_pkts, count, sizes, seed):
    """A block of noise mixed with NaN and inf, once older than the TCN
    receptive span plus every window that reads it, leaves the stream
    emitting exactly what a cold stream fed only the later signal does."""
    cfg = small_pipeline
    w = cfg.tcn.packet_len
    span = -(-cfg.tcn.receptive_frames // cfg.tcn.frames_per_packet)
    settled = span + cfg.lookahead_cols + cfg.unet.input_frames
    rng = np.random.default_rng(seed)
    bad, _ = _injected(rng.standard_normal((2, bad_pkts * w)), rng, count)
    n_pkts = max(settled + 8, sum(sizes))
    sizes = sizes + [1] * (n_pkts - sum(sizes))
    x = 0.3 * rng.standard_normal((2, n_pkts * w))
    dirty = CbNetStream(small_pipeline_bundle, cfg)
    dirty.push(bad)
    got = _push_blocks(dirty, x, sizes)
    cold = CbNetStream(small_pipeline_bundle, cfg)
    want = _push_blocks(cold, x, sizes)
    assert np.array_equal(got[settled * w :], want[settled * w :])
    for a, b in zip(_state(dirty), _state(cold)):
        assert np.array_equal(a, b)


def test_rejected_push_leaves_state_unchanged(small_pipeline, small_pipeline_bundle,
                                              rng):
    cfg = small_pipeline
    w = cfg.tcn.packet_len
    stream = CbNetStream(small_pipeline_bundle, cfg)
    stream.push(0.3 * rng.standard_normal((2, 3 * w)))
    before = [a.copy() for a in _state(stream)]
    for bad in (np.zeros((2, 0)), np.zeros((2, 2 * w + 1)), np.zeros((1, 2, w)),
                np.zeros((3, w)), np.full((2, w + 3), np.nan)):
        with pytest.raises(ValueError, match="k >= 1"):
            stream.push(bad)
    assert stream.packets_seen == 3
    assert stream.tcn_state.frames_seen == 3 * cfg.tcn.frames_per_packet
    assert stream.samples_sanitised == 0
    for a, b in zip(_state(stream), before):
        assert np.array_equal(a, b)


def test_cold_block_push_skips_silent_packets(small_pipeline, small_pipeline_bundle,
                                              rng, stage_calls):
    cfg = small_pipeline
    w, la = cfg.tcn.packet_len, cfg.lookahead_cols
    k = la + 3
    out = CbNetStream(small_pipeline_bundle, cfg).push(
        0.3 * rng.standard_normal((2, k * w)))
    assert np.all(out[: la * w] == 0.0)
    assert np.all(np.any(out[la * w :].reshape(k - la, w) != 0.0, axis=1))
    assert stage_calls == {"forward": k - la, "combine": k - la}


def test_output_length_matches_input(small_pipeline, small_pipeline_bundle, rng):
    w = small_pipeline.tcn.packet_len
    for n in (1, w - 1, w, w + 1, 3 * w + 17, 8 * w):
        x = 0.1 * rng.standard_normal((2, n))
        out = enhance_signal(x, small_pipeline_bundle, small_pipeline)
        assert out.shape == (n,)
        assert np.all(np.isfinite(out))


def test_causality_horizon(small_pipeline, small_pipeline_bundle, rng):
    """Output packet p reads input only up to (p+1) packets + lookahead."""
    cfg = small_pipeline
    w = cfg.tcn.packet_len
    la = cfg.tcn.lookahead
    n = 12 * w
    x = 0.3 * rng.standard_normal((2, n))
    y = x.copy()
    q = 10 * w
    y[:, q:] += 5.0
    out_x = enhance_signal(x, small_pipeline_bundle, cfg)
    out_y = enhance_signal(y, small_pipeline_bundle, cfg)
    # unchanged for packets whose full horizon precedes the perturbation
    safe = (q - la) // w * w - w
    assert np.array_equal(out_x[:safe], out_y[:safe])
    assert not np.array_equal(out_x, out_y)


def test_enhance_deterministic(small_pipeline, small_pipeline_bundle, rng):
    x = 0.3 * rng.standard_normal((2, 6 * small_pipeline.tcn.packet_len))
    a = enhance_signal(x, small_pipeline_bundle, small_pipeline)
    b = enhance_signal(x, small_pipeline_bundle, small_pipeline)
    assert np.array_equal(a, b)


def test_bundle_binds_its_engines_once(small_pipeline, rng, monkeypatch):
    """Streams and oracle calls on one bundle share one engine of each
    kind; a config that differs only in the UNet threshold keeps the
    TCN engine.  The bound bundle is read-only, and dropping it frees
    its engines."""
    built = {}
    for cls in (TcnEngine, UNetEngine, _Combiner):
        def counted(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] = built.get(_name, 0) + 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cfg = small_pipeline
    bundle = random_init(cfg, seed=1)
    # a tensor that is a view of an array the caller keeps
    held = np.stack([bundle.tensor("unet.out.b")] * 2)
    bundle.records["unet.out.b"].data = held[0]
    x = 0.3 * rng.standard_normal((2, 6 * cfg.tcn.packet_len))
    for oracle in (False, False, True, True):
        enhance_signal(x, bundle, cfg, oracle=oracle)
    assert built == {"TcnEngine": 1, "UNetEngine": 1, "_Combiner": 1}
    other = replace(cfg, unet=replace(cfg.unet, threshold=0.7))
    enhance_signal(x, bundle, other)
    assert built == {"TcnEngine": 1, "UNetEngine": 2, "_Combiner": 2}
    with pytest.raises(ValueError, match="read-only"):
        bundle.tensor("unet.out.b")[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        bundle.add("extra", np.zeros(2))
    held[0] = 9.0
    assert np.all(bound_engines(bundle, cfg).unet.out_b == held[1])
    engine = weakref.ref(bound_engines(bundle, cfg).tcn)
    assert engine() is not None
    del bundle
    assert engine() is None


@pytest.mark.parametrize("config,seed", [("small", 42), ("small", 18),
                                         ("default", 1), ("default", 4)])
def test_shared_engines_carry_no_stream_state(config, seed, small_pipeline, rng):
    """Two streams and an oracle call on one bundle, interleaved, emit
    what each emits on a bundle of its own.  The weight seeds give masks
    that hold both 0s and 1s; at the small config, seeds 1 and 4 block
    every cell, and every output would be silence."""
    cfg = small_pipeline if config == "small" else PipelineConfig()
    w = cfg.tcn.packet_len
    sizes = [1, 3, 1, 7, 2, 1, 18, 1]
    n = sum(sizes) * w
    xs = [np.logspace(-2, 1.5, n) * rng.standard_normal((2, n)) for _ in range(3)]
    bundle = random_init(cfg, seed=seed)
    streams = [CbNetStream(bundle, cfg) for _ in range(2)]
    outs, p = [[], []], 0
    for step, k in enumerate(sizes):
        for out, stream, x in zip(outs, streams, xs):
            out.append(stream.push(x[:, p * w : (p + k) * w]))
        p += k
        if step == 3:
            oracle = enhance_signal(xs[2], bundle, cfg, oracle=True)
    alone = [_push_blocks(CbNetStream(random_init(cfg, seed=seed), cfg), x, sizes)
             for x in xs[:2]]
    alone.append(enhance_signal(xs[2], random_init(cfg, seed=seed), cfg, oracle=True))
    for got, want in zip([*map(np.concatenate, outs), oracle], alone):
        assert np.any(want != 0.0)
        assert np.array_equal(got, want)


@pytest.fixture()
def unet_calls(monkeypatch):
    """Every window of every UNetEngine.forward call made through phase
    maps, as (engine, mel, cols, probs); a stack of windows gives one
    entry per window."""
    calls = []
    real = UNetEngine.forward

    def record(self, mel, cols=None, cache=None):
        probs = real(self, mel, cols, cache=cache)
        if cache is not None:
            shape = mel.shape[-2:]
            calls.extend((self, m.copy(), cols, pr) for m, pr in
                         zip(np.reshape(mel, (-1,) + shape),
                             np.reshape(probs, (-1,) + probs.shape[-2:])))
        return probs

    monkeypatch.setattr(UNetEngine, "forward", record)
    return calls


@pytest.mark.parametrize("config", ["small", "default"])
def test_stream_unet_cache_equals_cache_free_forward(config, small_pipeline, rng,
                                                     unet_calls):
    """Every mask the stream computes through its phase maps, over
    single and block pushes, equals a forward without the maps, window
    by window of each stack.  The weight seeds give masks that hold
    both 0s and 1s."""
    cfg, seed = (small_pipeline, 42) if config == "small" else (PipelineConfig(), 1)
    stream = CbNetStream(random_init(cfg, seed=seed), cfg)
    w = cfg.tcn.packet_len
    sizes = [1] * 12 + [5, 1, 9, 2, 1, 1, 3] + [1] * 10
    _push_blocks(stream, 0.3 * rng.standard_normal((2, sum(sizes) * w)), sizes)
    assert len(unet_calls) == sum(sizes) - cfg.lookahead_cols
    masks = []
    for engine, mel, cols, probs in unet_calls:
        assert np.array_equal(probs, engine.forward(mel, cols))
        masks.append(threshold_mask(probs))
    assert np.min(masks) == 0.0 and np.max(masks) == 1.0


def test_uncached_runner_matches_stream(small_pipeline, small_pipeline_bundle, rng):
    """The no-reuse reference runner, which runs the TCN and the UNet
    without their caches, must emit the same packets."""
    cfg = small_pipeline
    w = cfg.tcn.packet_len
    cached = CbNetStream(small_pipeline_bundle, cfg)
    uncached = _UncachedRunner(small_pipeline_bundle, cfg)
    for _ in range(8):
        pkt = 0.3 * rng.standard_normal((2, w))
        a = cached.push(pkt)
        b = uncached.push(pkt)
        assert np.max(np.abs(a - b)) <= 1e-9
    # a block of packets, which the runner recomputes packet by packet
    x = 0.3 * rng.standard_normal((2, 9 * w))
    a = cached.push(x)
    b = uncached.push(x)
    assert a.shape == b.shape == (9 * w,)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_latency_report_default_budget():
    rep = latency_total()
    assert rep.total_ms == 109.4
    assert rep.total_ms_rounded == 109
    assert rep.allowance_ms == 90.6
    assert rep.allowance_ms_rounded == 91
    assert rep.over_budget is False
    assert rep.components["ble_ms"] == 15.0


def test_latency_report_custom_budgets():
    rep = latency_total(LatencyBudget(ble_ms=7.5))
    assert rep.total_ms == 101.9
    assert rep.total_ms_rounded == 102
    assert rep.allowance_ms_rounded == 98

    zero = latency_total(LatencyBudget(0.0, 0.0, 0.0, 0.0))
    assert zero.total_ms == 0.0
    assert zero.allowance_ms == 200.0

    over = latency_total(LatencyBudget(inference_ms=200.0))
    assert over.over_budget is True
    assert over.allowance_ms < 0


def test_process_file_roundtrip(tmp_path, small_pipeline, small_pipeline_bundle, rng):
    n = 5 * small_pipeline.tcn.packet_len + 7
    x = 0.2 * rng.standard_normal((2, n))
    in_path = tmp_path / "in.wav"
    out_path = tmp_path / "out.wav"
    write_wav(in_path, WaveBuffer(x, sample_rate=15625.0))
    result = process_file(in_path, small_pipeline_bundle, out_path, small_pipeline)
    assert result.channels == 1
    assert result.data.shape == (1, n)
    assert result.sample_rate == 15625.0
    # must equal enhancing the quantized samples directly
    quantized = read_wav(in_path).data
    want = enhance_signal(quantized, small_pipeline_bundle, small_pipeline)
    assert np.array_equal(result.data[0], want)
    assert out_path.exists()
    written = read_wav(out_path)
    assert written.data.shape == (1, n)


def test_process_file_accepts_double_rate(tmp_path, small_pipeline, small_pipeline_bundle, rng):
    n_hi = 2 * 4 * small_pipeline.tcn.packet_len + 1  # odd: last sample dropped
    x = 0.2 * rng.standard_normal((2, n_hi))
    in_path = tmp_path / "hi.wav"
    write_wav(in_path, WaveBuffer(x, sample_rate=31250.0))
    result = process_file(in_path, small_pipeline_bundle, None, small_pipeline)
    assert result.data.shape == (1, (n_hi - 1) // 2)
    quantized = read_wav(in_path).data[:, :-1]
    low = np.stack([decimate_by_2(ch) for ch in quantized])
    want = enhance_signal(low, small_pipeline_bundle, small_pipeline)
    assert np.array_equal(result.data[0], want)


def test_process_file_rejects_bad_input(tmp_path, small_pipeline, small_pipeline_bundle, rng):
    mono = tmp_path / "mono.wav"
    write_wav(mono, WaveBuffer(0.1 * rng.standard_normal((1, 400)), sample_rate=15625.0))
    with pytest.raises(ValueError, match="stereo"):
        process_file(mono, small_pipeline_bundle, None, small_pipeline)
    wrong = tmp_path / "wrong.wav"
    write_wav(wrong, WaveBuffer(0.1 * rng.standard_normal((2, 400)), sample_rate=8000.0))
    with pytest.raises(ValueError, match="expected"):
        process_file(wrong, small_pipeline_bundle, None, small_pipeline)


def test_config_dict_roundtrip(small_pipeline):
    for cfg in (small_pipeline, PipelineConfig()):
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    assert PipelineConfig.from_dict({}) == PipelineConfig()
    with pytest.raises(ValueError, match="hop"):
        PipelineConfig(hop=175)


def test_bench_report_shape(small_pipeline, small_pipeline_bundle):
    cfg = small_pipeline
    reps = {}
    for cached in (True, False):
        rep = bench_packet(
            small_pipeline_bundle, small_pipeline, n_packets=10, cached=cached
        )
        assert rep.mode == ("cached" if cached else "uncached")
        assert rep.n_packets == 10
        assert rep.p95_ms >= rep.median_ms >= 0.0
        assert rep.tcn_flops_uncached > rep.tcn_flops_cached > 0
        parsed = json.loads(rep.to_json())
        assert parsed["unet_flops"] == rep.unet_flops
        reps[cached] = rep
    # every timed push runs the UNet: the uncached runner its column cone,
    # the stream its cached step, which does less
    cone = unet_flop_count(cfg.unet, cfg.mask_cols)
    assert reps[False].unet_flops_per_push == cone
    assert 0 < reps[True].unet_flops_per_push < cone
    assert reps[True].net_flops_per_packet == (reps[True].tcn_flops_cached
                                               + reps[True].unet_flops_per_push)
    with pytest.raises(ValueError, match="n_packets"):
        bench_packet(small_pipeline_bundle, small_pipeline, n_packets=0)


def test_bench_tallies_on_shared_engine():
    """bench_packet's cached and uncached runners share the bundle's
    UNet engine and its tally: each run counts only its own pushes, so
    a primed cached push prices at 6,472,704 FLOPs at the default
    config whether it runs before or after an uncached run."""
    cfg = PipelineConfig()
    bundle = random_init(cfg, seed=1)
    cone = unet_flop_count(cfg.unet, cfg.mask_cols)
    # the first lookahead + 2^levels + 1 pushes are not yet primed
    primed = cfg.lookahead_cols + (1 << cfg.unet.levels) + 1
    runs = [bench_packet(bundle, cfg, n_packets=2, cached=cached, warmup=primed)
            for cached in (True, False, True)]
    assert [r.unet_flops_per_push for r in runs] == [6_472_704, cone, 6_472_704]
