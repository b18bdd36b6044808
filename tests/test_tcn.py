"""Time-domain separator engine: batch/streaming equivalence and compute accounting.

The batch forward pass is checked against a from-scratch nested-loop
re-implementation; streaming is checked against the batch pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearstream import tcn
from clearstream.tcn import (
    TcnConfig,
    TcnEngine,
    tcn_buffer_frames,
    tcn_flop_count,
)
from clearstream.weights import random_init, zero_init


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def naive_full_forward(x: np.ndarray, bundle, cfg: TcnConfig) -> np.ndarray:
    """Direct-convolution reference: explicit loops, no caching, no reuse."""
    L, N, C, K = cfg.frame_len, cfg.latent_channels, cfg.in_channels, cfg.conv_kernel
    T = x.shape[1] // L
    enc_w = np.asarray(bundle.tensor("enc.w"), dtype=np.float64)
    enc_b = np.asarray(bundle.tensor("enc.b"), dtype=np.float64)
    enc = np.zeros((N, T))
    for n in range(N):
        for t in range(T):
            acc = enc_b[n]
            for c in range(C):
                for j in range(L):
                    acc += enc_w[n, c, j] * x[c, t * L + j]
            enc[n, t] = max(acc, 0.0)

    h = enc
    for i, d in enumerate(cfg.dilations):
        dw = np.asarray(bundle.tensor(f"tcn.{i}.dw.w"), dtype=np.float64)
        pw_w = np.asarray(bundle.tensor(f"tcn.{i}.pw.w"), dtype=np.float64)
        pw_b = np.asarray(bundle.tensor(f"tcn.{i}.pw.b"), dtype=np.float64)
        span = (K - 1) * d
        t_out = h.shape[1] - span
        y = np.zeros((N, t_out))
        for n in range(N):
            for t in range(t_out):
                acc = 0.0
                for j in range(K):
                    acc += dw[n, j] * h[n, t + j * d]
                y[n, t] = acc
        z = np.zeros((N, t_out))
        for n in range(N):
            for t in range(t_out):
                acc = pw_b[n]
                for m in range(N):
                    acc += pw_w[n, m] * y[m, t]
                z[n, t] = max(acc, 0.0) + h[n, span + t]
        h = z

    fpp, la = cfg.frames_per_packet, cfg.lookahead_frames
    mask = sigmoid(h[:, -fpp:])
    out_cols = enc[:, T - la - fpp : T - la]
    dec_w = np.asarray(bundle.tensor("dec.w"), dtype=np.float64)
    dec_b = np.asarray(bundle.tensor("dec.b"), dtype=np.float64)
    out = np.zeros(fpp * L)
    for t in range(fpp):
        for j in range(L):
            acc = dec_b[j]
            for n in range(N):
                acc += dec_w[j, n] * mask[n, t] * out_cols[n, t]
            out[t * L + j] = acc
    return out


def test_full_forward_matches_naive_oracle(small_tcn, rng):
    bundle = random_init(small_tcn, seed=42)
    x = rng.standard_normal((2, small_tcn.min_input_samples + 3 * small_tcn.frame_len))
    got = TcnEngine(bundle, small_tcn).full_forward(x)
    want = naive_full_forward(x, bundle, small_tcn)
    assert got.shape == (small_tcn.packet_len,)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_streaming_matches_full_forward_prefixes(small_tcn, rng):
    bundle = random_init(small_tcn, seed=7)
    w = small_tcn.packet_len
    n_pkts = 30
    x = rng.standard_normal((2, n_pkts * w))
    engine = TcnEngine(bundle, small_tcn)
    state = engine.init_state()
    outs = [state.push_packet(x[:, k * w : (k + 1) * w]) for k in range(n_pkts)]
    # push k emits the packet `lookahead` samples back; once the receptive
    # field is filled with real signal it must equal a batch pass on the
    # prefix seen so far
    first_checked = -(-small_tcn.min_input_samples // w)
    for k in range(first_checked, n_pkts):
        want = engine.full_forward(x[:, : (k + 1) * w])
        assert np.max(np.abs(outs[k] - want)) <= 1e-5


def test_streaming_matches_forward_stream_everywhere(small_tcn, rng):
    bundle = random_init(small_tcn, seed=11)
    w = small_tcn.packet_len
    x = rng.standard_normal((2, 25 * w))
    engine = TcnEngine(bundle, small_tcn)
    batch = engine.forward_stream(x)
    state = engine.init_state()
    streamed = np.concatenate(
        [state.push_packet(x[:, k * w : (k + 1) * w]) for k in range(25)]
    )
    # streamed output k covers input lookahead samples back; drop that lag
    la = small_tcn.lookahead
    assert np.max(np.abs(streamed[la:] - batch)) <= 1e-5


def _push_blocks(state, x, sizes):
    """Push x through state in blocks of the given packet counts."""
    w = state.engine.cfg.packet_len
    outs, p = [], 0
    for k in sizes:
        outs.append(state.push_packet(x[:, p * w : (p + k) * w]))
        p += k
    return np.concatenate(outs)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=40),
       seed=st.integers(0, 2**16))
def test_block_push_equals_packet_pushes(small_tcn, sizes, seed):
    """Any split of a signal into blocks gives bit-identical output and
    leaves bit-identical buffers of the same size."""
    n_pkts = max(40, sum(sizes))
    sizes = sizes + [1] * (n_pkts - sum(sizes))
    w = small_tcn.packet_len
    x = np.random.default_rng(seed).standard_normal((2, n_pkts * w))
    engine = TcnEngine(random_init(small_tcn, seed=9), small_tcn)
    single = engine.init_state()
    want = _push_blocks(single, x, [1] * n_pkts)
    block = engine.init_state()
    got = _push_blocks(block, x, sizes)
    assert np.array_equal(got, want)
    assert block.frames_seen == single.frames_seen == n_pkts * small_tcn.frames_per_packet
    assert sum(b.size for b in block.bufs) == tcn_buffer_frames(small_tcn) * small_tcn.latent_channels
    for a, b in zip(block.bufs, single.bufs):
        assert np.array_equal(a, b)


def test_default_config_block_equals_packets(monkeypatch):
    """3 s of signal pushed as one block, on the full-size network,
    equals single-packet pushes bit for bit.  The whole-signal pass
    feeds the decoder a bit-identical masked latent too; its 938 frames
    are not a whole number of the pass's row tiles.  (It decodes all
    rows in one GEMM, whose rows' last bits depend on the row count, so
    its samples match the pushes' only to rounding.)"""
    cfg = TcnConfig()
    w = cfg.packet_len
    n_pkts = -(-3 * 15625 // w)
    assert (n_pkts * cfg.frames_per_packet) % tcn._ROW_TILE
    x = 0.3 * np.random.default_rng(5).standard_normal((2, n_pkts * w))
    engine = TcnEngine(random_init(cfg, seed=2), cfg)
    decoded = []
    real_decode = TcnEngine._decode

    def record(self, latent):
        decoded.append(latent.reshape(-1, cfg.latent_channels).copy())
        return real_decode(self, latent)

    monkeypatch.setattr(TcnEngine, "_decode", record)
    single = engine.init_state()
    want = _push_blocks(single, x, [1] * n_pkts)
    want_latent = np.concatenate(decoded)
    block = engine.init_state()
    assert np.array_equal(block.push_packet(x), want)
    assert np.array_equal(decoded[-1], want_latent)
    assert sum(b.size for b in block.bufs) == tcn_buffer_frames(cfg) * cfg.latent_channels
    for a, b in zip(block.bufs, single.bufs):
        assert np.array_equal(a, b)
    # the pass's latent lags the pushes' by the lookahead
    engine.forward_stream(x)
    assert np.array_equal(decoded[-1], want_latent[cfg.lookahead_frames :])


def test_float32_max_input_stays_finite(small_tcn):
    """Samples at the edge of the float32 range, which the pipeline's
    ingress passes, encode beyond it; the float32 layers still give
    finite output, equal over single pushes, one block push and the
    whole-signal pass."""
    f32_max = float(np.finfo(np.float32).max)
    n_pkts = 12
    shape = (2, n_pkts * small_tcn.packet_len)
    signs = np.sign(np.random.default_rng(4).standard_normal(shape))
    engine = TcnEngine(random_init(small_tcn, seed=8), small_tcn)
    for x in (np.full(shape, f32_max), np.full(shape, -f32_max), f32_max * signs):
        single = _push_blocks(engine.init_state(), x, [1] * n_pkts)
        assert np.all(np.isfinite(single))
        assert np.array_equal(engine.init_state().push_packet(x), single)
        batch = engine.forward_stream(x)
        assert np.all(np.isfinite(batch))
        assert np.allclose(single[small_tcn.lookahead :], batch, rtol=1e-5, atol=0)


def test_receptive_field_analytics():
    cfg = TcnConfig()
    assert cfg.receptive_frames == 1 + 2 * sum(cfg.dilations) == 509
    assert cfg.frames_per_packet == 7
    assert cfg.lookahead_frames == 14
    assert cfg.min_input_samples == (509 - 1 - 14) * 50 + 350 + 700 == 25750


def test_causality_lookahead_bound(small_tcn, rng):
    """Samples beyond one packet's lookahead horizon never affect it."""
    bundle = random_init(small_tcn, seed=5)
    w = small_tcn.packet_len
    x = rng.standard_normal((2, 20 * w))
    y = x.copy()
    y[:, 12 * w :] += 100.0  # perturb everything after packet 11
    outs_x, outs_y = [], []
    engine = TcnEngine(bundle, small_tcn)
    sx, sy = engine.init_state(), engine.init_state()
    for k in range(20):
        outs_x.append(sx.push_packet(x[:, k * w : (k + 1) * w]))
        outs_y.append(sy.push_packet(y[:, k * w : (k + 1) * w]))
    # push k emits input packet k-2; pushes 0..11 saw identical inputs and
    # emit packets 0..9, all with horizons inside the unperturbed region
    for k in range(12):
        assert np.array_equal(outs_x[k], outs_y[k])
    assert not np.allclose(outs_x[14], outs_y[14])


def test_zero_weights_give_zero_output(small_tcn, rng):
    bundle = zero_init(small_tcn)
    x = rng.standard_normal((2, small_tcn.min_input_samples))
    engine = TcnEngine(bundle, small_tcn)
    assert np.all(engine.full_forward(x) == 0.0)
    state = engine.init_state()
    for _ in range(5):
        out = state.push_packet(rng.standard_normal((2, small_tcn.packet_len)))
    assert np.all(out == 0.0)


def test_cold_start_equals_silent_history(small_tcn, rng):
    """A fresh stream behaves exactly as if silence had been flowing forever."""
    bundle = random_init(small_tcn, seed=3)
    w = small_tcn.packet_len
    x = rng.standard_normal((2, 6 * w))
    engine = TcnEngine(bundle, small_tcn)

    state = engine.init_state()
    cold = [state.push_packet(x[:, k * w : (k + 1) * w]) for k in range(6)]

    warm_state = engine.init_state()
    n_sil = 40
    for _ in range(n_sil):
        warm_state.push_packet(np.zeros((2, w)))
    warm = [warm_state.push_packet(x[:, k * w : (k + 1) * w]) for k in range(6)]
    for c, wv in zip(cold, warm):
        assert np.max(np.abs(c - wv)) <= 1e-9


def test_two_states_identical_outputs(small_tcn, rng):
    bundle = random_init(small_tcn, seed=21)
    w = small_tcn.packet_len
    x = rng.standard_normal((2, 8 * w))
    s1 = TcnEngine(bundle, small_tcn).init_state()
    s2 = TcnEngine(bundle, small_tcn).init_state()
    for k in range(8):
        a = s1.push_packet(x[:, k * w : (k + 1) * w])
        b = s2.push_packet(x[:, k * w : (k + 1) * w])
        assert np.array_equal(a, b)


def test_engine_reads_bundle_weights_in_place(small_tcn):
    """The pointwise and decoder weights an engine multiplies by are the
    bundle's own tensors, read transposed: bound or built directly, an
    engine holds no (N, N) array of its own."""
    n = small_tcn.latent_channels
    bundle = random_init(small_tcn, seed=23)
    tensors = [bundle.tensor(name) for name in bundle.names()]
    for engine in (TcnEngine(bundle, small_tcn), bundle.bind(small_tcn, TcnEngine)):
        for i, (_, pw_wt, _) in enumerate(engine.layers):
            assert np.shares_memory(pw_wt, bundle.tensor(f"tcn.{i}.pw.w"))
        assert np.shares_memory(engine.dec_wt, bundle.tensor("dec.w"))
        held = [a for layer in engine.layers for a in layer]
        held += [v for v in vars(engine).values() if isinstance(v, np.ndarray)]
        for a in held:
            if a.shape == (n, n):
                assert any(np.shares_memory(a, t) for t in tensors)


def test_buffer_footprint_matches_allocation(small_tcn):
    # the analytic count must equal what a live state actually allocates,
    # and the per-stage sizes must be derivable by hand: one packet of
    # frames plus the next convolution's dilated history, with the first
    # buffer stretched to keep the lookahead-lagged mask columns
    for cfg in (small_tcn, TcnConfig()):
        fpp = cfg.frames_per_packet
        want = 0
        for i, d in enumerate(cfg.dilations):
            need = fpp + (cfg.conv_kernel - 1) * d
            if i == 0:
                need = max(need, 2 * fpp + cfg.lookahead_frames)
            want += need
        assert tcn_buffer_frames(cfg) == want

    bundle = random_init(small_tcn, seed=0)
    state = TcnEngine(bundle, small_tcn).init_state()
    assert sum(b.size for b in state.bufs) == tcn_buffer_frames(small_tcn) * small_tcn.latent_channels


def test_default_buffer_frames_value():
    # 13 stages of 7 + span frames, plus the stretched encoder buffer:
    # sum(7 + 2d for d in dilations[1:]) + max(7 + 2, 7 + 14 + 7) = 625
    assert tcn_buffer_frames(TcnConfig()) == 625


def test_flop_count_matches_instrumented_push(small_tcn, rng):
    bundle = random_init(small_tcn, seed=1)
    engine = TcnEngine(bundle, small_tcn)
    state = engine.init_state()
    pkt = rng.standard_normal((2, small_tcn.packet_len))
    state.push_packet(pkt)  # steady state from the first push: fixed work per packet
    engine.tally.reset()
    state.push_packet(pkt)
    t = engine.tally
    measured = 2 * (t.enc + t.dw + t.pw + t.dec) + t.mask_mult
    assert measured == tcn_flop_count(small_tcn, cached=True)
    # a block of k packets does k packets' work
    engine.tally.reset()
    state.push_packet(np.tile(pkt, 5))
    measured = 2 * (t.enc + t.dw + t.pw + t.dec) + t.mask_mult
    assert measured == 5 * tcn_flop_count(small_tcn, cached=True)


def test_flop_count_matches_instrumented_full_forward(small_tcn, rng):
    bundle = random_init(small_tcn, seed=1)
    engine = TcnEngine(bundle, small_tcn)
    engine.tally.reset()
    engine.full_forward(rng.standard_normal((2, small_tcn.min_input_samples)))
    t = engine.tally
    measured = 2 * (t.enc + t.dw + t.pw + t.dec) + t.mask_mult
    assert measured == tcn_flop_count(small_tcn, cached=False)


def test_flop_ratio_and_pointwise_scaling():
    cfg = TcnConfig()
    cached = tcn_flop_count(cfg, cached=True)
    uncached = tcn_flop_count(cfg, cached=False)
    assert cached / uncached <= 0.10

    half = TcnConfig(latent_channels=cfg.latent_channels // 2)
    # pointwise terms dominate; halving N should shrink them ~4x
    full_pw = cfg.latent_channels**2
    half_pw = half.latent_channels**2
    assert full_pw / half_pw == 4
    assert 2.5 <= tcn_flop_count(cfg) / tcn_flop_count(half) <= 4.5


def test_input_validation(small_tcn, rng):
    bundle = random_init(small_tcn, seed=0)
    engine = TcnEngine(bundle, small_tcn)
    with pytest.raises(ValueError, match="at least"):
        engine.full_forward(np.zeros((2, small_tcn.min_input_samples - small_tcn.frame_len)))
    with pytest.raises(ValueError):
        engine.full_forward(np.zeros((3, small_tcn.min_input_samples)))
    state = engine.init_state()
    w = small_tcn.packet_len
    bufs = [b.copy() for b in state.bufs]
    for bad in (np.zeros((2, w + 1)), np.zeros((2, 0)), np.zeros((3, w)),
                np.zeros((1, 2, w)), np.zeros(2 * w)):
        with pytest.raises(ValueError, match="k >= 1"):
            state.push_packet(bad)
    assert state.frames_seen == 0
    for a, b in zip(state.bufs, bufs):
        assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        TcnConfig(frame_len=60)  # packet not a multiple
    with pytest.raises(ValueError):
        TcnConfig(lookahead=350)  # must be 2 packets
    with pytest.raises(ValueError):
        TcnConfig(conv_kernel=2)
    with pytest.raises(ValueError):
        TcnConfig(dilations=(1, 0, 2))
