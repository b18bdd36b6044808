"""Release acceptance: twelve numbered end-to-end checks at full scale.

Each test is one criterion with its stated tolerance and wall-clock
budget; a PASS/FAIL line per criterion is the contract.  Criteria 4
and 12 go through the command line the way a user would run it.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.signal import fftconvolve

from clearstream.dsp import (
    decimator_stopband_db,
    frame_count,
    hz_to_mel,
    istft,
    stft,
)
from clearstream.metrics import loss_total, oracle_mask, si_sdr
from clearstream.mixgen import RoomSpec, make_mixture
from clearstream.pipeline import (
    LatencyBudget,
    PipelineConfig,
    enhance_signal,
    latency_total,
)
from clearstream.syncsim import startup_align
from clearstream.tcn import TcnEngine, tcn_flop_count
from clearstream.unet import unet_flop_count
from clearstream.weights import random_init
from clearstream import wire


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


def _run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "clearstream", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_01_streaming_equivalence():
    """10 weight seeds x 5 random 3 s inputs: packetized output matches
    the offline oracle within 1e-4 and TCN streaming matches the batch
    forward within 1e-5, in under two minutes."""
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    w = cfg.tcn.packet_len
    n_samples = int(3 * cfg.sample_rate)  # 46875
    n_aligned = n_samples - n_samples % w
    worst_pipe = worst_tcn = 0.0
    spent = {"stream": 0.0, "oracle": 0.0, "tcn loop": 0.0}
    for seed in range(10):
        bundle = random_init(cfg, seed=seed)
        engine = TcnEngine(bundle, cfg.tcn)
        for j in range(5):
            rng = np.random.default_rng(1000 * seed + j)
            x = 0.2 * rng.standard_normal((2, n_samples))
            t1 = time.perf_counter()
            streamed = enhance_signal(x, bundle, cfg)
            t2 = time.perf_counter()
            oracle = enhance_signal(x, bundle, cfg, oracle=True)
            t3 = time.perf_counter()
            spent["stream"] += t2 - t1
            spent["oracle"] += t3 - t2
            worst_pipe = max(worst_pipe, float(np.max(np.abs(streamed - oracle))))
            assert worst_pipe <= 1e-4

            state = engine.init_state()
            t1 = time.perf_counter()
            for i in range(0, n_aligned, w):
                last = state.push_packet(x[:, i : i + w])
            spent["tcn loop"] += time.perf_counter() - t1
            want = engine.full_forward(
                x[:, n_aligned - cfg.tcn.min_input_samples : n_aligned]
            )
            worst_tcn = max(worst_tcn, float(np.max(np.abs(last - want))))
            assert worst_tcn <= 1e-5
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"streaming equivalence took {dt:.1f}s"
    parts = ", ".join(f"{k} {v:.1f}s" for k, v in spent.items())
    _report(1, f"pipe {worst_pipe:.2e}, tcn {worst_tcn:.2e}, {dt:.1f}s ({parts})")


def test_criterion_02_compute_reuse():
    cfg = PipelineConfig().tcn
    ratio = tcn_flop_count(cfg, cached=True) / tcn_flop_count(cfg, cached=False)
    assert ratio <= 0.10
    _report(2, f"cached/uncached flop ratio {ratio:.4f}")


def test_criterion_03_flop_bands():
    cfg = PipelineConfig()
    tcn = tcn_flop_count(cfg.tcn, cached=True)
    total = tcn + unet_flop_count(cfg.unet)
    assert 48e6 <= tcn <= 194e6
    assert 65e6 <= total <= 393e6
    _report(3, f"tcn {tcn/1e6:.2f}M, net {total/1e6:.2f}M")


def test_criterion_04_sync_bounds_cli():
    """20 ppm apart with sync on stays within one 64 us slot over 300 s;
    sync off drifts 2.4 ms/min; 2.13 ppm gives a 128 us/min slope."""
    t0 = time.perf_counter()
    on = json.loads(_run_cli("syncsim", "--ppm", "20,-20", "--sync", "on",
                             "--duration", "300"))
    assert on["max_abs_error_us"] <= 64.0
    off = json.loads(_run_cli("syncsim", "--ppm", "20,-20", "--sync", "off",
                              "--duration", "60"))
    assert abs(off["final_error_us"]) == pytest.approx(2400.0, rel=0.05)
    slope = json.loads(_run_cli("syncsim", "--ppm", "0,2.13", "--sync", "off",
                                "--duration", "120"))
    assert abs(slope["drift_us_per_min"]) == pytest.approx(128.0, rel=0.05)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(4, f"max {on['max_abs_error_us']:.1f}us, "
               f"drift {abs(off['final_error_us'])/1e3:.3f}ms/min, "
               f"slope {abs(slope['drift_us_per_min']):.1f}us/min, {dt:.1f}s")


def test_criterion_05_startup_correction():
    dropped, inserted = startup_align(799000, 1000)
    assert (dropped, inserted) == (781, 0)
    assert dropped / 15625.0 == pytest.approx(49.984e-3, rel=1e-12)
    _report(5, "781 samples = 49.984 ms")


def test_criterion_06_wire_alignment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n_packets = 10**5
    pcm = rng.integers(-32768, 32768, size=n_packets * wire.SAMPLES_PER_PACKET)
    pcm = pcm.astype(np.int16)
    frames = wire.packetize(pcm)

    # codec round trip, byte-exact
    back = np.concatenate([wire.decode_packet(f)[1] for f in frames])
    assert back.dtype == np.int16 and np.array_equal(back, pcm)

    # identical content on two lossy channels stays sample-aligned
    streams = []
    for ch_seed in (0, 1):
        kept, _ = wire.simulate_loss(frames, 0.1, seed=ch_seed)
        streams.append(wire.StreamReassembler().feed_all(kept).astype(np.float64))
    a, b = streams
    assert len(a) == len(b)
    corr = fftconvolve(a, b[::-1])
    lag = int(np.argmax(corr)) - (len(b) - 1)
    assert lag == 0
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(6, f"lag 0 over {len(a)} samples, round trip exact, {dt:.1f}s")


def test_criterion_07_latency_arithmetic():
    rep = latency_total(LatencyBudget(5.76, 15.0, 67.2, 21.4))
    assert rep.total_ms_rounded == 109
    assert rep.allowance_ms_rounded == 91
    assert rep.over_budget is False
    _report(7, "total 109 ms, allowance 91 ms, within 200 ms")


def test_criterion_08_dsp_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    x = rng.standard_normal(22400)
    spec = stft(x)
    assert spec.data.shape[1] == frame_count(22400) == 64
    y = istft(spec, out_len=22400)
    interior = slice(1024, 22400 - 1024)
    assert np.max(np.abs(y[interior] - x[interior])) <= 1e-6 * np.max(np.abs(x))
    assert hz_to_mel(1000.0) == pytest.approx(1000.1, abs=0.5)
    assert decimator_stopband_db() >= 40.0
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(8, f"64 frames, roundtrip exact, stopband "
               f"{decimator_stopband_db():.1f} dB, {dt:.1f}s")


def test_criterion_09_oracle_mask_ordering():
    """Over 50 synthetic mixtures the ratio-mask oracle beats the
    binary-mask oracle on mean SI-SDR improvement, and both clear 3 dB."""
    t0 = time.perf_counter()
    irm, ibm = [], []
    for seed in range(50):
        b = make_mixture(seed=seed, duration_s=3.0)
        left = b.mixture.data[0]
        tgt = b.stems["target"].data[0]
        others = [s.data[0] for name, s in b.stems.items() if name != "target"]
        base = si_sdr(tgt, left)
        tgt_spec = stft(tgt)
        other_specs = [stft(o) for o in others]
        for kind, acc in (("irm", irm), ("ibm", ibm)):
            _, est = oracle_mask(kind, tgt_spec, other_specs, out_len=len(left))
            acc.append(si_sdr(tgt, est) - base)
    mean_irm, mean_ibm = float(np.mean(irm)), float(np.mean(ibm))
    assert mean_irm >= mean_ibm >= 3.0
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(9, f"IRM {mean_irm:.2f} dB >= IBM {mean_ibm:.2f} dB >= 3 dB, {dt:.1f}s")


def _stem_lag(stem: np.ndarray) -> int:
    # positive: channel 0 leads channel 1
    corr = fftconvolve(stem[0], stem[1][::-1])
    return int(np.argmax(corr)) - (len(stem[1]) - 1)


def test_criterion_10_geometry_sweeps():
    t0 = time.perf_counter()
    room = RoomSpec((14.0, 14.0, 14.0), rt60=0.0)

    head_on = make_mixture(1, 1.0, room=room, interferer_azimuth_deg=0.0,
                           interferer_distance=2.0, target_si_sdr_db=0.0)
    assert _stem_lag(head_on.stems["interferer"].data) == 0

    side = make_mixture(2, 1.0, room=room, mic_spacing=0.175,
                        interferer_azimuth_deg=90.0, interferer_distance=2.0,
                        target_si_sdr_db=0.0)
    assert abs(_stem_lag(side.stems["interferer"].data) - 8) <= 1

    for k, spacing in enumerate(np.linspace(0.10, 0.25, 7)):
        b = make_mixture(10 + k, 1.0, room=room, mic_spacing=float(spacing),
                         interferer_azimuth_deg=60.0, target_si_sdr_db=0.0)
        assert _stem_lag(b.stems["target"].data) == 0
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(10, f"side delay 8+-1, target delay 0 at 7 spacings, {dt:.1f}s")


def test_criterion_11_loss_identities():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(8000)
    zero = loss_total(x, x)
    assert zero.total == 0.0
    half = loss_total(x, 0.5 * x)
    assert abs(half.l_sc - 0.5) <= 1e-9
    assert abs(half.l_mag - math.log(2.0)) <= 0.01
    _report(11, f"identity 0, l_sc {half.l_sc:.10f}, l_mag {half.l_mag:.4f}")


def test_criterion_12_realtime_bench_cli():
    t0 = time.perf_counter()
    out = json.loads(_run_cli("bench", "--json", "--packets", "100",
                              "--uncached-packets", "5", "--seed", "0"))
    cached = out["cached"]
    assert cached["packet_ms"] == pytest.approx(22.4)
    assert cached["p95_ms"] < 22.4
    assert cached["realtime"] is True
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(12, f"cached p95 {cached['p95_ms']:.2f} ms < 22.4 ms, {dt:.1f}s")
