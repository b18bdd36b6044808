"""Why streaming is cheap: the activation cache, shown packet by packet.

The separation network sees 1.648 s of context per inference, but
consecutive 5.76 ms packets share all of that context except the new
frames.  The streaming engine keeps every layer's recent activations
and recomputes only the 7 columns each packet adds.  This script pushes
a signal through both paths and verifies they agree to float precision,
then prints the arithmetic-cost table that the cache buys.

Run:  python3 demos/streaming_cache.py
"""

import time

import numpy as np

from clearstream.pipeline import PipelineConfig
from clearstream.tcn import TcnEngine, tcn_buffer_frames, tcn_flop_count
from clearstream.unet import unet_flop_count
from clearstream.weights import random_init


def main() -> int:
    cfg = PipelineConfig()
    tc = cfg.tcn
    bundle = random_init(cfg, seed=3)
    engine = TcnEngine(bundle, tc)

    print("1. one engine, two ways to run it")
    rng = np.random.default_rng(0)
    n = 2 * tc.min_input_samples
    n -= n % tc.packet_len
    x = 0.1 * rng.standard_normal((2, n))

    t0 = time.perf_counter()
    state = engine.init_state()
    outs = []
    for i in range(0, n, tc.packet_len):
        outs.append(state.push_packet(x[:, i : i + tc.packet_len]))
    stream_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch = engine.full_forward(x[:, n - tc.min_input_samples :])
    batch_s = time.perf_counter() - t0

    diff = float(np.max(np.abs(outs[-1] - batch)))
    print(f"   pushed {n // tc.packet_len} packets of {tc.packet_len} samples")
    print(f"   last streamed packet vs batch forward over the same window: "
          f"max |diff| = {diff:.2e}")

    print("2. what the cache holds")
    frames = tcn_buffer_frames(tc)
    print(f"   one ring buffer per dilated stage ({len(tc.dilations)} stages), "
          f"{frames} frames total at width {tc.latent_channels}")
    floats = frames * tc.latent_channels
    print(f"   {floats} cached activations = {floats * 4 / 1e6:.1f} MB in float32")

    print("3. arithmetic per packet (multiply-accumulates x 2)")
    cached = tcn_flop_count(tc, cached=True)
    uncached = tcn_flop_count(tc, cached=False)
    unet = unet_flop_count(cfg.unet)
    rows = [
        ("separator, cache reused", cached),
        ("separator, recomputed from scratch", uncached),
        ("mask refiner (every packet)", unet),
        ("whole stack, cached", cached + unet),
    ]
    for name, flops in rows:
        print(f"   {name:<38}{flops / 1e6:>9.2f} MFLOPs")
    print(f"   cache saves {1.0 - cached / uncached:.1%} of separator compute")
    print(f"   (measured here: {stream_s / (n / tc.packet_len) * 1e3:.2f} ms "
          f"per streamed packet, {batch_s * 1e3:.1f} ms per batch window)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
