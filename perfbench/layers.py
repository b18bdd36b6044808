"""Which layer entry points are traced, and the per-layer metrics.

Every wrapper is installed from here, on the attribute the caller looks
up at call time.  The mixture STFT+mel and the masked overlap-add have
no public entry point: `CbNetStream` and `offline_oracle` reach them as
`_Combiner.unet_input` and `_Combiner.combine`, so those two methods are
wrapped on that class.
"""

from __future__ import annotations

import numpy as np

from clearstream import pipeline, tcn, unet, wavio, weights

from .measure import tail
from .spans import Span, Tracer, summarize

CFG = pipeline.PipelineConfig()
TCN_PUSH_FLOPS = tcn.tcn_flop_count(CFG.tcn, cached=True)
UNET_FLOPS = unet.unet_flop_count(CFG.unet)

# Per-layer timing metric stem -> (span name, report self time).  A
# parent's self time is its span minus the part its child spans cover.
TIMED = (
    ("tcn.push_packet", "tcn.push_packet", False),
    ("tcn.forward_stream", "tcn.forward_stream", False),
    ("unet.forward", "unet.forward", False),
    ("dsp.stft_mel", "dsp.stft_mel", False),
    ("dsp.combine", "dsp.combine", False),
    ("pipeline.push_self", "pipeline.push", True),
    ("pipeline.oracle_self", "pipeline.oracle", True),
    ("pipeline.ctor", "pipeline.ctor", False),
    ("weights.load", "weights.load", False),
    ("dsp.decimate", "dsp.decimate", False),
    ("wavio.read", "wavio.read", False),
)
WITH_GFLOPS = ("tcn.push_packet", "tcn.forward_stream", "unet.forward")
# End-to-end metrics whose traced-minus-untraced difference is reported.
# Peak RSS is left out: the traced pass runs second in the same process,
# so its peak includes the first pass's output check.
OVERHEAD_OF = ("setup_s", "latency_p50_ms", "latency_p95_ms", "audio_s_per_s")
# A layer's metrics come from the spans of the first phase that calls it:
# the timed window if it runs there, else set-up, input preparation or
# the output check.
PHASES = ("run", "setup", "prepare", "check")


def forward_stream_flops(cfg: tcn.TcnConfig, n_samples: int) -> int:
    """Analytic FLOPs of TcnEngine.forward_stream on n_samples per channel.

    Same pricing as tcn_flop_count: 2 per multiply-accumulate, 1 per
    mask multiply.  The silent past is a constant the engine tiles in,
    so the encoder runs only on real frames while every layer runs on
    the padded length.
    """
    t = n_samples // cfg.frame_len
    out = t - cfg.lookahead_frames
    if out <= 0:
        return 0
    n, k = cfg.latent_channels, cfg.conv_kernel
    macs = n * cfg.in_channels * cfg.frame_len * t
    frames = cfg.past_frames + t
    for span in cfg.layer_spans:
        frames -= span
        macs += (n * k + n * n) * frames
    macs += cfg.frame_len * n * out
    return 2 * macs + n * out


def install(tr: Tracer) -> None:
    tr.patch(pipeline.CbNetStream, "__init__", "pipeline.ctor")
    tr.patch(pipeline.CbNetStream, "push", "pipeline.push")
    tr.patch(pipeline, "offline_oracle", "pipeline.oracle")
    tr.patch(pipeline, "enhance_signal", "pipeline.enhance_signal")
    tr.patch(pipeline, "process_file", "pipeline.process_file")
    tr.patch(pipeline, "decimate_by_2", "dsp.decimate")
    tr.patch(pipeline._Combiner, "unet_input", "dsp.stft_mel")
    tr.patch(pipeline._Combiner, "combine", "dsp.combine")
    tr.patch(tcn.TcnState, "push_packet", "tcn.push_packet",
             flops=lambda *a, **k: TCN_PUSH_FLOPS)
    tr.patch(tcn.TcnEngine, "forward_stream", "tcn.forward_stream",
             flops=lambda engine, x: forward_stream_flops(CFG.tcn, np.shape(x)[1]))
    tr.patch(unet.UNetEngine, "forward", "unet.forward",
             flops=lambda *a, **k: UNET_FLOPS)
    tr.patch(weights, "load_weights", "weights.load")
    tr.patch(wavio, "read_wav", "wavio.read")


def array_mb(obj) -> float:
    """MB of every ndarray reachable from an engine object.

    Computed from tensor sizes, not measured: it is what one call must
    stream when nothing stays in cache.
    """
    seen: set[int] = set()

    def walk(o) -> int:
        if id(o) in seen:
            return 0
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            return o.nbytes
        if isinstance(o, (list, tuple)):
            return sum(walk(v) for v in o)
        if type(o).__module__.startswith("clearstream"):
            return sum(walk(v) for v in vars(o).values())
        return 0

    return walk(obj) / 1e6


def analytic(bundle) -> dict:
    """FLOPs and tensor bytes per call, from the config and the engines."""
    return {
        "tcn_flops_cached_per_packet": TCN_PUSH_FLOPS,
        "tcn_flops_uncached_per_packet": tcn.tcn_flop_count(CFG.tcn, cached=False),
        "unet_flops_per_forward": UNET_FLOPS,
        "tcn_engine_tensor_mb": array_mb(tcn.TcnEngine(bundle, CFG.tcn)),
        "unet_engine_tensor_mb": array_mb(unet.UNetEngine(bundle, CFG.unet)),
        "bytes_note": "bytes are computed from tensor sizes, not measured",
    }


def _phase_spans(spans: list[Span], name: str) -> tuple[str, list[Span]]:
    for phase in PHASES:
        chosen = [s for s in spans if s.phase == phase]
        if any(s.name == name for s in chosen):
            return phase, chosen
    return "none", []


def per_layer(spans: list[Span], tcn_weight_mb: float) -> tuple[dict, dict]:
    """(metric -> (value, unit), metric -> phase its spans came from)."""
    metrics: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    for stem, name, use_self in TIMED:
        phase, chosen = _phase_spans(spans, name)
        summ = summarize(chosen).get(name)
        if summ is None:
            # not called anywhere in this workload
            samples, calls, gflops = [0.0], 0, 0.0
        else:
            samples = summ.self_durations if use_self else summ.durations
            calls, gflops = summ.calls, summ.gflops
        ms = 1e3 * np.asarray(samples)
        layer = {
            f"{stem}_p50_ms": (float(np.median(ms)), "ms"),
            f"{stem}_p95_ms": (tail(ms).value, "ms"),
            f"{name}_calls": (calls, "count"),
        }
        if name in WITH_GFLOPS:
            layer[f"{name}_gflops"] = (gflops, "GFLOP/s")
        metrics.update(layer)
        sources.update(dict.fromkeys(layer, phase))
    metrics["tcn.push_packet_weight_mb"] = (tcn_weight_mb, "MB")
    return metrics, sources
