"""Binaural speech enhancement toolkit.

Streaming cache-reusing TCN plus a mel-mask UNet, the earbud-to-host
packet protocol and clock-sync simulators they ride on, a synthetic
binaural scene generator, and the matching evaluation metrics.  See the
``clearstream`` command-line entry point for the packaged workflows.
"""

from .dsp import (
    ComplexSpectrogram,
    MelFilterbank,
    WaveBuffer,
    istft,
    mel_filterbank,
    stft,
)
from .metrics import (
    chunked_output_sdr,
    loss_total,
    oracle_mask,
    si_sdr,
    si_sdr_improvement,
)
from .mixgen import (
    MixtureBundle,
    Rir,
    RoomSpec,
    compute_rir,
    make_mixture,
    render_binaural,
    save_bundle,
    sweep,
)
from .pipeline import (
    CbNetStream,
    PipelineConfig,
    bench_packet,
    enhance_signal,
    latency_total,
    offline_oracle,
    process_file,
)
from .syncsim import SyncSimConfig, run_sim, startup_align
from .tcn import TcnConfig, TcnEngine, tcn_flop_count
from .unet import (
    UNetConfig,
    UNetEngine,
    threshold_mask,
    unet_flop_count,
)
from .weights import (
    WeightBundle,
    load_weights,
    parse_weights,
    random_init,
    save_weights,
)

__version__ = "0.1.0"

__all__ = [
    "CbNetStream",
    "ComplexSpectrogram",
    "MelFilterbank",
    "MixtureBundle",
    "PipelineConfig",
    "Rir",
    "RoomSpec",
    "SyncSimConfig",
    "TcnConfig",
    "TcnEngine",
    "UNetConfig",
    "UNetEngine",
    "WaveBuffer",
    "WeightBundle",
    "bench_packet",
    "chunked_output_sdr",
    "compute_rir",
    "enhance_signal",
    "istft",
    "latency_total",
    "load_weights",
    "loss_total",
    "make_mixture",
    "mel_filterbank",
    "offline_oracle",
    "oracle_mask",
    "parse_weights",
    "process_file",
    "random_init",
    "render_binaural",
    "run_sim",
    "save_bundle",
    "save_weights",
    "si_sdr",
    "si_sdr_improvement",
    "startup_align",
    "stft",
    "sweep",
    "tcn_flop_count",
    "threshold_mask",
    "unet_flop_count",
    "__version__",
]
