"""Command-line front end for the toolkit.

Subcommands: enhance (stereo WAV in, enhanced mono WAV out), genmix
(synthetic scene bundles), sweep (parameter sweeps scored by SI-SDRi),
syncsim (clock alignment traces), wiresim (packet loss and reassembly),
bench (per-packet timing and FLOP table), evaluate (batch metrics over
bundle directories).

Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags or
missing input paths).  All randomness flows from --seed, which falls
back to the CLEARSTREAM_SEED environment variable, then 0.  Commands
write only under their --out directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import metrics, mixgen, pipeline, syncsim, wire
from .dsp import stft
from .pipeline import PipelineConfig
from .weights import WeightFormatError, load_weights, random_init

log = logging.getLogger("clearstream")


class UsageError(Exception):
    """Bad invocation detected after argparse (missing files etc.)."""


def _default_seed() -> int:
    return int(os.environ.get("CLEARSTREAM_SEED", "0"))


def _require_file(path: str | None, what: str) -> Path:
    if path is None:
        raise UsageError(f"{what} is required")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return PipelineConfig.from_dict(json.loads(_require_file(path, "--config").read_text()))


def _bundle_for(args, cfg: PipelineConfig, required: bool):
    """Weights from --weights, or random from the seed when allowed."""
    if getattr(args, "weights", None) is not None:
        bundle = load_weights(_require_file(args.weights, "--weights"))
        bundle.validate_specs(cfg.tensor_specs())
        return bundle
    if required:
        raise UsageError("--weights is required")
    log.info("no --weights given, using random weights from seed %d", args.seed)
    return random_init(cfg, seed=args.seed)


def _require_count(flag: str, n: int) -> None:
    if n < 1:
        raise UsageError(f"{flag} must be >= 1, got {n}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- enhance -----------------------------------------------------------------

def cmd_enhance(args) -> int:
    cfg = _load_config(args.config)
    in_path = _require_file(args.input, "input WAV")
    bundle = _bundle_for(args, cfg, required=True)
    result = pipeline.process_file(
        in_path, bundle, args.output, cfg, oracle=args.oracle_batch
    )
    # the bundle is this run's own, so its UNet tallied this run only
    tally = pipeline.bound_engines(bundle, cfg).unet.tally
    packets = max(-(-result.n_samples // cfg.tcn.packet_len), 1)
    report = {
        "input": str(in_path),
        "output": str(args.output),
        "samples": result.n_samples,
        "mode": "oracle-batch" if args.oracle_batch else "streamed",
        "latency": pipeline.latency_total().__dict__,
        "flops_per_packet": {
            "tcn_cached": pipeline.tcn_flop_count(cfg.tcn, cached=True),
            "tcn_uncached": pipeline.tcn_flop_count(cfg.tcn, cached=False),
            # what the run's UNet did per emitted packet, and the price
            # of one forward over every column without phase maps
            "unet": round(2 * tally.total() / packets),
            "unet_full_forward": pipeline.unet_flop_count(cfg.unet),
        },
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    else:
        print(json.dumps(report, indent=2))
    return 0


# -- genmix ------------------------------------------------------------------

_MIX_KEYS = (
    "sample_rate",
    "rt60",
    "mic_spacing",
    "target_distance",
    "interferer_distance",
    "interferer_azimuth_deg",
    "target_si_sdr_db",
    "max_order",
)


def _mixture_kwargs(args) -> dict:
    kw: dict = {}
    if args.mix_config:
        raw = json.loads(_require_file(args.mix_config, "--config").read_text())
        if not isinstance(raw, dict):
            raise UsageError("mixture config must be a JSON object")
        room = raw.pop("room", None)
        for key, val in raw.items():
            if key not in _MIX_KEYS:
                raise UsageError(f"unknown mixture config key: {key}")
            kw[key] = val
        if room is not None:
            kw["room"] = mixgen.RoomSpec(
                dims=tuple(room["dims"]), rt60=float(room.get("rt60", 0.3))
            )
    if not args.tones:
        if args.corpus_target is None or args.corpus_interferer is None:
            raise UsageError(
                "provide --corpus-target and --corpus-interferer, or --tones "
                "for the built-in synthetic sources"
            )
        kw["target_pool"] = args.corpus_target
        kw["interferer_pool"] = args.corpus_interferer
        if args.corpus_background:
            kw["background_pool"] = args.corpus_background
    return kw


def _genmix_worker(payload) -> str:
    seed, duration, kw, out_root = payload
    bundle = mixgen.make_mixture(seed, duration, **kw)
    return str(mixgen.save_bundle(bundle, out_root))


def cmd_genmix(args) -> int:
    kw = _mixture_kwargs(args)
    out = _out_dir(args)
    jobs = [(args.seed + i, args.duration, kw, out) for i in range(args.count)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            paths = list(pool.map(_genmix_worker, jobs))
    else:
        paths = [_genmix_worker(j) for j in jobs]
    for p in paths:
        print(p)
    return 0


# -- sweep / evaluate --------------------------------------------------------

def _make_enhancer(name: str, args, cfg: PipelineConfig):
    if name == "pipeline":
        bundle = _bundle_for(args, cfg, required=False)

        def run(b):
            return pipeline.enhance_signal(b.mixture.data, bundle, cfg)

        return run
    if name in ("irm", "ibm"):

        def run(b):
            n = b.mixture.n_samples
            target = stft(b.ground_truth.data[0])
            others = [
                stft(stem.data[0])
                for key, stem in b.stems.items()
                if key != "target"
            ]
            _, est = metrics.oracle_mask(name, target, others, out_len=n)
            return est

        return run
    if name == "mix":
        return lambda b: b.mixture.data[0].copy()
    raise UsageError(f"unknown enhancer: {name}")


def cmd_sweep(args) -> int:
    kw = _mixture_kwargs(args)
    cfg = _load_config(args.config)
    enhancer = _make_enhancer(args.enhancer, args, cfg)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as e:
        raise UsageError(f"bad --grid: {args.grid!r}") from e
    out = _out_dir(args)
    csv_path = out / f"sweep_{args.kind}.csv"
    rows = mixgen.sweep(
        args.kind, grid, args.trials, args.seed, enhancer,
        csv_path=csv_path, duration_s=args.duration, **kw,
    )
    by_point: dict[float, list[float]] = {}
    for r in rows:
        by_point.setdefault(r["value"], []).append(r["si_sdri_db"])
    summary = {
        "kind": args.kind,
        "csv": str(csv_path),
        "mean_si_sdri_db": {str(v): float(np.mean(x)) for v, x in by_point.items()},
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    enhancer = _make_enhancer(args.enhancer, args, cfg)
    dirs = []
    for root in args.bundles:
        p = Path(root)
        if (p / "meta.json").is_file():
            dirs.append(p)
        else:
            dirs.extend(sorted(d for d in p.iterdir() if (d / "meta.json").is_file()))
    if not dirs:
        raise UsageError("no mixture bundles found under the given paths")
    rows = []
    for d in dirs:
        b = mixgen.load_bundle(d)
        ref = b.ground_truth.data[0]
        est = np.asarray(enhancer(b))
        rep = metrics.si_sdr_improvement(ref, b.mixture.data[0], est)
        loss = metrics.loss_total(ref, est)
        rows.append(
            {
                "bundle": str(d),
                "seed": b.metadata.get("seed"),
                **rep.to_dict(),
                **loss.to_dict(),
            }
        )
    out = _out_dir(args)
    metrics.write_eval_reports(
        rows, json_path=out / "eval.json", csv_path=out / "eval.csv"
    )
    mean_impr = float(np.mean([r["improvement_db"] for r in rows]))
    print(json.dumps({"bundles": len(rows), "mean_improvement_db": mean_impr}, indent=2))
    return 0


# -- syncsim -----------------------------------------------------------------

def cmd_syncsim(args) -> int:
    try:
        ppm_pair = [float(v) for v in args.ppm.split(",")]
        if len(ppm_pair) != 2:
            raise ValueError
    except ValueError:
        raise UsageError(f"--ppm expects two comma-separated values, got {args.ppm!r}")
    cfg = syncsim.SyncSimConfig(
        primary_ppm=ppm_pair[0],
        secondary_ppm=ppm_pair[1],
        sync_enabled=(args.sync == "on"),
        duration_s=args.duration,
        beacon_loss_prob=args.beacon_loss,
        seed=args.seed,
    )
    report = syncsim.run_sim(cfg)
    if args.out:
        out = _out_dir(args)
        report.to_csv(out / "trace.csv")
        report.to_json(out / "summary.json")
    print(json.dumps(report.summary(), indent=2))
    return 0


# -- wiresim -----------------------------------------------------------------

def _best_lag(a: np.ndarray, b: np.ndarray) -> int:
    """Lag of b relative to a maximizing cross-correlation (FFT-based)."""
    from scipy.signal import fftconvolve

    corr = fftconvolve(a, b[::-1])
    return int(len(b) - 1 - np.argmax(corr))


def cmd_wiresim(args) -> int:
    _require_count("--packets", args.packets)
    rng = np.random.default_rng(args.seed)
    pcm = rng.integers(-3000, 3000, size=args.packets * wire.SAMPLES_PER_PACKET)
    frames = wire.packetize(pcm.astype(np.int16))
    report: dict = {"packets": args.packets, "drop_prob": args.drop}
    streams = []
    for ch in range(args.channels):
        kept, dropped = wire.simulate_loss(frames, args.drop, seed=args.seed + ch)
        asm = wire.StreamReassembler()
        out = asm.feed_all(kept)
        streams.append(out)
        key = "" if args.channels == 1 else f"_ch{ch}"
        report[f"dropped{key}"] = len(dropped)
        report[f"output_samples{key}"] = int(asm.samples_out)
        report[f"concealed{key}"] = asm.packets_concealed
        if args.out:
            wire.write_replay(_out_dir(args) / f"received{key or '_ch0'}.hex", kept)
    if args.channels == 2:
        a, b = (s.astype(np.float64) for s in streams)
        n = min(len(a), len(b))
        report["best_xcorr_lag"] = _best_lag(a[:n], b[:n])
        report["equal_lengths"] = len(a) == len(b)
    if args.out:
        (_out_dir(args) / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


# -- bench -------------------------------------------------------------------

def cmd_bench(args) -> int:
    _require_count("--packets", args.packets)
    _require_count("--uncached-packets", args.uncached_packets)
    cfg = _load_config(args.config)
    bundle = _bundle_for(args, cfg, required=False)
    cached = pipeline.bench_packet(bundle, cfg, n_packets=args.packets, cached=True,
                                   seed=args.seed)
    uncached = pipeline.bench_packet(bundle, cfg, n_packets=args.uncached_packets,
                                     cached=False, seed=args.seed)
    report = {
        "cached": cached.__dict__,
        "uncached": uncached.__dict__,
        "latency": pipeline.latency_total().__dict__,
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    rows = [
        ("mode", "mean ms", "median ms", "p95 ms", "realtime"),
        *(
            (r.mode, f"{r.mean_ms:.2f}", f"{r.median_ms:.2f}", f"{r.p95_ms:.2f}",
             str(r.realtime))
            for r in (cached, uncached)
        ),
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(
        f"flops/packet: tcn cached {cached.tcn_flops_cached:,}  "
        f"uncached {cached.tcn_flops_uncached:,}  unet {cached.unet_flops:,} "
        f"(full forward; {cached.unet_flops_per_push:,} per cached push, "
        f"{uncached.unet_flops_per_push:,} uncached)  "
        f"total {cached.net_flops_per_packet:,}"
    )
    print(f"packet budget {cached.packet_ms:.1f} ms")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clearstream",
        description="Binaural speech enhancement toolkit: streaming "
        "enhancement, synthetic scenes, protocol and clock simulation, "
        "benchmarks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_kw = dict(type=int, default=_default_seed(),
                   help="random seed (default: $CLEARSTREAM_SEED or 0)")

    p = sub.add_parser("enhance", help="enhance a stereo WAV to mono")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--weights", required=False)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--report", help="write run report JSON here")
    p.add_argument("--oracle-batch", action="store_true",
                   help="run the offline batch oracle instead of streaming")
    p.add_argument("--seed", **seed_kw)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("genmix", help="generate synthetic mixture bundles")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", **seed_kw)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--tones", action="store_true",
                   help="use built-in synthetic tone sources")
    p.add_argument("--corpus-target", help="directory of mono WAVs")
    p.add_argument("--corpus-interferer", help="directory of mono WAVs")
    p.add_argument("--corpus-background", help="directory of mono WAVs")
    p.add_argument("--config", dest="mix_config", help="mixture config JSON")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_genmix)

    p = sub.add_parser("sweep", help="sweep one scene parameter, score SI-SDRi")
    p.add_argument("--kind", choices=mixgen.SWEEP_KINDS, required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", **seed_kw)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--enhancer", choices=("pipeline", "irm", "ibm", "mix"),
                   default="pipeline")
    p.add_argument("--weights")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--tones", action="store_true")
    p.add_argument("--corpus-target")
    p.add_argument("--corpus-interferer")
    p.add_argument("--corpus-background")
    p.add_argument("--mix-config", dest="mix_config", help="mixture config JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="batch metrics over bundle directories")
    p.add_argument("bundles", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--enhancer", choices=("pipeline", "irm", "ibm", "mix"),
                   default="irm")
    p.add_argument("--weights")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", **seed_kw)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("syncsim", help="two-node clock alignment simulation")
    p.add_argument("--ppm", default="20,-20",
                   help="primary,secondary crystal error in ppm")
    p.add_argument("--sync", choices=("on", "off"), default="on")
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--beacon-loss", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--seed", **seed_kw)
    p.set_defaults(func=cmd_syncsim)

    p = sub.add_parser("wiresim", help="packet loss and reassembly simulation")
    p.add_argument("--packets", type=int, default=1000)
    p.add_argument("--drop", type=float, default=0.1)
    p.add_argument("--channels", type=int, choices=(1, 2), default=1)
    p.add_argument("--out")
    p.add_argument("--seed", **seed_kw)
    p.set_defaults(func=cmd_wiresim)

    p = sub.add_parser("bench", help="per-packet timing and FLOP table")
    p.add_argument("--weights")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--packets", type=int, default=100)
    p.add_argument("--uncached-packets", type=int, default=20)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", **seed_kw)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, WeightFormatError) as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
