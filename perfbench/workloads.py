"""The benchmark's three workloads and the output check each one runs.

Inputs are `mixgen.make_mixture` tone scenes rendered at the 31.25 kHz
capture rate and written as float32 WAVs before anything is timed.  Each
workload reads them back through `wavio.read_wav` and
`pipeline.decimate_by_2`, the path `process_file` takes.  A workload runs
four phases, which label its spans: prepare (read and decimate), setup
(weight load, engine construction, warm-up; timed before the run and
again after the check), run (the timed window) and check (outputs
against the reference, outside the window).

Streamed output must match the batch oracle within the acceptance
suite's 1e-4 gate.  An operation fails if it raises, returns the wrong
shape or non-finite samples, or misses the gate.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clearstream import mixgen, pipeline, wavio, weights

from .layers import CFG
from .measure import closed_loop, open_loop

GATE = 1e-4
CAPTURE_RATE = 2 * CFG.sample_rate
PACKET_S = CFG.tcn.packet_len / CFG.sample_rate


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The defaults define the benchmark; tests shrink them."""

    # Set-up is timed before the timed window and again after the output
    # check.  The other tenants' load comes in phases of seconds, so reps
    # taken back to back all land in one phase; the two groups put the
    # median of all reps on the load of the whole run.
    setup_reps: int = 4
    late_setup_reps: int = 5
    live_warm_packets: int = 5
    batch_clip_s: float = 3.0
    batch_clips: int = 3
    batch_warm_s: float = 0.5
    short_clip_s: float = 0.1
    short_clips: int = 4


@dataclass
class Outcome:
    attempted: int
    failed: int
    setup_s: list[float]
    latencies_s: list[float]  # per operation
    busy_s: float  # total time inside the program's calls
    audio_s: float  # total audio enhanced
    peak_rss_mb: float
    details: dict = field(default_factory=dict)


def scene_specs(workload: str, seed: int, seconds: float,
                sizes: Sizes) -> list[tuple[str, int, float]]:
    """(file stem, mixture seed, duration in s) of every WAV a run reads."""
    clip_seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=8)]
    if workload == "live":
        packets = sizes.live_warm_packets + live_packets(seconds) + 1
        return [("live", seed, packets * PACKET_S)]
    if workload == "batch_oracle":
        return [(f"batch{k}", clip_seeds[k], sizes.batch_clip_s)
                for k in range(sizes.batch_clips)]
    return [(f"short{k}", clip_seeds[k], sizes.short_clip_s)
            for k in range(sizes.short_clips)]


def generate(workdir: str, seed: str, specs_json: str) -> None:
    """Write weights.cbw and the scene WAVs (runs in a child process)."""
    out = Path(workdir)
    weights.save_weights(weights.random_init(CFG, seed=int(seed)),
                         out / "weights.cbw")
    for stem, scene_seed, duration_s in json.loads(specs_json):
        scene = mixgen.make_mixture(scene_seed, duration_s, sample_rate=CAPTURE_RATE)
        wavio.write_wav(out / f"{stem}.wav", scene.mixture, encoding="float32")


class Inputs:
    """Weights and WAV inputs for one seed.

    They are generated in a child process, so the scene renderer's memory
    never counts towards the measured process's peak RSS.
    """

    def __init__(self, workdir: Path, seed: int, sizes: Sizes,
                 specs: list[tuple[str, int, float]]):
        self.dir = workdir
        self.sizes = sizes
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = [str(Path(__file__).resolve().parents[1]),
                 str(Path(pipeline.__file__).resolve().parents[1])]
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from perfbench.workloads import generate; "
             "generate(*sys.argv[1:])",
             str(workdir), str(seed), json.dumps(specs)],
            check=True, timeout=170,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        )
        self.weights_path = self.dir / "weights.cbw"
        self.bundle = weights.load_weights(self.weights_path)

    def wav(self, stem: str) -> Path:
        return self.dir / f"{stem}.wav"


def live_packets(seconds: float) -> int:
    return max(1, int(seconds / PACKET_S))


def read_decimated(path: Path) -> np.ndarray:
    """A 31.25 kHz stereo WAV at the 15.625 kHz model rate, as process_file
    computes it."""
    data = wavio.read_wav(path).data
    data = data[:, : data.shape[1] // 2 * 2]
    return np.stack([pipeline.decimate_by_2(ch) for ch in data])


def matches(out, want: np.ndarray) -> bool:
    if out is None or np.shape(out) != want.shape:
        return False
    out = np.asarray(out)
    if not np.all(np.isfinite(out)):
        return False
    return want.size == 0 or float(np.max(np.abs(out - want))) <= GATE


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Attempts:
    """Runs operations, turning an exception into a None output."""

    def __init__(self):
        self.errors: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # counted as a failed operation
            self.errors.append(f"{type(e).__name__}: {e}")
            return None


def _repeat_setup(reps: int, setup) -> tuple[list[float], object]:
    times, result = [], None
    for _ in range(reps):
        result = None  # free the last set-up first: peak RSS holds one
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return times, result


def _late_setup(tr, reps: int, setup) -> list[float]:
    """Time `reps` more set-ups after the check; their results are dropped."""
    tr.phase, tr.request = "setup", None
    return _repeat_setup(reps, setup)[0]


def run_live(inp: Inputs, seconds: float, tr) -> Outcome:
    """One stream, open loop at the packet rate."""
    w = CFG.tcn.packet_len
    warm = inp.sizes.live_warm_packets
    n = live_packets(seconds)
    total = warm + n
    path = inp.wav("live")

    tr.phase = "prepare"
    x = read_decimated(path)[:, : total * w]
    packets = [x[:, i * w : (i + 1) * w] for i in range(total)]

    tr.phase = "setup"

    def setup():
        stream = pipeline.CbNetStream(weights.load_weights(inp.weights_path))
        return stream, [stream.push(p) for p in packets[:warm]]

    setup_s, (stream, outs) = _repeat_setup(inp.sizes.setup_reps, setup)

    tr.phase = "run"
    attempt = _Attempts()

    def op(i: int) -> None:
        tr.request = warm + i
        outs.append(attempt(stream.push, packets[warm + i]))

    sent = open_loop(op, n, PACKET_S)
    rss = peak_rss_mb()

    tr.phase, tr.request = "check", None
    ref = pipeline.offline_oracle(x, inp.bundle)
    la = CFG.lookahead_cols
    failed = 0
    for p, out in enumerate(outs):
        want = np.zeros(w) if p < la else ref[(p - la) * w : (p - la + 1) * w]
        failed += not matches(out, want)
    setup_s += _late_setup(tr, inp.sizes.late_setup_reps, setup)

    late_ms = 1e3 * np.array([i.generator_late for i in sent])
    queued_ms = 1e3 * np.array([i.queued for i in sent])
    return Outcome(
        attempted=total,
        failed=failed,
        setup_s=setup_s,
        latencies_s=[i.latency for i in sent],
        busy_s=sum(i.busy for i in sent),
        audio_s=n * PACKET_S,
        peak_rss_mb=rss,
        details={
            "load": "open loop, 1 stream, one packet due every "
                    f"{1e3 * PACKET_S:.1f} ms",
            "deadline_ms": 1e3 * PACKET_S,
            "deadline_misses": sum(i.latency > PACKET_S for i in sent),
            "generator_late_p50_ms": float(np.median(late_ms)),
            "generator_late_max_ms": float(late_ms.max()),
            "queued_packets": int(np.count_nonzero(queued_ms > 0)),
            "queued_max_ms": float(queued_ms.max()),
            "errors": attempt.errors[:5],
        },
    )


def _closed(seconds: float, tr, setup_s: list[float], items: list, call,
            reference, audio_s: list[float], load: str) -> Outcome:
    """Timed closed loop of call(item) over items in turn, then the check:
    output i must match reference(i % len(items))."""
    tr.phase = "run"
    attempt = _Attempts()
    outs = []

    def op(i: int) -> None:
        tr.request = i
        outs.append(attempt(call, items[i % len(items)]))

    durations = closed_loop(op, seconds)
    rss = peak_rss_mb()

    tr.phase, tr.request = "check", None
    refs = [reference(k) for k in range(len(items))]
    return Outcome(
        attempted=len(outs),
        failed=sum(not matches(out, refs[i % len(refs)])
                   for i, out in enumerate(outs)),
        setup_s=setup_s,
        latencies_s=durations,
        busy_s=sum(durations),
        audio_s=sum(audio_s[i % len(items)] for i in range(len(outs))),
        peak_rss_mb=rss,
        details={"load": load, "errors": attempt.errors[:5]},
    )


def run_batch_oracle(inp: Inputs, seconds: float, tr) -> Outcome:
    """One caller, closed loop over several-second clips, oracle mode."""
    sz = inp.sizes
    tr.phase = "prepare"
    clips = [read_decimated(inp.wav(f"batch{k}")) for k in range(sz.batch_clips)]
    warm_x = clips[0][:, : int(sz.batch_warm_s * CFG.sample_rate)]

    tr.phase = "setup"

    def setup():
        bundle = weights.load_weights(inp.weights_path)
        pipeline.enhance_signal(warm_x, bundle, oracle=True)
        return bundle

    setup_s, bundle = _repeat_setup(sz.setup_reps, setup)
    o = _closed(
        seconds, tr, setup_s, clips,
        call=lambda clip: pipeline.enhance_signal(clip, bundle, oracle=True),
        reference=lambda k: pipeline.enhance_signal(clips[k], inp.bundle),
        audio_s=[c.shape[1] / CFG.sample_rate for c in clips],
        load=f"closed loop, 1 caller, {len(clips)} clips of "
             f"{sz.batch_clip_s} s in turn",
    )
    o.setup_s += _late_setup(tr, sz.late_setup_reps, setup)
    return o


def run_short_clips(inp: Inputs, seconds: float, tr) -> Outcome:
    """One caller, closed loop: load weights, then process_file, per clip."""
    sz = inp.sizes
    paths = [inp.wav(f"short{k}") for k in range(sz.short_clips)]
    tr.phase = "prepare"
    inputs = [read_decimated(p) for p in paths]

    def enhance_file(path: Path) -> np.ndarray:
        bundle = weights.load_weights(inp.weights_path)
        return pipeline.process_file(path, bundle, None).data[0]

    def setup():
        return enhance_file(paths[0])

    tr.phase = "setup"
    setup_s, _ = _repeat_setup(sz.setup_reps, setup)
    o = _closed(
        seconds, tr, setup_s, paths,
        call=enhance_file,
        reference=lambda k: pipeline.enhance_signal(inputs[k], inp.bundle,
                                                    oracle=True),
        audio_s=[x.shape[1] / CFG.sample_rate for x in inputs],
        load=f"closed loop, 1 caller, {len(paths)} WAVs of "
             f"{sz.short_clip_s} s at {CAPTURE_RATE:.0f} Hz in turn",
    )
    o.setup_s += _late_setup(tr, sz.late_setup_reps, setup)
    return o


WORKLOADS = {
    "live": run_live,
    "batch_oracle": run_batch_oracle,
    "short_clips": run_short_clips,
}
