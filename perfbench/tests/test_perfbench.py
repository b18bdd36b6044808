"""Benchmark self-tests: scheduler, percentile rule, spans, self time, and
each workload at tiny size with its output check."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import layers, measure, run, spans, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Manual clock; sleep overshoots by a fixed amount."""

    def __init__(self, overshoot: float = 0.0):
        self.now = 100.0
        self.overshoot = overshoot
        self.slept: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, dt: float) -> None:
        self.slept.append(dt)
        self.now += dt + self.overshoot


def test_open_loop_times_from_due_and_reports_generator_lateness():
    clock = FakeClock(overshoot=0.5)
    service = [3.0, 25.0, 4.0, 2.0]

    def op(i):
        clock.now += service[i]

    sent = measure.open_loop(op, 4, 10.0, clock=clock, sleep=clock.sleep)
    late = 0.5 - measure.SPIN_S  # the sleep ends SPIN_S early, then overshoots
    assert [i.due for i in sent] == [100.0, 110.0, 120.0, 130.0]
    # op 1 overruns: op 2 waits behind it, and op 3 behind op 2
    assert [i.start for i in sent] == pytest.approx(
        [100.0, 110 + late, 135 + late, 139 + late])
    assert [i.latency for i in sent] == pytest.approx(
        [3.0, 25 + late, 19 + late, 11 + late])
    assert [i.busy for i in sent] == pytest.approx(service)
    assert [i.queued for i in sent] == pytest.approx(
        [0.0, 0.0, 15 + late, 9 + late])
    # lateness is the sleep overshoot, never the wait behind a slow op
    assert [i.generator_late for i in sent] == pytest.approx(
        [0.0, late, 0.0, 0.0])
    assert clock.slept == pytest.approx([7.0 - measure.SPIN_S])


def test_closed_loop_runs_until_seconds_and_at_least_once():
    clock = FakeClock()

    def op(i):
        clock.now += 2.0

    assert measure.closed_loop(op, 5.0, clock=clock) == [2.0, 2.0, 2.0]
    assert measure.closed_loop(op, 0.1, clock=clock) == [2.0]


@pytest.mark.parametrize("n, resolved", [(200, True), (100, False), (20, False)])
def test_tail_counts_samples_beyond_p95(n, resolved):
    t = measure.tail(np.arange(n, dtype=float))
    assert t.n == n
    assert t.beyond == int(np.count_nonzero(np.arange(n) > t.value))
    assert t.resolved is resolved
    assert measure.tail([5.0] * 300).beyond == 0


def test_covered_merges_overlaps_and_clips_to_parent():
    assert spans.covered(0, 10, [(1, 3), (2, 4), (9, 12), (-1, 0.5)]) == 4.5
    assert spans.covered(0, 10, []) == 0.0


def _span(i, start, end, parent=None, name="x"):
    return spans.Span(i, name, start, end, parent, None, "run")


def test_self_time_is_duration_minus_covered_children():
    ss = [
        _span(0, 0.0, 10.0, name="parent"),
        _span(1, 1.0, 4.0, 0),
        _span(2, 5.0, 6.0, 0),
        _span(3, 1.5, 2.0, 1),
        _span(4, 20.0, 21.0),
    ]
    selfs = spans.self_times(ss)
    assert selfs == {0: 6.0, 1: 2.5, 2: 1.0, 3: 0.5, 4: 1.0}
    assert spans.child_time(ss, "parent") == {"x": 4.0}


class _Engine:
    def forward(self, x):
        return helper(x) + 1


def helper(x):
    if x < 0:
        raise ValueError("negative")
    return 2 * x


def test_tracer_records_nesting_request_phase_and_restores():
    mod = sys.modules[__name__]
    original_forward, original_helper = _Engine.forward, helper
    tr = spans.Tracer()
    tr.patch(_Engine, "forward", "engine.forward", flops=lambda self, x: 7)
    tr.patch(mod, "helper", "mod.helper")
    try:
        tr.phase, tr.request = "run", 3
        assert _Engine().forward(2) == 5
        with pytest.raises(ValueError):
            _Engine().forward(-1)
    finally:
        tr.restore()
    assert _Engine.forward is original_forward and mod.helper is original_helper
    names = [(s.name, s.parent, s.request, s.phase, s.flops) for s in tr.spans]
    assert names == [
        ("engine.forward", None, 3, "run", 7),
        ("mod.helper", 0, 3, "run", 0),
        ("engine.forward", None, 3, "run", 7),
        ("mod.helper", 2, 3, "run", 0),
    ]
    assert all(s.end >= s.start for s in tr.spans)
    with pytest.raises(AttributeError):
        tr.patch(mod, "no_such_entry_point", "missing")


def test_forward_stream_flops_grow_by_cached_packet_cost():
    cfg = layers.CFG.tcn
    w = cfg.packet_len
    n = 20 * w
    step = layers.forward_stream_flops(cfg, n + w) - layers.forward_stream_flops(cfg, n)
    assert step == layers.TCN_PUSH_FLOPS
    assert layers.forward_stream_flops(cfg, cfg.lookahead) == 0


def test_matches_applies_gate_shape_and_finiteness():
    want = np.zeros(4)
    assert workloads.matches(np.full(4, 0.5e-4), want)
    assert not workloads.matches(np.full(4, 2e-4), want)
    assert not workloads.matches(np.zeros(5), want)
    assert not workloads.matches(np.array([0, 0, np.nan, 0]), want)
    assert not workloads.matches(None, want)


SECONDS = 0.15
TINY = workloads.Sizes(
    setup_reps=1, late_setup_reps=1, live_warm_packets=2, batch_clip_s=0.3,
    batch_clips=2, batch_warm_s=0.1, short_clip_s=0.05, short_clips=2,
)


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    specs = [spec for name in workloads.WORKLOADS
             for spec in workloads.scene_specs(name, 3, SECONDS, TINY)]
    return workloads.Inputs(tmp_path_factory.mktemp("bench"), 3, TINY, specs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny_untraced_and_traced(name, tiny_inputs):
    run_fn = workloads.WORKLOADS[name]
    plain = run_fn(tiny_inputs, SECONDS, spans.Tracer())
    assert plain.attempted >= 1 and plain.failed == 0
    e2e, _ = run.end_to_end(plain)
    assert all(v > 0 for v, _ in e2e.values())

    tr = spans.Tracer()
    layers.install(tr)
    try:
        traced = run_fn(tiny_inputs, SECONDS, tr)
    finally:
        tr.restore()
    assert traced.failed == 0
    metrics, sources = layers.per_layer(tr.spans, 1.0)
    overhead = {f"trace_overhead.{k}" for k in layers.OVERHEAD_OF}
    assert set(metrics) | overhead == {m["name"] for m in BENCH["per_layer"]}
    for _, span_name, _ in layers.TIMED:
        assert metrics[f"{span_name}_calls"][0] > 0, span_name
    assert set(sources) | {"tcn.push_packet_weight_mb"} == set(metrics)

    run_spans = [s for s in tr.spans if s.phase == "run"]
    pushes = [s for s in run_spans if s.name == "pipeline.push"]
    if name == "batch_oracle":
        assert not pushes  # cached push is bypassed on this path
        return
    selfs = spans.self_times(run_spans)
    kids = spans.child_time(run_spans, "pipeline.push")
    parent = sum(s.duration for s in pushes)
    own = sum(selfs[s.id] for s in pushes)
    assert set(kids) == {"tcn.push_packet", "dsp.stft_mel", "unet.forward",
                         "dsp.combine"}
    assert sum(kids.values()) + own == pytest.approx(parent, rel=1e-9)


def test_live_flags_a_wrong_output(tiny_inputs, monkeypatch):
    real_push = workloads.pipeline.CbNetStream.push
    calls = []

    def bad_push(self, packet):
        calls.append(1)
        out = real_push(self, packet)
        return out + 1.0 if len(calls) == 4 else out

    monkeypatch.setattr(workloads.pipeline.CbNetStream, "push", bad_push)
    o = workloads.run_live(tiny_inputs, SECONDS, spans.Tracer())
    assert o.failed == 1


def test_gated_metrics_are_benchmark_json_end_to_end():
    assert list(run.GATED) == [m["name"] for m in BENCH["end_to_end"]]
    e2e, _ = run.end_to_end(workloads.Outcome(
        attempted=20, failed=0, setup_s=[0.1], latencies_s=[0.01] * 20,
        busy_s=0.2, audio_s=0.4, peak_rss_mb=100.0))
    assert set(run.GATED) <= set(e2e)


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_different_blas_threads(tmp_path, capsys):
    result = {"workload": "live", "env": {"blas_threads": 2, "seed": 1},
              "metrics": {"latency_p50_ms": {"value": 10.0, "unit": "ms"}}}
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(result))
    result["metrics"]["latency_p50_ms"]["value"] = 11.0
    b.write_text(json.dumps(result))
    result["env"]["blas_threads"] = 1
    c.write_text(json.dumps(result))
    assert run.compare(str(a), str(b)) == 0
    assert "+10.00%" in capsys.readouterr().out
    assert run.compare(str(a), str(c)) == 3
