"""clearstream benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload live --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.json B.json

Run from the root of a source checkout; the program is imported from its
`src/`.  The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the gated end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  A
traced run first repeats the untraced run on the same inputs, then runs
again with span wrappers installed, and reports the difference as
tracing overhead.
The full result, the spans and a self-time table go under `.perfbench/`.
See NOTES.md for why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import format_table  # noqa: E402

# The end-to-end metrics BENCHMARK.json gates, in its order.  The p95
# latency is reported beside them but not gated: on a shared 2-vCPU host
# it follows the other tenants' load, and sets of runs of the same code
# spread by 0.1 to 0.7 of its median on `live` (NOTES.md).
GATED = ("setup_s", "latency_p50_ms", "audio_s_per_s", "peak_rss_mb")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("live", "batch_oracle", "short_clips"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar="RESULT_JSON",
                   help="compare two result files instead of running")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    ta, tb = a["env"]["blas_threads"], b["env"]["blas_threads"]
    if ta != tb:
        print(f"refusing to compare: BLAS thread count {ta} vs {tb}",
              file=sys.stderr)
        return 3
    rows = [("metric", "unit", "A", "B", "B/A - 1")]
    for section in ("metrics", "per_layer"):
        for name, ma in a.get(section, {}).items():
            mb = b.get(section, {}).get(name)
            if mb is None:
                continue
            change = (f"{mb['value'] / ma['value'] - 1:+.2%}"
                      if ma["value"] else "-")
            rows.append((name, ma["unit"], f"{ma['value']:.6g}",
                         f"{mb['value']:.6g}", change))
    print(f"A: {a['workload']} seed {a['env']['seed']}  "
          f"B: {b['workload']} seed {b['env']['seed']}  "
          f"BLAS threads {ta}")
    print(format_table(rows))
    return 0


def end_to_end(o) -> tuple[dict, object]:
    import numpy as np

    from perfbench.measure import tail

    lat_ms = 1e3 * np.asarray(o.latencies_s)
    t = tail(lat_ms)
    return {
        "setup_s": (float(np.median(o.setup_s)), "s"),
        "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
        "latency_p95_ms": (t.value, "ms"),
        "audio_s_per_s": (o.audio_s / o.busy_s, "s/s"),
        "peak_rss_mb": (o.peak_rss_mb, "MB"),
    }, t


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _report(args, env, o, e2e, t) -> None:
    print(f"clearstream benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g}")
    print(f"env: {env['blas']['name']} {env['blas']['version']}, "
          f"BLAS threads {env['blas_threads']} (program default), "
          f"cpu {env['cpu_model']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    print(f"load: {o.details['load']}")
    tail_note = f"n={t.n}, {t.beyond} beyond; not gated"
    if not t.resolved:
        tail_note = (f"n={t.n}, {t.beyond} beyond: fewer than 10, "
                     "so not reported")
    if "deadline_misses" in o.details:
        tail_note += (f"; {o.details['deadline_misses']} of {t.n} packets past "
                      f"the {o.details['deadline_ms']:.1f} ms deadline")
    notes = {
        "setup_s": f"median of {len(o.setup_s)} set-ups, before the window "
                   "and after the check",
        "latency_p50_ms": f"n={t.n}",
        "latency_p95_ms": tail_note,
        "audio_s_per_s": f"{o.audio_s:.2f} s audio in {o.busy_s:.3f} s of calls",
        "peak_rss_mb": "process peak, through the timed window",
    }
    rows = [("metric", "value", "unit", "note")]
    rows += [(k, f"{v:.4f}" if k != "latency_p95_ms" or t.resolved
              else "unresolved", u, notes[k]) for k, (v, u) in e2e.items()]
    print(format_table(rows))
    if "generator_late_p50_ms" in o.details:
        d = o.details
        print(f"generator lateness p50 {d['generator_late_p50_ms']:.4f} ms, "
              f"max {d['generator_late_max_ms']:.4f} ms; "
              f"{d['queued_packets']} packets queued behind a late one "
              f"(max wait {d['queued_max_ms']:.3f} ms)")
    print(f"operations attempted {o.attempted}, failed {o.failed}")
    for err in o.details["errors"]:
        print(f"  error: {err}")


def _traced(args, inp, run, untraced_e2e, name: str,
            tcn_weight_mb: float) -> tuple[object, dict, dict]:
    from perfbench import layers
    from perfbench.spans import Tracer, child_time, self_time_table, summarize

    tr = Tracer()
    layers.install(tr)
    try:
        o = run(inp, args.seconds, tr)
    finally:
        tr.restore()
    e2e, _ = end_to_end(o)
    per_layer, sources = layers.per_layer(tr.spans, tcn_weight_mb)
    overhead = {
        k: (e2e[k][0] - untraced_e2e[k][0], e2e[k][1]) for k in layers.OVERHEAD_OF
    }
    per_layer.update({f"trace_overhead.{k}": v for k, v in overhead.items()})

    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tr.write_jsonl(traces / f"{name}.spans.jsonl")
    sections = []
    for phase in layers.PHASES:
        chosen = [s for s in tr.spans if s.phase == phase]
        if chosen:
            sections.append(f"[{phase}]\n{self_time_table(summarize(chosen))}")
    (traces / f"{name}.selftime.txt").write_text("\n\n".join(sections) + "\n")

    run_spans = [s for s in tr.spans if s.phase == "run"]
    print("\nself time in the timed window (traced run):")
    print(self_time_table(summarize(run_spans)))
    pushes = [s for s in run_spans if s.name == "pipeline.push"]
    if pushes:
        parent = sum(s.duration for s in pushes)
        kids = child_time(run_spans, "pipeline.push")
        own = sum(summarize(run_spans)["pipeline.push"].self_durations)
        parts = " + ".join(f"{k} {1e3 * v:.1f}" for k, v in sorted(kids.items()))
        print(f"pipeline.push {1e3 * parent:.1f} ms = {parts} + self "
              f"{1e3 * own:.1f} ms (children + self = "
              f"{1e3 * (sum(kids.values()) + own):.1f} ms)")
    rows = [("per-layer metric", "value", "unit", "from phase")]
    for k, (v, u) in per_layer.items():
        rows.append((k, f"{v:.4f}", u, sources.get(k, "-")))
    print(format_table(rows))
    print("tracing overhead = traced - untraced: " + ", ".join(
        f"{k} {v:+.4f} {u}" for k, (v, u) in overhead.items()))
    return o, per_layer, {"sources": sources, "traced_e2e": _as_json(e2e),
                          "trace_overhead": _as_json(overhead)}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    src = ROOT / "src"
    if not (src / "clearstream" / "__init__.py").is_file():
        print(f"no clearstream sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from perfbench import envinfo, layers
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Inputs, Sizes, scene_specs

    env = envinfo.record(args.seed)
    name = f"{args.workload}-seed{args.seed}"
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    run = WORKLOADS[args.workload]
    try:
        sizes = Sizes()
        inp = Inputs(workdir, args.seed, sizes,
                     scene_specs(args.workload, args.seed, args.seconds, sizes))
        o = run(inp, args.seconds, Tracer())  # installs no wrappers
        e2e, t = end_to_end(o)
        _report(args, env, o, e2e, t)
        analytic = layers.analytic(inp.bundle)
        print("analytic per call: tcn push_packet {:.1f} MFLOP cached, {:.1f} "
              "uncached; unet forward {:.1f} MFLOP; tensors tcn {:.1f} MB, "
              "unet {:.1f} MB ({})".format(
                  analytic["tcn_flops_cached_per_packet"] / 1e6,
                  analytic["tcn_flops_uncached_per_packet"] / 1e6,
                  analytic["unet_flops_per_forward"] / 1e6,
                  analytic["tcn_engine_tensor_mb"],
                  analytic["unet_engine_tensor_mb"],
                  analytic["bytes_note"]))
        attempted, failed = o.attempted, o.failed
        result = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "metrics": _as_json(e2e),
            "latency_samples": t.n,
            "latency_p95_beyond": t.beyond,
            "details": o.details,
            "analytic": analytic,
        }
        if args.trace:
            print()
            o2, per_layer, extra = _traced(
                args, inp, run, e2e, name,
                analytic["tcn_engine_tensor_mb"])
            attempted += o2.attempted
            failed += o2.failed
            result["per_layer"] = _as_json(per_layer)
            result.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    result.update(attempted=attempted, failed=failed, correct=correct)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": (result["per_layer"] if args.trace
                    else {k: result["metrics"][k] for k in GATED}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
