"""Command-line interface: exit codes, file outputs, subcommand behavior.

Most tests drive main() in-process for speed; one subprocess test proves
the module entry point works end to end.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from clearstream.cli import main
from clearstream.dsp import WaveBuffer
from clearstream.pipeline import (
    PipelineConfig,
    bound_engines,
    enhance_signal,
    unet_flop_count,
)
from clearstream.wavio import read_wav, write_wav
from clearstream.weights import random_init, save_weights
from clearstream.wire import read_replay


@pytest.fixture
def small_cfg_path(tmp_path, small_pipeline):
    p = tmp_path / "pipeline.json"
    p.write_text(json.dumps(small_pipeline.to_dict()))
    return p


@pytest.fixture
def weights_path(tmp_path, small_pipeline_bundle):
    p = tmp_path / "model.cbw"
    save_weights(small_pipeline_bundle, p)
    return p


@pytest.fixture
def mix_cfg_path(tmp_path):
    p = tmp_path / "mix.json"
    p.write_text(json.dumps({"room": {"dims": [8.0, 9.0, 7.0], "rt60": 0.2}}))
    return p


def test_enhance_roundtrip(tmp_path, small_cfg_path, weights_path,
                           small_pipeline, small_pipeline_bundle, rng, capsys):
    n = 5 * small_pipeline.tcn.packet_len
    x = 0.2 * rng.standard_normal((2, n))
    in_path = tmp_path / "in.wav"
    out_path = tmp_path / "out.wav"
    rep_path = tmp_path / "report.json"
    write_wav(in_path, WaveBuffer(x, sample_rate=15625.0))
    rc = main([
        "enhance", str(in_path), str(out_path),
        "--weights", str(weights_path), "--config", str(small_cfg_path),
        "--report", str(rep_path),
    ])
    assert rc == 0
    report = json.loads(rep_path.read_text())
    assert report["samples"] == n
    assert report["mode"] == "streamed"
    assert report["flops_per_packet"]["tcn_cached"] > 0
    got = read_wav(out_path)
    want = enhance_signal(read_wav(in_path).data, small_pipeline_bundle, small_pipeline)
    # output passed through one int16 quantization on write
    assert np.max(np.abs(got.data[0] - want)) <= 1.01 / 32768


def test_enhance_report_prices_unet_per_packet(tmp_path, rng):
    """flops_per_packet.unet is what the run's UNet engine tallied per
    emitted packet, the same in both modes: a primed push's 6,472,704
    FLOPs plus the first windows' extra work spread over the packets.
    unet_full_forward keeps the price of one full forward."""
    cfg = PipelineConfig()
    w = cfg.tcn.packet_len
    weights = tmp_path / "model.cbw"
    save_weights(random_init(cfg, seed=1), weights)
    in_path = tmp_path / "in.wav"
    write_wav(in_path, WaveBuffer(0.2 * rng.standard_normal((2, 90 * w)), 15625.0))
    reports = []
    for mode in ([], ["--oracle-batch"]):
        rep_path = tmp_path / "report.json"
        assert main(["enhance", str(in_path), str(tmp_path / "out.wav"),
                     "--weights", str(weights), "--report", str(rep_path), *mode]) == 0
        reports.append(json.loads(rep_path.read_text())["flops_per_packet"])
    bundle = random_init(cfg, seed=1)
    enhance_signal(read_wav(in_path).data, bundle, cfg)
    tallied = 2 * bound_engines(bundle, cfg).unet.tally.total()
    for flops in reports:
        assert flops["unet"] == round(tallied / 90)
        assert 6_472_704 < flops["unet"] < 1.05 * 6_472_704
        assert flops["unet_full_forward"] == unet_flop_count(cfg.unet) == 32_399_360


def test_enhance_usage_errors(tmp_path, small_cfg_path, weights_path, rng):
    in_path = tmp_path / "in.wav"
    write_wav(in_path, WaveBuffer(0.1 * rng.standard_normal((2, 400)), 15625.0))
    out = str(tmp_path / "o.wav")
    # --weights is mandatory for enhance
    assert main(["enhance", str(in_path), out, "--config", str(small_cfg_path)]) == 2
    assert main([
        "enhance", str(in_path), out,
        "--weights", str(tmp_path / "missing.cbw"), "--config", str(small_cfg_path),
    ]) == 2
    assert main([
        "enhance", str(tmp_path / "absent.wav"), out,
        "--weights", str(weights_path), "--config", str(small_cfg_path),
    ]) == 2


def test_enhance_runtime_error_is_exit_1(tmp_path, weights_path, rng):
    # weights valid for the small config but evaluated against the default
    in_path = tmp_path / "in.wav"
    write_wav(in_path, WaveBuffer(0.1 * rng.standard_normal((2, 400)), 15625.0))
    rc = main(["enhance", str(in_path), str(tmp_path / "o.wav"),
               "--weights", str(weights_path)])
    assert rc == 1


@pytest.mark.parametrize("corrupt", ["bad_magic", "truncated", "trailing"])
def test_enhance_corrupt_weights_is_one_line_exit_1(tmp_path, small_cfg_path,
                                                    weights_path, rng, corrupt):
    raw = weights_path.read_bytes()
    bad = {
        "bad_magic": b"NOPE" + raw[4:],
        "truncated": raw[:-7],
        "trailing": raw + b"\x00",
    }[corrupt]
    bad_path = tmp_path / "corrupt.cbw"
    bad_path.write_bytes(bad)
    in_path = tmp_path / "in.wav"
    write_wav(in_path, WaveBuffer(0.1 * rng.standard_normal((2, 400)), 15625.0))
    proc = subprocess.run(
        [sys.executable, "-m", "clearstream", "enhance", str(in_path),
         str(tmp_path / "o.wav"), "--weights", str(bad_path),
         "--config", str(small_cfg_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "o.wav").exists()


_BAD_CONFIGS = {
    "cfg_not_object": "[1,2]",
    "cfg_unknown_key": '{"tcn": {"foo": 1}}',
    "cfg_bad_value": '{"tcn": {"dilations": 5}}',
    "cfg_section_not_object": '{"tcn": [1]}',
    "cfg_bad_json": "{bad",
    "cfg_str_scalar": '{"sample_rate": "x"}',
    "cfg_str_section_scalar": '{"tcn": {"latent_channels": "x"}}',
}
_CONFIG_CMDS = {
    "enhance": ["enhance", "{wav}", "{out}/o.wav", "--weights", "{weights}"],
    "bench": ["bench", "--packets", "2", "--uncached-packets", "1"],
    "sweep": ["sweep", "--kind", "angle", "--grid", "30", "--trials", "1",
              "--duration", "0.5", "--tones", "--out", "{out}/s"],
    "evaluate": ["evaluate", "{empty}", "--out", "{out}/e"],
}
_MALFORMED = {
    **{
        f"{cmd}-{bad}": argv + ["--config", "{%s}" % bad]
        for cmd, argv in _CONFIG_CMDS.items()
        for bad in _BAD_CONFIGS
    },
    **{
        f"genmix-{bad}": ["genmix", "--tones", "--out", "{out}/g", "--config",
                          "{%s}" % bad]
        for bad in ("cfg_not_object", "cfg_bad_json")
    },
    **{
        f"enhance-{wav}": ["enhance", "{%s}" % wav, "{out}/o.wav",
                           "--weights", "{weights}", "--config", "{cfg}"]
        for wav in ("mono_wav", "wav_16k", "truncated_wav")
    },
    "bench-corrupt_weights": ["bench", "--weights", "{corrupt}", "--config", "{cfg}"],
    "evaluate-corrupt_weights": ["evaluate", "{empty}", "--out", "{out}/e",
                                 "--enhancer", "pipeline", "--weights", "{corrupt}",
                                 "--config", "{cfg}"],
    "evaluate-empty_dir": ["evaluate", "{empty}", "--out", "{out}/e"],
    "syncsim-three_ppm": ["syncsim", "--ppm", "1,2,3"],
    "wiresim-drop_2": ["wiresim", "--drop", "2", "--packets", "10"],
    "wiresim-packets_0": ["wiresim", "--packets", "0", "--channels", "2"],
    "bench-packets_0": ["bench", "--config", "{cfg}", "--packets", "0"],
    "bench-packets_-3": ["bench", "--config", "{cfg}", "--packets", "-3"],
    "bench-uncached_packets_0": ["bench", "--config", "{cfg}", "--uncached-packets", "0"],
}


@pytest.fixture(scope="module")
def malformed_inputs(tmp_path_factory, small_pipeline, small_pipeline_bundle):
    """Paths the malformed-input table formats its argv with."""
    d = tmp_path_factory.mktemp("malformed")
    rng = np.random.default_rng(0)
    paths = {"out": d / "out", "empty": d / "empty", "cfg": d / "small.json",
             "weights": d / "model.cbw", "corrupt": d / "corrupt.cbw"}
    paths["empty"].mkdir()
    paths["cfg"].write_text(json.dumps(small_pipeline.to_dict()))
    save_weights(small_pipeline_bundle, paths["weights"])
    paths["corrupt"].write_bytes(b"NOPE" + paths["weights"].read_bytes()[4:])
    for name, text in _BAD_CONFIGS.items():
        paths[name] = d / f"{name}.json"
        paths[name].write_text(text)
    for name, ch, rate in (("wav", 2, 15625.0), ("mono_wav", 1, 15625.0),
                           ("wav_16k", 2, 16000.0)):
        paths[name] = d / f"{name}.wav"
        write_wav(paths[name], WaveBuffer(0.1 * rng.standard_normal((ch, 400)), rate))
    raw = paths["wav"].read_bytes()
    paths["truncated_wav"] = d / "truncated.wav"
    paths["truncated_wav"].write_bytes(raw[: len(raw) // 2 + 1])
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_is_one_line_exit_1_or_2(case, malformed_inputs):
    argv = [a.format(**malformed_inputs) for a in _MALFORMED[case]]
    proc = subprocess.run([sys.executable, "-m", "clearstream", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith(("error:", "ERROR"))]
    assert len(errors) == 1, proc.stderr


def test_argparse_rejects_unknown_usage():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["bench", "--packets", "many"])
    assert e.value.code == 2


def test_genmix_tones_deterministic(tmp_path, mix_cfg_path, capsys):
    args = ["genmix", "--tones", "--count", "2", "--seed", "7",
            "--duration", "0.5", "--config", str(mix_cfg_path)]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(tmp_path / "a" / "7"), str(tmp_path / "a" / "8")]
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for seed in ("7", "8"):
        a_dir, b_dir = tmp_path / "a" / seed, tmp_path / "b" / seed
        assert (a_dir / "meta.json").read_text() == (b_dir / "meta.json").read_text()
        assert (a_dir / "mixture.wav").read_bytes() == (b_dir / "mixture.wav").read_bytes()
        assert (a_dir / "stems" / "target.wav").exists()


def test_genmix_requires_sources(tmp_path):
    assert main(["genmix", "--out", str(tmp_path / "x")]) == 2


def test_evaluate_bundles(tmp_path, mix_cfg_path, capsys):
    gen = tmp_path / "gen"
    assert main(["genmix", "--tones", "--count", "2", "--seed", "40",
                 "--duration", "0.5", "--config", str(mix_cfg_path),
                 "--out", str(gen)]) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", str(gen), "--out", str(out), "--enhancer", "mix"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["bundles"] == 2
    assert summary["mean_improvement_db"] == 0.0  # passthrough enhancer
    rows = json.loads((out / "eval.json").read_text())
    assert len(rows) == 2
    for row in rows:
        assert {"bundle", "seed", "improvement_db", "l_sc", "total"} <= set(row)
    assert (out / "eval.csv").read_text().count("\n") == 3

    assert main(["evaluate", str(tmp_path / "nothing"), "--out", str(out)]) == 1
    empty = tmp_path / "emptydir"
    empty.mkdir()
    assert main(["evaluate", str(empty), "--out", str(out)]) == 2


def test_sweep_cli(tmp_path, mix_cfg_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--kind", "angle", "--grid", "30,90", "--trials", "1",
               "--duration", "0.5", "--enhancer", "mix", "--tones",
               "--mix-config", str(mix_cfg_path), "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mean_si_sdri_db"] == {"30.0": 0.0, "90.0": 0.0}
    csv_lines = (out / "sweep_angle.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3  # header + one row per grid point

    assert main(["sweep", "--kind", "angle", "--grid", "30,oops",
                 "--tones", "--out", str(out)]) == 2


def test_syncsim_cli(tmp_path, capsys):
    out = tmp_path / "sync"
    rc = main(["syncsim", "--ppm", "20,-20", "--duration", "30",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_abs_error_us"] <= 64.0
    assert (out / "trace.csv").exists()
    assert json.loads((out / "summary.json").read_text()) == summary

    rc = main(["syncsim", "--sync", "off", "--duration", "30"])
    assert rc == 0
    off = json.loads(capsys.readouterr().out)
    assert abs(abs(off["final_error_us"]) - 1200.0) <= 60.0

    assert main(["syncsim", "--ppm", "20"]) == 2


def test_wiresim_cli(tmp_path, capsys):
    out = tmp_path / "wire"
    rc = main(["wiresim", "--packets", "200", "--drop", "0.1",
               "--channels", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["best_xcorr_lag"] == 0
    assert report["dropped_ch0"] > 0
    assert isinstance(report["equal_lengths"], bool)
    assert json.loads((out / "report.json").read_text()) == report
    frames = read_replay(out / "received_ch0.hex")
    assert len(frames) == 200 - report["dropped_ch0"]


def test_bench_cli(small_cfg_path, capsys):
    rc = main(["bench", "--packets", "5", "--uncached-packets", "2",
               "--json", "--config", str(small_cfg_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cached"]["mode"] == "cached"
    assert report["cached"]["n_packets"] == 5
    assert report["uncached"]["p95_ms"] > 0
    assert report["latency"]["total_ms_rounded"] == 109

    rc = main(["bench", "--packets", "3", "--uncached-packets", "2",
               "--config", str(small_cfg_path)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "mode" in table and "flops/packet" in table


def test_seed_env_fallback(tmp_path, mix_cfg_path, monkeypatch, capsys):
    monkeypatch.setenv("CLEARSTREAM_SEED", "55")
    assert main(["genmix", "--tones", "--count", "1", "--duration", "0.5",
                 "--config", str(mix_cfg_path), "--out", str(tmp_path / "env")]) == 0
    assert (tmp_path / "env" / "55" / "meta.json").exists()
    # explicit --seed still wins
    assert main(["genmix", "--tones", "--count", "1", "--duration", "0.5",
                 "--config", str(mix_cfg_path), "--seed", "9",
                 "--out", str(tmp_path / "env2")]) == 0
    assert (tmp_path / "env2" / "9" / "meta.json").exists()


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "clearstream", "syncsim", "--duration", "5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["sync_enabled"] is True
