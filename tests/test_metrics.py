"""Metrics: SI-SDR identities, chunk alignment oracle, losses, ideal masks."""

import json
import math

import numpy as np
import pytest

from clearstream.dsp import WaveBuffer, stft
from clearstream.metrics import (
    ChunkedSdrReport,
    chunked_output_sdr,
    loss_total,
    oracle_mask,
    si_sdr,
    si_sdr_improvement,
    write_eval_reports,
)


def test_si_sdr_hand_example():
    # alpha = 1, projection power 2, residual power 2: exactly 0 dB
    ref = np.array([1.0, -1.0, 0.0, 0.0])
    est = np.array([1.0, -1.0, 1.0, -1.0])
    assert si_sdr(ref, est) == 0.0


def test_si_sdr_perfect_and_scaled():
    ref = np.sin(np.arange(500) * 0.1)
    assert si_sdr(ref, ref) == 100.0
    assert si_sdr(ref, 10.0 * ref) == 100.0
    assert si_sdr(ref, -ref) == 100.0


def test_si_sdr_scale_and_sign_invariance(rng):
    ref = rng.standard_normal(400)
    est = rng.standard_normal(400)
    base = si_sdr(ref, est)
    assert abs(si_sdr(ref, 3.7 * est) - base) <= 1e-9
    assert abs(si_sdr(ref, -est) - base) <= 1e-9


def test_si_sdr_constructed_snr():
    # orthogonal zero-mean perturbation of known relative power
    ref = np.tile([1.0, -1.0], 50)
    orth = np.tile([1.0, 1.0, -1.0, -1.0], 25)
    assert abs(ref @ orth) == 0.0
    for want_db, gain in ((20.0, 0.1), (40.0, 0.01)):
        est = ref + gain * orth
        assert abs(si_sdr(ref, est) - want_db) <= 1e-9
    # estimate orthogonal to the reference: floored
    assert si_sdr(ref, orth) == -100.0


def test_si_sdr_validation(rng):
    with pytest.raises(ValueError, match="silent"):
        si_sdr(np.zeros(10), rng.standard_normal(10))
    with pytest.raises(ValueError, match="silent"):
        si_sdr(np.full(10, 5.0), rng.standard_normal(10))  # DC only
    with pytest.raises(ValueError, match="mismatch"):
        si_sdr(np.ones(10), np.ones(11))
    with pytest.raises(ValueError, match="1-D"):
        si_sdr(np.ones((2, 10)), np.ones((2, 10)))
    ref = rng.standard_normal(100)
    assert si_sdr(WaveBuffer(ref[None, :], sample_rate=1.0), ref) == 100.0
    with pytest.raises(ValueError, match="mono"):
        si_sdr(WaveBuffer(np.ones((2, 100)), sample_rate=1.0), ref)


def test_improvement_report(rng):
    ref = rng.standard_normal(300)
    noisy = ref + 0.5 * rng.standard_normal(300)
    rep = si_sdr_improvement(ref, noisy, ref)
    assert rep.output_si_sdr == 100.0
    assert rep.improvement == rep.output_si_sdr - rep.input_si_sdr
    d = rep.to_dict()
    assert d["improvement_db"] == rep.improvement
    assert set(d) == {"input_si_sdr_db", "output_si_sdr_db", "improvement_db"}


def test_chunked_sdr_recovers_known_delay(rng):
    fs = 15625.0
    delay = 200
    n = 4 * 15625 + delay
    ref = rng.standard_normal(n)
    est = np.zeros(n)
    est[delay:] = ref[:-delay]
    rep = chunked_output_sdr(ref, est, chunk_s=1.0, sample_rate=fs)
    assert rep.lags == [delay] * 4
    assert rep.per_chunk_db == [100.0] * 4
    assert rep.skipped_chunks == []
    assert rep.aggregate_db == 100.0


def test_chunked_sdr_matches_exhaustive_scan(rng):
    """Cross-check against a brute-force per-lag correlation search."""
    fs, chunk_s, max_lag = 1000.0, 0.01, 4
    clen = 10
    ref = rng.standard_normal(35)
    est = rng.standard_normal(35)
    rep = chunked_output_sdr(ref, est, chunk_s=chunk_s,
                             max_lag_samples=max_lag, sample_rate=fs)

    padded = np.concatenate([np.zeros(max_lag), est, np.zeros(max_lag)])
    want_lags, want_db = [], []
    for c in range(3):
        ref_c = ref[c * clen : (c + 1) * clen]
        centered = ref_c - ref_c.mean()
        best_corr, best_off = -np.inf, 0
        for off in range(2 * max_lag + 1):
            seg = padded[c * clen + off : c * clen + off + clen]
            segc = seg - seg.mean()
            denom = math.sqrt(float(segc @ segc)) * math.sqrt(float(centered @ centered))
            corr = float(seg @ centered) / denom if denom > 0 else 0.0
            if corr > best_corr:
                best_corr, best_off = corr, off
        want_lags.append(best_off - max_lag)
        want_db.append(si_sdr(ref_c, padded[c * clen + best_off : c * clen + best_off + clen]))
    assert rep.lags == want_lags
    for got, want in zip(rep.per_chunk_db, want_db):
        assert abs(got - want) <= 1e-9


def test_chunked_sdr_skips_silent_chunks(rng):
    fs = 100.0
    ref = rng.standard_normal(300)
    ref[100:200] = 0.0
    est = ref + 0.01 * rng.standard_normal(300)
    rep = chunked_output_sdr(ref, est, chunk_s=1.0, max_lag_samples=10, sample_rate=fs)
    assert rep.skipped_chunks == [1]
    assert len(rep.per_chunk_db) == 2


def test_chunked_aggregate_and_validation(rng):
    assert ChunkedSdrReport([0.0, 10.0], [0, 0], []).aggregate_db == 5.0
    with pytest.raises(ValueError):
        ChunkedSdrReport([], [], [0]).aggregate_db
    with pytest.raises(ValueError, match="chunk"):
        chunked_output_sdr(np.ones(10), np.ones(10), chunk_s=1.0, sample_rate=100.0)
    with pytest.raises(ValueError, match="mismatch"):
        chunked_output_sdr(np.ones(200), np.ones(201), chunk_s=1.0, sample_rate=100.0)
    with pytest.raises(ValueError):
        chunked_output_sdr(
            np.ones(200), np.ones(200), chunk_s=1.0, sample_rate=100.0,
            max_lag_samples=-1,
        )


def test_loss_identity_and_halving(rng):
    x = rng.standard_normal(8000)
    zero = loss_total(x, x)
    assert zero.l1 == 0.0 and zero.l_sc == 0.0 and zero.l_mag == 0.0
    assert zero.total == 0.0

    half = loss_total(x, 0.5 * x)
    assert abs(half.l_sc - 0.5) <= 1e-9
    assert abs(half.l_mag - math.log(2.0)) <= 0.01
    assert abs(half.l1 - 0.5 * float(np.mean(np.abs(x)))) <= 1e-12
    assert half.total == half.l1 + half.l_sc + half.l_mag
    d = half.to_dict()
    assert d["total"] == half.total


def test_loss_matches_per_bin_formulas(rng):
    t = rng.standard_normal(4000)
    o = rng.standard_normal(4000)
    got = loss_total(t, o, hop=100, win_len=400)
    tm = stft(t, hop=100, win_len=400).magnitude()
    om = stft(o, hop=100, win_len=400).magnitude()
    l1 = np.mean(np.abs(t - o))
    l_sc = np.sqrt(np.sum((tm - om) ** 2)) / np.sqrt(np.sum(tm**2))
    l_mag = np.mean(np.abs(np.log(tm + 1e-8) - np.log(om + 1e-8)))
    assert abs(got.l1 - l1) <= 1e-12
    assert abs(got.l_sc - l_sc) <= 1e-9
    assert abs(got.l_mag - l_mag) <= 1e-9


def test_loss_validation(rng):
    with pytest.raises(ValueError, match="mismatch"):
        loss_total(np.ones(100), np.ones(101))
    with pytest.raises(ValueError, match="silent"):
        loss_total(np.zeros(2000), rng.standard_normal(2000))


def _tone(freq_bin: float, n: int, fs: float = 15625.0, win: int = 1024):
    t = np.arange(n) / fs
    return np.sin(2.0 * np.pi * (freq_bin * fs / win) * t)


def test_oracle_mask_single_source_passthrough():
    x = _tone(40.0, 15625)
    spec = stft(x, hop=350, win_len=1024)
    for kind in ("ibm", "irm"):
        mask, est = oracle_mask(kind, spec, [], out_len=len(x))
        assert mask.shape == spec.data.shape
        assert np.all(mask == 1.0)
        assert est.shape == x.shape
        # round trip up to synthesis edges
        err = np.max(np.abs(est[500:-500] - x[500:-500]))
        assert err <= 1e-6


def test_oracle_mask_separates_disjoint_bands():
    tgt = _tone(40.0, 15625)
    intf = 0.8 * _tone(200.0, 15625)
    t_spec = stft(tgt, hop=350, win_len=1024)
    i_spec = stft(intf, hop=350, win_len=1024)
    mix = tgt + intf
    for kind in ("ibm", "irm"):
        mask, est = oracle_mask(kind, t_spec, [i_spec], out_len=len(tgt))
        before = si_sdr(tgt[500:-500], mix[500:-500])
        after = si_sdr(tgt[500:-500], est[500:-500])
        assert after > 20.0
        assert after > before + 20.0
    ibm, _ = oracle_mask("ibm", t_spec, [i_spec])
    assert set(np.unique(ibm)) <= {0.0, 1.0}
    irm, _ = oracle_mask("irm", t_spec, [i_spec])
    assert np.all((irm >= 0.0) & (irm <= 1.0))


def test_oracle_mask_ties_and_zeros():
    x = _tone(40.0, 8000)
    spec = stft(x, hop=350, win_len=1024)
    mask, _ = oracle_mask("ibm", spec, [spec])  # exact ties everywhere
    assert np.all(mask == 1.0)
    with pytest.raises(ValueError, match="kind"):
        oracle_mask("wiener", spec, [])
    short = stft(x[:4000], hop=350, win_len=1024)
    with pytest.raises(ValueError, match="shape"):
        oracle_mask("ibm", spec, [short])


def test_write_eval_reports(tmp_path):
    rows = [
        {"seed": 1, "si_sdri_db": 4.5},
        {"seed": 2, "si_sdri_db": 5.5},
    ]
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    write_eval_reports(rows, json_path=jp, csv_path=cp)
    assert json.loads(jp.read_text()) == rows
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "seed,si_sdri_db"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        write_eval_reports([], csv_path=tmp_path / "empty.csv")
    write_eval_reports([], json_path=tmp_path / "empty.json")
    assert json.loads((tmp_path / "empty.json").read_text()) == []
