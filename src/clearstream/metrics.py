"""Evaluation metrics: SI-SDR, chunked output SDR, training losses, oracle masks.

All metrics are pure functions over mono waveforms (1-D float arrays or
single-channel WaveBuffers).  SI-SDR follows the standard definition:
both signals are zero-meaned, the estimate is projected onto the
reference, and the ratio of projection power to residual power is
reported in dB, capped at +100 dB when the residual is numerically zero
(and floored at -100 dB when the projection is zero, so aggregates stay
finite).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import ComplexSpectrogram, WaveBuffer, istft, stft

SDR_CAP_DB = 100.0
LOG_MAG_EPS = 1e-8
DEFAULT_MAX_LAG = 1600


def _as_mono(signal) -> np.ndarray:
    if isinstance(signal, WaveBuffer):
        if signal.channels != 1:
            raise ValueError("metric inputs must be mono")
        arr = signal.data[0]
    else:
        arr = np.asarray(signal, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("metric inputs must be 1-D")
    return arr.astype(np.float64)


def si_sdr(reference, estimate) -> float:
    """Scale-invariant signal-to-distortion ratio in dB."""
    ref = _as_mono(reference)
    est = _as_mono(estimate)
    if ref.shape != est.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {est.shape}")
    ref = ref - ref.mean()
    est = est - est.mean()
    ref_pow = float(ref @ ref)
    if ref_pow == 0.0:
        raise ValueError("reference is silent after mean removal")
    alpha = float(est @ ref) / ref_pow
    target = alpha * ref
    err = est - target
    sig = float(target @ target)
    noise = float(err @ err)
    if sig == 0.0:
        return -SDR_CAP_DB
    if noise == 0.0 or 10.0 * np.log10(sig / noise) > SDR_CAP_DB:
        return SDR_CAP_DB
    return float(10.0 * np.log10(sig / noise))


@dataclass
class SiSdrReport:
    """Input/output SI-SDR pair; improvement is their difference."""

    input_si_sdr: float
    output_si_sdr: float

    @property
    def improvement(self) -> float:
        return self.output_si_sdr - self.input_si_sdr

    def to_dict(self) -> dict:
        return {
            "input_si_sdr_db": self.input_si_sdr,
            "output_si_sdr_db": self.output_si_sdr,
            "improvement_db": self.improvement,
        }


def si_sdr_improvement(reference, mixture_channel, estimate) -> SiSdrReport:
    """SI-SDR of the estimate and of the raw mixture against the reference."""
    return SiSdrReport(
        input_si_sdr=si_sdr(reference, mixture_channel),
        output_si_sdr=si_sdr(reference, estimate),
    )


@dataclass
class ChunkedSdrReport:
    per_chunk_db: list[float]
    lags: list[int]
    skipped_chunks: list[int]

    @property
    def aggregate_db(self) -> float:
        if not self.per_chunk_db:
            raise ValueError("no non-silent chunks to aggregate")
        return float(np.mean(self.per_chunk_db))


def chunked_output_sdr(
    reference,
    estimate,
    chunk_s: float = 1.0,
    max_lag_samples: int = DEFAULT_MAX_LAG,
    sample_rate: float = 15625.0,
) -> ChunkedSdrReport:
    """Per-chunk aligned SI-SDR with an arithmetic-mean dB aggregate.

    The signal pair is cut into chunk_s-second pieces.  For each piece
    the estimate window may slide by up to max_lag_samples either way;
    the lag maximizing the normalized cross-correlation against the
    reference chunk wins, then SI-SDR is computed at that alignment.
    Chunks whose reference is silent are skipped and listed in
    skipped_chunks.
    """
    ref = _as_mono(reference)
    est = _as_mono(estimate)
    if ref.shape != est.shape:
        raise ValueError("length mismatch")
    clen = int(round(chunk_s * sample_rate))
    if clen <= 0 or len(ref) < clen:
        raise ValueError("signal shorter than one chunk")
    if max_lag_samples < 0:
        raise ValueError("max_lag_samples must be nonnegative")

    lag_span = 2 * max_lag_samples + 1
    padded = np.concatenate(
        [np.zeros(max_lag_samples), est, np.zeros(max_lag_samples)]
    )
    per_chunk: list[float] = []
    lags: list[int] = []
    skipped: list[int] = []
    n_chunks = len(ref) // clen
    for c in range(n_chunks):
        c0 = c * clen
        ref_c = ref[c0 : c0 + clen]
        centered = ref_c - ref_c.mean()
        ref_norm = float(np.sqrt(centered @ centered))
        if ref_norm == 0.0:
            skipped.append(c)
            continue
        seg = padded[c0 : c0 + clen + lag_span - 1]
        dots = np.correlate(seg, centered, mode="valid")
        csum = np.concatenate([[0.0], np.cumsum(seg)])
        csum2 = np.concatenate([[0.0], np.cumsum(seg * seg)])
        win_sum = csum[clen:] - csum[:-clen]
        win_sq = csum2[clen:] - csum2[:-clen]
        win_var = np.maximum(win_sq - win_sum * win_sum / clen, 0.0)
        denom = np.sqrt(win_var) * ref_norm
        corr = np.where(denom > 0.0, dots / np.maximum(denom, 1e-300), 0.0)
        best = int(np.argmax(corr))
        lag = best - max_lag_samples
        est_c = padded[c0 + best : c0 + best + clen]
        per_chunk.append(si_sdr(ref_c, est_c))
        lags.append(lag)
    return ChunkedSdrReport(per_chunk, lags, skipped)


@dataclass(frozen=True)
class LossBreakdown:
    l1: float
    l_sc: float
    l_mag: float

    @property
    def total(self) -> float:
        return self.l1 + self.l_sc + self.l_mag

    def to_dict(self) -> dict:
        return {
            "l1": self.l1,
            "l_sc": self.l_sc,
            "l_mag": self.l_mag,
            "total": self.total,
        }


def loss_total(target, output, hop: int = 350, win_len: int = 1024) -> LossBreakdown:
    """Waveform L1 plus spectral-convergence and log-magnitude terms.

    l1   = mean |target - output|
    l_sc = || |T| - |O| ||_F / || |T| ||_F
    l_mag = mean | ln(|T| + eps) - ln(|O| + eps) |, eps = 1e-8
    """
    t = _as_mono(target)
    o = _as_mono(output)
    if t.shape != o.shape:
        raise ValueError("length mismatch")
    l1 = float(np.mean(np.abs(t - o)))
    t_mag = stft(t, hop=hop, win_len=win_len).magnitude()
    o_mag = stft(o, hop=hop, win_len=win_len).magnitude()
    t_norm = float(np.linalg.norm(t_mag))
    if t_norm == 0.0:
        raise ValueError("target is silent")
    l_sc = float(np.linalg.norm(t_mag - o_mag) / t_norm)
    l_mag = float(
        np.mean(np.abs(np.log(t_mag + LOG_MAG_EPS) - np.log(o_mag + LOG_MAG_EPS)))
    )
    return LossBreakdown(l1=l1, l_sc=l_sc, l_mag=l_mag)


def oracle_mask(
    kind: str,
    target_spec,
    interferer_specs,
    out_len: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ideal mask from ground-truth spectrograms, plus its masked estimate.

    kind "ibm": binary mask, 1 where the target magnitude is >= every
    interferer magnitude.  kind "irm": sqrt of the target's share of the
    total source power.  The estimate inverts mask times the mixture
    spectrogram, where the mixture is the (linear) sum of all source
    spectrograms.
    """
    kind = kind.lower()
    if kind not in ("ibm", "irm"):
        raise ValueError(f"unknown mask kind: {kind!r}")
    t_vals = np.asarray(target_spec.data)
    others = [np.asarray(s.data) for s in interferer_specs]
    for vals in others:
        if vals.shape != t_vals.shape:
            raise ValueError("spectrogram shape mismatch")
    t_mag = np.abs(t_vals)
    if kind == "ibm":
        mask = np.ones(t_mag.shape)
        for vals in others:
            mask *= (t_mag >= np.abs(vals)).astype(np.float64)
    else:
        total = t_mag**2
        for vals in others:
            total = total + np.abs(vals) ** 2
        with np.errstate(invalid="ignore"):
            mask = np.where(total > 0.0, np.sqrt(t_mag**2 / np.maximum(total, 1e-300)), 1.0)
    mix_vals = t_vals.copy()
    for vals in others:
        mix_vals = mix_vals + vals
    masked = ComplexSpectrogram(
        mask * mix_vals,
        hop=target_spec.hop,
        win_len=target_spec.win_len,
        sample_rate=target_spec.sample_rate,
    )
    estimate = istft(masked, out_len=out_len)
    return mask, estimate


def write_eval_reports(
    rows: list[dict],
    json_path: str | Path | None = None,
    csv_path: str | Path | None = None,
) -> None:
    """Emit batch-evaluation rows as JSON and/or CSV."""
    if json_path is not None:
        Path(json_path).write_text(json.dumps(rows, indent=2) + "\n")
    if csv_path is not None:
        if not rows:
            raise ValueError("no rows to write")
        keys = list(rows[0].keys())
        with open(csv_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=keys)
            w.writeheader()
            for row in rows:
                w.writerow(row)
