"""Two-node clock alignment simulator.

Models a primary and a secondary recorder, each driven by a free-running
32 MHz crystal with its own ppm error, from which a 16 MHz timer is
derived that wraps every 800000 ticks (50 ms).  The primary broadcasts
timestamp beacons at 200 Hz; the secondary compares the received primary
timer value against its own and feeds the divergence to a rate encoder
that inserts or removes one 32 us buffer sample whenever the divergence
crosses the next 32 us multiple.

Capture is assumed to begin with both nodes aligned at a shared timer
wrap (see startup_align for how that is arranged), so the alignment
error is zero at t = 0 by construction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TIMER_HZ = 16_000_000.0
TIMER_WRAP_TICKS = 800_000
BUFFER_SAMPLE_US = 32.0


@dataclass(frozen=True)
class SyncSimConfig:
    """Scenario parameters for run_sim."""

    primary_ppm: float = 20.0
    secondary_ppm: float = -20.0
    sync_enabled: bool = True
    duration_s: float = 60.0
    beacon_hz: float = 200.0
    beacon_loss_prob: float = 0.0
    prop_delay_us: float = 5.0
    prop_jitter_us: float = 0.0
    error_sample_hz: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.beacon_hz <= 0 or self.error_sample_hz <= 0:
            raise ValueError("rates must be positive")
        if not 0.0 <= self.beacon_loss_prob < 1.0:
            raise ValueError("beacon_loss_prob must be in [0, 1)")


@dataclass
class RateEncoder:
    """Turns a drifting time difference into discrete sample corrections.

    level tracks how many whole steps of divergence have already been
    compensated.  One call can move the level by at most one step, which
    is fine at beacon cadence: 40 ppm accumulates only ~0.2 us between
    200 Hz beacons.
    """

    step_us: float = BUFFER_SAMPLE_US
    level: int = 0

    def update(self, diff_us: float) -> str:
        if diff_us >= (self.level + 1) * self.step_us:
            self.level += 1
            return "remove"
        if diff_us <= (self.level - 1) * self.step_us:
            self.level -= 1
            return "insert"
        return "none"


def startup_align(
    primary_start_tick: int,
    secondary_start_tick: int,
    sample_rate: float = 15625.0,
) -> tuple[int, int]:
    """Samples each node must drop so both captures begin together.

    Both nodes receive the start command stamped with the shared timer
    and arm capture for the next timer wrap.  If the two receipt ticks
    straddle a wrap (shortest mod-800000 arc between them crosses zero),
    the node that saw the larger tick armed the earlier wrap and starts
    one full timer period (50 ms = 781 samples at 15625 Hz) before the
    other; it must drop that lead.  Returns (primary_drop, secondary_drop).
    """
    for name, tick in (
        ("primary", primary_start_tick),
        ("secondary", secondary_start_tick),
    ):
        if not 0 <= tick < TIMER_WRAP_TICKS:
            raise ValueError(f"{name} tick out of range: {tick}")
    lead = int(TIMER_WRAP_TICKS / TIMER_HZ * sample_rate)  # 781
    d = primary_start_tick - secondary_start_tick
    if abs(d) <= TIMER_WRAP_TICKS // 2:
        return (0, 0)
    if d > 0:
        return (lead, 0)
    return (0, lead)


@dataclass
class SyncSimReport:
    """Time series and summary stats from one run_sim scenario."""

    config: SyncSimConfig
    times_s: np.ndarray
    error_us: np.ndarray
    events: list[tuple[float, str]] = field(default_factory=list)
    beacons_sent: int = 0
    beacons_received: int = 0
    corrections_removed: int = 0
    corrections_inserted: int = 0

    @property
    def max_abs_error_us(self) -> float:
        return float(np.max(np.abs(self.error_us)))

    @property
    def final_error_us(self) -> float:
        return float(self.error_us[-1])

    @property
    def drift_us_per_min(self) -> float:
        """Magnitude of the best-fit linear error growth per minute."""
        slope = np.polyfit(self.times_s, self.error_us, 1)[0]
        return float(abs(slope) * 60.0)

    def summary(self) -> dict:
        return {
            "sync_enabled": self.config.sync_enabled,
            "primary_ppm": self.config.primary_ppm,
            "secondary_ppm": self.config.secondary_ppm,
            "duration_s": self.config.duration_s,
            "beacons_sent": self.beacons_sent,
            "beacons_received": self.beacons_received,
            "corrections_removed": self.corrections_removed,
            "corrections_inserted": self.corrections_inserted,
            "max_abs_error_us": self.max_abs_error_us,
            "final_error_us": self.final_error_us,
            "drift_us_per_min": self.drift_us_per_min,
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n")

    def to_csv(self, path: str | Path) -> None:
        """Merged trace: error samples (blank event) and correction rows."""
        rows = [(float(t), float(e), "") for t, e in zip(self.times_s, self.error_us)]
        rows += [(t, math.nan, kind) for t, kind in self.events]
        rows.sort(key=lambda r: r[0])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "error_us", "event"])
            for t, e, kind in rows:
                w.writerow([f"{t:.6f}", "" if math.isnan(e) else f"{e:.4f}", kind])


def run_sim(config: SyncSimConfig) -> SyncSimReport:
    """Simulate beacon-driven alignment and sample the residual error.

    The alignment error at true time t is the gap, expressed in
    microseconds, between the two nodes' corrected buffer-sample counts:
    err(t) = (elapsed_secondary - elapsed_primary) - 32 us * level(t).
    With sync disabled the level stays 0 and the error is pure crystal
    drift.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    rp = 1.0 + cfg.primary_ppm * 1e-6
    rs = 1.0 + cfg.secondary_ppm * 1e-6

    # beacon n is transmitted when the primary's own clock reads n/beacon_hz
    n_beacons = int(cfg.duration_s * cfg.beacon_hz * rp)
    tx_times = np.arange(1, n_beacons + 1) / cfg.beacon_hz / rp
    lost = rng.random(n_beacons) < cfg.beacon_loss_prob
    jitter = (
        rng.uniform(0.0, cfg.prop_jitter_us * 1e-6, n_beacons)
        if cfg.prop_jitter_us > 0
        else np.zeros(n_beacons)
    )
    rx_times = tx_times + cfg.prop_delay_us * 1e-6 + jitter

    def primary_ticks(t: float) -> int:
        return math.floor(t * rp * TIMER_HZ)

    def secondary_ticks(t: float) -> int:
        return math.floor(t * rs * TIMER_HZ)

    encoder = RateEncoder()
    events: list[tuple[float, str]] = []
    received = 0
    # (time, level) steps; level is piecewise constant between beacons
    level_steps: list[tuple[float, int]] = [(0.0, 0)]
    offset_ref: float | None = None
    if cfg.sync_enabled:
        for n in range(n_beacons):
            if lost[n]:
                continue
            received += 1
            t_rx = float(rx_times[n])
            offset = primary_ticks(float(tx_times[n])) - secondary_ticks(t_rx)
            if offset_ref is None:
                offset_ref = offset
            diff_us = -(offset - offset_ref) / TIMER_HZ * 1e6
            action = encoder.update(diff_us)
            if action != "none":
                events.append((t_rx, action))
                level_steps.append((t_rx, encoder.level))

    times = np.arange(1, int(cfg.duration_s * cfg.error_sample_hz) + 1) / (
        cfg.error_sample_hz
    )
    step_times = np.array([t for t, _ in level_steps])
    step_levels = np.array([lv for _, lv in level_steps])
    idx = np.searchsorted(step_times, times, side="right") - 1
    levels = step_levels[idx]
    drift_us = (rs - rp) * times * 1e6
    error_us = drift_us - levels * BUFFER_SAMPLE_US

    removed = sum(1 for _, k in events if k == "remove")
    inserted = sum(1 for _, k in events if k == "insert")
    return SyncSimReport(
        config=cfg,
        times_s=times,
        error_us=error_us,
        events=events,
        beacons_sent=n_beacons,
        beacons_received=received if cfg.sync_enabled else 0,
        corrections_removed=removed,
        corrections_inserted=inserted,
    )
