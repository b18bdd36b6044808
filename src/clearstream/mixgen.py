"""Synthetic binaural mixtures: shoebox room acoustics and SNR-controlled mixing.

Rooms are rectangular with uniform wall absorption derived from the
requested RT60 via Sabine's formula.  Impulse responses come from the
image-source method with 81-tap windowed-sinc fractional delays.  A
two-microphone array sits at the room centre; the target talker faces
it head-on (zero interaural delay by construction) while interferers
are placed 1 to 5 m away at an azimuth measured clockwise from straight
ahead.  Mixtures are deterministic functions of their seed.

Dry sources come from user-supplied WAV directories or, by default,
from a built-in harmonic "tone voice" synthesizer, so the generator
works without any external corpus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dsp import WaveBuffer
from .metrics import si_sdr
from .wavio import read_wav, write_wav

SPEED_OF_SOUND = 343.0
DEFAULT_MIC_SPACING = 0.175
SINC_TAPS = 81
_SINC_HALF = SINC_TAPS // 2
_WALL_MARGIN = 0.05
_DRY_RMS = 0.1

# Tone voices place their partials on a shared tempered grid aligned to
# bin centres of the enhancement stack's 1024-point analysis frames.
# Aligned partials keep their spectral energy local (Hann leakage stays
# within one neighbouring bin) and independent voices land on unison
# notes often enough to overlap in time-frequency like polyphonic music.
_TONE_GRID_DFT = 1024
_TONE_GRID_RATIO = 1.09
_TONE_GRID_MIN_STEP = 3
_TONE_GRID_SPAN = (6, 400)
_NOTES_PER_VOICE = 11


def _tone_grid_bins() -> np.ndarray:
    lo, hi = _TONE_GRID_SPAN
    ks = [lo]
    while True:
        k = max(ks[-1] + _TONE_GRID_MIN_STEP, int(round(ks[-1] * _TONE_GRID_RATIO)))
        if k > hi:
            break
        ks.append(k)
    return np.asarray(ks)


_TONE_GRID = _tone_grid_bins()


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room: dims in meters, broadband RT60 in seconds."""

    dims: tuple[float, float, float]
    rt60: float
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(d <= 0 for d in self.dims):
            raise ValueError("room dims must be three positive lengths")
        if self.rt60 < 0:
            raise ValueError("rt60 must be nonnegative")

    @property
    def volume(self) -> float:
        x, y, z = self.dims
        return x * y * z

    @property
    def surface(self) -> float:
        x, y, z = self.dims
        return 2.0 * (x * y + y * z + x * z)

    @property
    def absorption(self) -> float:
        """Uniform Sabine wall absorption; 1.0 means anechoic."""
        if self.rt60 == 0.0:
            return 1.0
        return min(1.0, 0.161 * self.volume / (self.surface * self.rt60))

    @property
    def reflection_coeff(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.absorption))


@dataclass(frozen=True)
class Rir:
    """Impulse response for one (source, mic) pair."""

    taps: np.ndarray
    max_order: int
    sample_rate: float = 15625.0


@dataclass
class MixtureBundle:
    """One generated scene: mixture, target ground truth, per-source stems."""

    mixture: WaveBuffer
    ground_truth: WaveBuffer
    stems: dict[str, WaveBuffer]
    metadata: dict


def _axis_images(length: float, coord: float, max_order: int) -> list[tuple[float, int]]:
    """1-D image positions with their reflection counts, order <= max_order."""
    out = []
    half = max_order // 2 + 1
    for k in range(-half, half + 1):
        pos, refl = 2.0 * k * length + coord, 2 * abs(k)
        if refl <= max_order:
            out.append((pos, refl))
        pos, refl = 2.0 * k * length - coord, abs(2 * k - 1)
        if refl <= max_order:
            out.append((pos, refl))
    return out


def compute_rir(
    room: RoomSpec,
    src: np.ndarray,
    mic: np.ndarray,
    max_order: int,
    sample_rate: float = 15625.0,
) -> Rir:
    """Image-source impulse response for a shoebox room.

    Each image contributes beta^order / (4 pi d) at delay d/c, written
    as an 81-tap Hann-windowed sinc so fractional delays are preserved.
    """
    src = np.asarray(src, dtype=np.float64)
    mic = np.asarray(mic, dtype=np.float64)
    for name, pos in (("src", src), ("mic", mic)):
        if pos.shape != (3,):
            raise ValueError(f"{name} must be a 3-vector")
        if np.any(pos <= 0.0) or np.any(pos >= np.asarray(room.dims)):
            raise ValueError(f"{name} position {pos} outside room {room.dims}")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    beta = room.reflection_coeff
    if beta == 0.0:
        max_order = 0

    per_axis = [_axis_images(room.dims[a], src[a], max_order) for a in range(3)]
    delays = []
    amps = []
    c = room.speed_of_sound
    for px, nx in per_axis[0]:
        for py, ny in per_axis[1]:
            if nx + ny > max_order:
                continue
            for pz, nz in per_axis[2]:
                order = nx + ny + nz
                if order > max_order:
                    continue
                d = math.dist((px, py, pz), mic)
                delays.append(d / c * sample_rate)
                amps.append(beta**order / (4.0 * math.pi * d))
    delays = np.asarray(delays)
    amps = np.asarray(amps)

    centers = np.rint(delays).astype(int)
    n_taps = int(centers.max()) + _SINC_HALF + 2
    offsets = np.arange(-_SINC_HALF, _SINC_HALF + 1)
    # u in [-40.5, 40.5]; Hann window hits zero exactly at the edges
    u = centers[:, None] + offsets[None, :] - delays[:, None]
    kernel = np.sinc(u) * (0.5 + 0.5 * np.cos(2.0 * np.pi * u / SINC_TAPS))
    vals = amps[:, None] * kernel
    idx = centers[:, None] + offsets[None, :]
    keep = idx >= 0
    taps = np.zeros(n_taps)
    np.add.at(taps, idx[keep], vals[keep])
    return Rir(taps=taps, max_order=max_order, sample_rate=sample_rate)


def peak_delay(rir: Rir) -> float:
    """Strongest-arrival delay in samples, refined by parabolic interpolation."""
    mag = np.abs(rir.taps)
    i = int(np.argmax(mag))
    if 0 < i < len(mag) - 1:
        a, b, c = mag[i - 1], mag[i], mag[i + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            return i + 0.5 * (a - c) / denom
    return float(i)


def render_binaural(dry, rirs: tuple[Rir, Rir]) -> WaveBuffer:
    """Convolve a mono source with (left, right) impulse responses.

    Full convolution per channel, both channels padded to the longer
    result so the output is rectangular.
    """
    if isinstance(dry, WaveBuffer):
        if dry.channels != 1:
            raise ValueError("dry signal must be mono")
        x = dry.data[0]
        sr = dry.sample_rate
    else:
        x = np.asarray(dry, dtype=np.float64)
        sr = rirs[0].sample_rate
    from scipy.signal import fftconvolve  # imported on use: it is slow to import

    n_out = len(x) + max(len(r.taps) for r in rirs) - 1
    chans = np.zeros((2, n_out))
    for ch, rir in enumerate(rirs):
        y = fftconvolve(x, rir.taps)
        chans[ch, : len(y)] = y
    return WaveBuffer(chans, sample_rate=sr)


def synth_tone_voice(
    rng: np.random.Generator,
    n_samples: int,
    sample_rate: float,
    f0_range: tuple[float, float] = (95.0, 260.0),
) -> np.ndarray:
    """Polyphonic tone voice: sustained partials on a shared tempered grid.

    Stands in for an audio corpus.  Each voice picks a root note inside
    ``f0_range`` plus a handful of higher notes from the same grid, so
    two independently drawn voices share unison notes with the
    time-frequency overlap typical of polyphonic material while the
    remaining notes stay cleanly separable.  Every note breathes with
    its own slow amplitude swell but never fully stops.  Deterministic
    given the generator state.
    """
    bin_hz = sample_rate / _TONE_GRID_DFT
    freqs = _TONE_GRID * bin_hz
    lo, hi = f0_range
    if not lo < hi:
        raise ValueError("f0_range must be an increasing pair")
    in_range = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    root = int(rng.choice(in_range)) if in_range.size else int(np.searchsorted(freqs, lo))
    above = np.flatnonzero(freqs > freqs[root])
    extra = rng.choice(above, size=min(_NOTES_PER_VOICE - 1, above.size), replace=False)
    t = np.arange(n_samples) / sample_rate
    x = np.zeros(n_samples)
    for i in np.concatenate(([root], extra)):
        amp = rng.uniform(0.5, 1.0)
        swell = np.sin(2.0 * np.pi * rng.uniform(0.3, 0.8) * t + rng.uniform(0, 2 * np.pi))
        env = np.maximum(np.clip(swell, 0.0, None) ** 0.5, 0.7)
        x += amp * env * np.sin(2.0 * np.pi * freqs[i] * t + rng.uniform(0, 2 * np.pi))
    rms = float(np.sqrt(np.mean(x * x)))
    return x * (_DRY_RMS / rms) if rms > 0 else x


def _pool_files(pool) -> list[Path]:
    if isinstance(pool, (str, Path)):
        files = sorted(Path(pool).glob("*.wav"))
    else:
        files = [Path(p) for p in pool]
    if not files:
        raise ValueError(f"source pool is empty: {pool!r}")
    return files


def _draw_dry(
    pool,
    rng: np.random.Generator,
    n_samples: int,
    sample_rate: float,
    f0_range: tuple[float, float],
) -> tuple[np.ndarray, str]:
    """One dry mono source of exactly n_samples, from a pool or synthesized."""
    if pool is None:
        return synth_tone_voice(rng, n_samples, sample_rate, f0_range), "synthetic"
    files = _pool_files(pool)
    path = files[int(rng.integers(len(files)))]
    wav = read_wav(path)
    x = wav.data.mean(axis=0)
    if wav.sample_rate != sample_rate:
        from scipy.signal import resample_poly

        ratio = Fraction(int(round(sample_rate)), int(round(wav.sample_rate)))
        x = resample_poly(x, ratio.numerator, ratio.denominator)
    if len(x) >= n_samples:
        start = int(rng.integers(len(x) - n_samples + 1))
        x = x[start : start + n_samples]
    else:
        x = np.tile(x, -(-n_samples // len(x)))[:n_samples]
    rms = float(np.sqrt(np.mean(x * x)))
    if rms > 0:
        x = x * (_DRY_RMS / rms)
    return x, str(path)


def _place_source(
    rng: np.random.Generator,
    center: np.ndarray,
    dims: tuple[float, float, float],
    distance: float | None,
    azimuth_deg: float | None,
    dist_range: tuple[float, float] = (1.0, 5.0),
) -> tuple[np.ndarray, float, float]:
    """Position at (distance, azimuth) from the array, resampling free
    parameters until the point is inside the room."""
    for _ in range(1000):
        d = distance if distance is not None else float(rng.uniform(*dist_range))
        az = azimuth_deg if azimuth_deg is not None else float(rng.uniform(0.0, 360.0))
        rad = math.radians(az)
        pos = center + d * np.array([math.sin(rad), math.cos(rad), 0.0])
        if np.all(pos > _WALL_MARGIN) and np.all(pos < np.asarray(dims) - _WALL_MARGIN):
            return pos, d, az
        if distance is not None and azimuth_deg is not None:
            raise ValueError(f"source at d={d} az={az} falls outside room {dims}")
    raise ValueError(f"could not place a source inside room {dims}")


def default_max_order(room: RoomSpec) -> int:
    """Reflection order that roughly covers the RT60 tail, capped at 10."""
    if room.rt60 == 0.0 or room.reflection_coeff == 0.0:
        return 0
    span = room.rt60 * room.speed_of_sound / min(room.dims)
    return min(10, max(1, math.ceil(span)))


def _solve_noise_gain(target_ch: np.ndarray, noise_ch: np.ndarray, want_db: float) -> float:
    """Gain on the noise stem so si_sdr(target, target + g*noise) = want_db."""
    def achieved(g: float) -> float:
        return si_sdr(target_ch, target_ch + g * noise_ch)

    lo, hi = 1e-6, 1e6
    if achieved(lo) < want_db or achieved(hi) > want_db:
        raise ValueError("requested input SI-SDR is unreachable for these stems")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if achieved(mid) > want_db:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return math.sqrt(lo * hi)


def make_mixture(
    seed: int,
    duration_s: float = 3.0,
    *,
    sample_rate: float = 15625.0,
    room: RoomSpec | None = None,
    rt60: float | None = None,
    mic_spacing: float = DEFAULT_MIC_SPACING,
    target_distance: float = 1.5,
    interferer_distance: float | None = None,
    interferer_azimuth_deg: float | None = None,
    target_si_sdr_db: float | None = None,
    target_pool=None,
    interferer_pool=None,
    background_pool=None,
    max_order: int | None = None,
) -> MixtureBundle:
    """Build one deterministic binaural scene.

    Rooms default to random 5-20 m sides with RT60 uniform in [0, 1].
    The target talker sits straight ahead of the array; one interferer
    is placed 1-5 m away at a random azimuth; a background source is
    added only when background_pool is given.  The interferer-plus-
    background gain is solved so the left-channel input SI-SDR lands on
    target_si_sdr_db (default: drawn uniform in [-5, +5] dB).  Stems
    sum to the mixture exactly.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng(seed)
    if room is None:
        dims = tuple(float(v) for v in rng.uniform(5.0, 20.0, size=3))
        room = RoomSpec(dims=dims, rt60=float(rng.uniform(0.0, 1.0)))
    if rt60 is not None:
        room = RoomSpec(dims=room.dims, rt60=rt60, speed_of_sound=room.speed_of_sound)
    order = default_max_order(room) if max_order is None else max_order
    center = np.asarray(room.dims) / 2.0
    mic_l = center + np.array([-mic_spacing / 2.0, 0.0, 0.0])
    mic_r = center + np.array([+mic_spacing / 2.0, 0.0, 0.0])
    target_pos = center + np.array([0.0, target_distance, 0.0])
    int_pos, int_dist, int_az = _place_source(
        rng, center, room.dims, interferer_distance, interferer_azimuth_deg
    )

    n = int(round(duration_s * sample_rate))
    dry_target, target_src = _draw_dry(target_pool, rng, n, sample_rate, (95.0, 150.0))
    dry_interf, interf_src = _draw_dry(interferer_pool, rng, n, sample_rate, (170.0, 260.0))

    def rir_pair(pos: np.ndarray) -> tuple[Rir, Rir]:
        return (
            compute_rir(room, pos, mic_l, order, sample_rate),
            compute_rir(room, pos, mic_r, order, sample_rate),
        )

    target_stem = render_binaural(dry_target, rir_pair(target_pos)).data[:, :n]
    interf_stem = render_binaural(dry_interf, rir_pair(int_pos)).data[:, :n]

    bg_stem = None
    bg_meta = None
    if background_pool is not None:
        bg_pos, bg_dist, bg_az = _place_source(rng, center, room.dims, None, None)
        dry_bg, bg_src = _draw_dry(background_pool, rng, n, sample_rate, (170.0, 260.0))
        bg_rel_db = float(rng.uniform(0.0, 10.0))
        bg_stem = render_binaural(dry_bg, rir_pair(bg_pos)).data[:, :n]
        bg_stem = bg_stem * 10.0 ** (-bg_rel_db / 20.0)
        bg_meta = {
            "file": bg_src,
            "distance_m": bg_dist,
            "azimuth_deg": bg_az,
            "level_rel_db": -bg_rel_db,
        }

    noise = interf_stem if bg_stem is None else interf_stem + bg_stem
    want_db = (
        float(rng.uniform(-5.0, 5.0)) if target_si_sdr_db is None else target_si_sdr_db
    )
    gain = _solve_noise_gain(target_stem[0], noise[0], want_db)

    stems = {"target": target_stem, "interferer": gain * interf_stem}
    if bg_stem is not None:
        stems["background"] = gain * bg_stem
    mix = np.zeros_like(target_stem)
    for stem in stems.values():
        mix = mix + stem

    sr = sample_rate
    bundle_stems = {k: WaveBuffer(v, sample_rate=sr) for k, v in stems.items()}
    mixture = WaveBuffer(mix, sample_rate=sr)
    ground_truth = WaveBuffer(stems["target"], sample_rate=sr)
    measured = si_sdr(ground_truth.data[0], mixture.data[0])
    metadata = {
        "seed": int(seed),
        "duration_s": duration_s,
        "sample_rate": sr,
        "room_dims_m": [float(v) for v in room.dims],
        "rt60_s": room.rt60,
        "absorption": room.absorption,
        "max_order": order,
        "speed_of_sound": room.speed_of_sound,
        "mic_spacing_m": mic_spacing,
        "target": {"file": target_src, "distance_m": target_distance, "azimuth_deg": 0.0},
        "interferer": {"file": interf_src, "distance_m": int_dist, "azimuth_deg": int_az},
        "background": bg_meta,
        "noise_gain": gain,
        "requested_input_si_sdr_db": want_db,
        "input_si_sdr_db": measured,
    }
    return MixtureBundle(
        mixture=mixture, ground_truth=ground_truth, stems=bundle_stems, metadata=metadata
    )


def save_bundle(bundle: MixtureBundle, out_root: str | Path) -> Path:
    """Write <out_root>/<seed>/{mixture.wav, gt.wav, stems/, meta.json}."""
    out = Path(out_root) / str(bundle.metadata["seed"])
    (out / "stems").mkdir(parents=True, exist_ok=True)
    write_wav(out / "mixture.wav", bundle.mixture, encoding="float32")
    write_wav(out / "gt.wav", bundle.ground_truth, encoding="float32")
    for name, stem in bundle.stems.items():
        write_wav(out / "stems" / f"{name}.wav", stem, encoding="float32")
    (out / "meta.json").write_text(json.dumps(bundle.metadata, indent=2) + "\n")
    return out


def load_bundle(bundle_dir: str | Path) -> MixtureBundle:
    """Inverse of save_bundle (float32 WAV round trip)."""
    d = Path(bundle_dir)
    metadata = json.loads((d / "meta.json").read_text())
    stems = {
        p.stem: read_wav(p) for p in sorted((d / "stems").glob("*.wav"))
    }
    return MixtureBundle(
        mixture=read_wav(d / "mixture.wav"),
        ground_truth=read_wav(d / "gt.wav"),
        stems=stems,
        metadata=metadata,
    )


SWEEP_KINDS = ("angle", "rt60", "spacing")


def sweep(
    kind: str,
    grid,
    trials_per_point: int,
    seed: int,
    enhancer,
    csv_path: str | Path | None = None,
    duration_s: float = 3.0,
    **mix_overrides,
) -> list[dict]:
    """Vary one scene parameter and score SI-SDRi per (point, trial).

    kind "angle" sweeps the interferer azimuth in degrees, "rt60" the
    reverberation time in seconds, "spacing" the mic spacing in meters.
    enhancer(bundle) must return a mono estimate aligned with the left
    ground-truth channel.  Rows are plot-ready; csv_path optionally
    persists them.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"kind must be one of {SWEEP_KINDS}")
    grid = list(grid)
    if not grid:
        raise ValueError("empty sweep grid")
    rows = []
    for gi, value in enumerate(grid):
        for trial in range(trials_per_point):
            # same trial seed at every grid point: only the swept
            # parameter changes between points
            sub_seed = seed + trial
            kw = dict(mix_overrides)
            if kind == "angle":
                kw["interferer_azimuth_deg"] = float(value)
            elif kind == "rt60":
                kw["rt60"] = float(value)
            else:
                kw["mic_spacing"] = float(value)
            bundle = make_mixture(sub_seed, duration_s, **kw)
            ref = bundle.ground_truth.data[0]
            mix_l = bundle.mixture.data[0]
            est = np.asarray(enhancer(bundle), dtype=np.float64)
            if est.shape != ref.shape:
                raise ValueError("enhancer output length mismatch")
            inp = si_sdr(ref, mix_l)
            outp = si_sdr(ref, est)
            rows.append(
                {
                    "kind": kind,
                    "value": float(value),
                    "trial": trial,
                    "seed": sub_seed,
                    "input_si_sdr_db": inp,
                    "output_si_sdr_db": outp,
                    "si_sdri_db": outp - inp,
                }
            )
    if csv_path is not None:
        from .metrics import write_eval_reports

        write_eval_reports(rows, csv_path=csv_path)
    return rows
