"""Synthetic milling-cutter signal generator with known ground truth.

Each tooth strikes the workpiece once per revolution at its angular
position; every strike injects an impulse whose amplitude is the tooth's
gain, optionally modulated once per revolution by runout (eccentricity).
Vibration channels convolve the impulse train with a unit-energy damped
oscillator response (the structure ringing at its resonance); force
channels carry the low-pass-smoothed impulse train scaled to a nominal
cutting-force level. A clean square-pulse tachometer channel marks each
revolution. The impact schedule is returned alongside the waveforms so
every pipeline stage can be validated against ground truth.

`simulate` uses up to 2 threads: the calling thread draws the noise of
every channel from the one seeded generator, in channel order, while a
second thread, when a second CPU is usable, shapes the strike train. A
channel is combined (its gain times its shaped train added to its noise)
by whichever of the two gets there first, once both exist, block by block
through a small buffer, so no combine allocates a full-length array. No
output byte depends on the number of threads or on which one combines.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import CHANNEL_UNITS, TimeSeries, _Fresh, _on_workers, _usable_cpus
from .errors import ConfigError
from .pipeline import Cutter

ACCEL_GAINS = {"ax": 1.0, "ay": 0.75, "az": 0.5}
FORCE_GAINS = {"fx": 1.0, "fy": 0.75, "fz": 0.5}
FORCE_SCALE_N = 200.0       # nominal per-unit-gain cutting-force level
FORCE_PULSE_S = 4e-4        # smoothing width of the force pulse
TACHO_PULSE_FRAC = 0.02     # tacho pulse width as a fraction of one rev
OSC_DECAY_FLOOR = 1e-4      # truncate the oscillator kernel at this decay
_COMBINE_BLOCK = 8192       # samples per block of a combine's buffer


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; identical configs give bit-identical output."""

    cutter: Cutter
    per_tooth_gain: tuple[float, ...]
    rpm: float | None = None            # overrides the cutter-derived speed
    rpm_end: float | None = None        # linear speed ramp target, if set
    resonance_hz: float = 2000.0
    damping_ratio: float = 0.03
    eccentricity: float = 0.0           # 1/rev amplitude-modulation depth
    noise_rms: float = 0.0
    duration_s: float = 1.5
    sample_rate_hz: float = 25000.0
    seed: int = 0

    def __post_init__(self):
        gains = tuple(float(g) for g in self.per_tooth_gain)
        if len(gains) != self.cutter.z:
            raise ConfigError(
                f"per_tooth_gain has {len(gains)} entries but the cutter "
                f"has z={self.cutter.z} teeth")
        if any(g < 0.0 for g in gains):
            raise ConfigError("per_tooth_gain entries must be >= 0")
        if not (0.0 < self.damping_ratio < 1.0):
            raise ConfigError(f"damping_ratio must be in (0, 1), got {self.damping_ratio}")
        if self.resonance_hz >= 0.4 * self.sample_rate_hz:
            raise ConfigError(
                f"resonance_hz {self.resonance_hz} must stay below 40% of the "
                f"sample rate ({0.4 * self.sample_rate_hz} Hz)")
        if self.eccentricity < 0.0 or self.noise_rms < 0.0:
            raise ConfigError("eccentricity and noise_rms must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.duration_s <= 0.0 or self.sample_rate_hz <= 0.0:
            raise ConfigError("duration_s and sample_rate_hz must be positive")
        for name in ("rpm", "rpm_end"):
            v = getattr(self, name)
            if v is not None and v <= 0.0:
                raise ConfigError(f"{name} must be positive, got {v}")
        object.__setattr__(self, "per_tooth_gain", gains)

    @property
    def start_rpm(self) -> float:
        return self.rpm if self.rpm is not None else self.cutter.rpm


@dataclass(frozen=True, eq=False)
class SimTruth:
    """Ground truth: when each tooth struck, and the configured gains."""

    impact_times_s: np.ndarray
    impact_tooth: np.ndarray
    pulse_times_s: np.ndarray
    per_tooth_gain: tuple[float, ...]
    rpm: float

    def __post_init__(self):
        for name in ("impact_times_s", "impact_tooth", "pulse_times_s"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SimOutput:
    channels: dict[str, TimeSeries]
    truth: SimTruth


def _rev_to_time(rev: np.ndarray, f0: float, beta: float) -> np.ndarray:
    """Invert the revolution count r(t) = f0*t + beta*t^2/2."""
    if beta == 0.0:
        return rev / f0
    return (np.sqrt(f0 * f0 + 2.0 * beta * rev) - f0) / beta


def _oscillator_kernel(resonance_hz: float, zeta: float, fs: float) -> np.ndarray:
    """Unit-energy damped oscillator impulse response."""
    sigma = 2.0 * math.pi * zeta * resonance_hz
    n = int(math.ceil(math.log(1.0 / OSC_DECAY_FLOOR) / sigma * fs)) + 1
    t = np.arange(n) / fs
    f_d = resonance_hz * math.sqrt(1.0 - zeta * zeta)
    kernel = np.exp(-sigma * t) * np.sin(2.0 * math.pi * f_d * t)
    return kernel / np.sqrt(np.sum(kernel * kernel))


def _force_kernel(fs: float) -> np.ndarray:
    """Smooth positive pulse of ~FORCE_PULSE_S width, unit peak."""
    n = max(5, int(round(FORCE_PULSE_S * fs)) | 1)
    return np.hanning(n + 2)[1:-1]


def _add_scaled(out: np.ndarray, g: float, train: np.ndarray,
                buf: np.ndarray) -> None:
    """``out += g * train`` one block of `buf` at a time: the same bytes
    as the full-length expression, without its full-length temporary."""
    for s in range(0, out.size, buf.size):
        part = buf[:out.size - s]
        np.multiply(g, train[s:s + buf.size], out=part)
        out[s:s + buf.size] += part


def simulate(cfg: SimConfig) -> SimOutput:
    """Generate all channels plus the ground-truth impact schedule.

    Tooth i of revolution k strikes at revolution count k + i/z; runout
    scales tooth i's impulse by (1 + eccentricity * cos(2*pi*i/z)). With a
    speed ramp configured, strike and pulse times follow the quadratic
    phase of the ramp so order tracking can be exercised against truth.
    """
    fs = cfg.sample_rate_hz
    n = int(round(cfg.duration_s * fs))
    z = cfg.cutter.z
    f0 = cfg.start_rpm / 60.0
    f1 = (cfg.rpm_end / 60.0) if cfg.rpm_end is not None else f0
    beta = (f1 - f0) / cfg.duration_s
    total_revs = f0 * cfg.duration_s + 0.5 * beta * cfg.duration_s ** 2

    # impact schedule (exact, fractional-sample times)
    n_strikes = int(math.floor(total_revs * z + 1e-9)) + 1
    strike_revs = np.arange(n_strikes) / z
    strike_t = _rev_to_time(strike_revs, f0, beta)
    keep = strike_t < cfg.duration_s - 1.0 / fs
    strike_revs, strike_t = strike_revs[keep], strike_t[keep]
    tooth = (np.round(strike_revs * z).astype(int)) % z
    gains = np.asarray(cfg.per_tooth_gain)
    amp = gains[tooth] * (1.0 + cfg.eccentricity * np.cos(2.0 * math.pi * tooth / z))

    # impulse train with linear two-sample split to keep sub-sample timing
    impulses = np.zeros(n)
    pos = strike_t * fs
    base = np.floor(pos).astype(int)
    frac = pos - base
    np.add.at(impulses, base, amp * (1.0 - frac))
    np.add.at(impulses, np.minimum(base + 1, n - 1), amp * frac)

    # (channel, gain, shaped train, noise rms) in the order the noise is drawn
    sources = ([(ch, g, 0, cfg.noise_rms) for ch, g in ACCEL_GAINS.items()]
               + [(ch, g, 1, cfg.noise_rms * FORCE_SCALE_N)
                  for ch, g in FORCE_GAINS.items()])
    shaped: list[np.ndarray] = []   # both trains, once both are shaped
    noises: list[np.ndarray] = []   # drawn so far, in channel order
    lock = threading.Lock()
    combined = 0                    # channels claimed for combining
    block = min(_COMBINE_BLOCK, n)  # each task's combine buffer

    def combine_ready(buf: np.ndarray) -> None:
        # claim each channel whose noise and trains both exist and add its
        # shaped train, in place; whichever task gets there first does it,
        # and neither waits for the other. Each task publishes its part
        # under the lock before claiming, so the later one claims whatever
        # is left. IEEE addition commutes: the bytes of g * train + noise
        nonlocal combined
        while True:
            with lock:
                if not shaped or combined == len(noises):
                    return
                i = combined
                combined += 1
            _, g, k, _ = sources[i]
            _add_scaled(noises[i], g, shaped[k], buf)

    def shape() -> None:
        # the strike train rung through the structure, and smoothed to force
        vib = np.convolve(impulses, _oscillator_kernel(
            cfg.resonance_hz, cfg.damping_ratio, fs))[:n]
        force = np.convolve(impulses, _force_kernel(fs))[:n]
        force *= FORCE_SCALE_N
        with lock:
            shaped.extend((vib, force))
        combine_ready(np.empty(block))

    def draw() -> None:
        # one seeded stream, drawn in channel order; without noise a channel
        # is g * train + 0.0, so it starts from zeros and -0.0 reads +0.0
        rng = np.random.default_rng(cfg.seed)
        buf = np.empty(block)
        for *_, rms in sources:
            noise = (rng.normal(0.0, rms, n) if cfg.noise_rms > 0.0
                     else np.zeros(n))
            with lock:
                noises.append(noise)
            combine_ready(buf)

    # the draws run on the calling thread, the shaping on a second thread
    # when a second CPU is usable
    _on_workers(lambda mine: [task() for task in mine], [draw, shape],
                min(2, _usable_cpus()))

    # tachometer: one square pulse per revolution
    pulse_revs = np.arange(int(math.floor(total_revs)) + 1)
    pulse_t = _rev_to_time(pulse_revs.astype(float), f0, beta)
    pulse_t = pulse_t[pulse_t < cfg.duration_s - 1.0 / fs]
    tacho = np.zeros(n)
    width = max(2, int(round(TACHO_PULSE_FRAC * fs / f0)))
    for pt in pulse_t:
        start = int(round(pt * fs))
        tacho[start:start + width] = 1.0

    channels: dict[str, TimeSeries] = {}
    for (ch, *_), noise in zip(sources, noises):
        channels[ch] = TimeSeries(_Fresh(noise), fs, ch, CHANNEL_UNITS[ch])
    channels["tacho"] = TimeSeries(_Fresh(tacho), fs, "tacho",
                                   CHANNEL_UNITS["tacho"])

    truth = SimTruth(strike_t, tooth, pulse_t, cfg.per_tooth_gain, 60.0 * f0)
    return SimOutput(channels, truth)
