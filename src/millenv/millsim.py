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

Channel i's noise is drawn from its own stream,
``default_rng(SeedSequence(seed).spawn(6)[i])``, in the order ax, ay, az,
fx, fy, fz: channel i is ``normal(0.0, rms_i, n) + g_i * train`` from that
generator, and ``g_i * train + 0.0`` without noise. `simulate` runs two
pools of tasks on min(tasks, usable CPUs) threads, the calling thread one
of them, each thread taking the next task once it is free: first the
shaping of both trains and the six draws, then the six combines. Each task
writes only its own arrays, and the trains are summed strike by strike in
a fixed order without BLAS, so no output byte depends on the thread count,
the schedule or the CPU's BLAS kernel. The six channels are the rows of one
``(6, n)`` block and the two trains the rows of one ``(2, n)`` block, so a
long record's blocks pass numpy's 4 MiB huge-page threshold; a combine
works through its row in blocks of ``_COMBINE_BLOCK`` samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (CHANNEL_UNITS, TimeSeries, _count, _Fresh, _on_workers,
                   _usable_cpus)
from .errors import ConfigError
from .pipeline import Cutter

ACCEL_GAINS = {"ax": 1.0, "ay": 0.75, "az": 0.5}
FORCE_GAINS = {"fx": 1.0, "fy": 0.75, "fz": 0.5}
FORCE_SCALE_N = 200.0       # nominal per-unit-gain cutting-force level
FORCE_PULSE_S = 4e-4        # smoothing width of the force pulse
TACHO_PULSE_FRAC = 0.02     # tacho pulse width as a fraction of one rev
OSC_DECAY_FLOOR = 1e-4      # truncate the oscillator kernel at this decay
_COMBINE_BLOCK = 65536      # samples per block of a combine's buffer (512 KB)
_STRIKE_CHUNK = 64          # strikes per bincount of the shaping


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
        if not all(0.0 <= g < math.inf for g in gains):
            raise ConfigError(
                f"per_tooth_gain entries must be finite and >= 0, got {gains}")
        for name in ("noise_rms", "eccentricity", "resonance_hz", "rpm",
                     "rpm_end", "duration_s", "sample_rate_hz"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        if not (0.0 < self.damping_ratio < 1.0):
            raise ConfigError(f"damping_ratio must be in (0, 1), got {self.damping_ratio}")
        if self.resonance_hz >= 0.4 * self.sample_rate_hz:
            raise ConfigError(
                f"resonance_hz {self.resonance_hz} must stay below 40% of the "
                f"sample rate ({0.4 * self.sample_rate_hz} Hz)")
        if self.eccentricity < 0.0 or self.noise_rms < 0.0:
            raise ConfigError("eccentricity and noise_rms must be >= 0")
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0, ConfigError))
        if self.duration_s <= 0.0 or self.sample_rate_hz <= 0.0:
            raise ConfigError("duration_s and sample_rate_hz must be positive")
        if self.duration_s * self.sample_rate_hz <= 0.5:  # rounds to n = 0
            raise ConfigError(
                f"duration_s {self.duration_s} at sample_rate_hz "
                f"{self.sample_rate_hz} is shorter than one sample")
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


def _shape(kernel: np.ndarray, pos: np.ndarray, amp: np.ndarray,
           out: np.ndarray) -> None:
    """Write the first ``out.size`` samples of ``np.convolve(impulses,
    kernel)`` to `out`, where `impulses` splits each strike's `amp`
    linearly between the samples around its fractional sample position
    `pos` (ascending); a strike on the last sample keeps both parts there.

    Each strike adds one template of K + 1 taps, the kernel with the split
    folded in; `np.bincount` sums the templates of a chunk of strikes in
    strike order, and the chunks are added in order. So no byte depends on
    a BLAS kernel, and no impulse train is built.
    """
    n = out.size
    out.fill(0.0)
    base = np.floor(pos).astype(np.intp)
    frac = pos - base
    early, late = amp * (1.0 - frac), amp * frac
    last = base + 1 >= n
    early[last] += late[last]
    late[last] = 0.0
    # template j = early * kernel[j] + late * kernel[j - 1], j = 0..K
    padded = np.concatenate(([0.0], kernel, [0.0]))
    taps = np.arange(kernel.size + 1)
    for s in range(0, base.size, _STRIKE_CHUNK):
        b = base[s:s + _STRIKE_CHUNK]
        weights = early[s:s + _STRIKE_CHUNK, None] * padded[1:]
        weights += late[s:s + _STRIKE_CHUNK, None] * padded[:-1]
        sums = np.bincount(((b - b[0])[:, None] + taps).ravel(),
                           weights.ravel())
        stop = min(b[0] + sums.size, n)
        out[b[0]:stop] += sums[:stop - b[0]]


def _add_scaled(noise: np.ndarray, rms: float, g: float, train: np.ndarray,
                buf: np.ndarray) -> None:
    """``noise = noise * rms + 0.0 + g * train`` one block of `buf` at a
    time, without a full-length temporary. From standard normals in
    `noise` these are the bytes of ``normal(0.0, rms, n) + g * train``,
    and from zeros those of ``g * train + 0.0``."""
    for s in range(0, noise.size, buf.size):
        part = noise[s:s + buf.size]
        scaled = buf[:part.size]
        part *= rms
        part += 0.0
        np.multiply(g, train[s:s + buf.size], out=scaled)
        part += scaled


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

    # (channel, gain, train, noise rms): train 0 is the strike train rung
    # through the structure, train 1 the strike train smoothed to force
    sources = ([(ch, g, 0, cfg.noise_rms) for ch, g in ACCEL_GAINS.items()]
               + [(ch, g, 1, cfg.noise_rms * FORCE_SCALE_N)
                  for ch, g in FORCE_GAINS.items()])
    kernels = (_oscillator_kernel(cfg.resonance_hz, cfg.damping_ratio, fs),
               _force_kernel(fs) * FORCE_SCALE_N)
    # the channels and the trains are each the rows of one block, allocated
    # here, on the calling thread: a worker allocates from a heap of its
    # own, which costs peak RSS. numpy asks the kernel to back a block of
    # 4 MiB or more with huge pages, while a lone 20 s channel (4 000 000 B)
    # would be faulted in 4 KiB at a time
    trains = np.empty((len(kernels), n))
    noisy = cfg.noise_rms > 0.0
    noises = (np.empty if noisy else np.zeros)((len(sources), n))
    streams = np.random.SeedSequence(cfg.seed).spawn(len(sources))
    pos = strike_t * fs

    def shape() -> None:
        for kernel, train in zip(kernels, trains):
            _shape(kernel, pos, amp, train)

    def draw(i: int) -> None:
        np.random.default_rng(streams[i]).standard_normal(out=noises[i])

    def combine(i: int) -> None:
        _, g, k, rms = sources[i]
        _add_scaled(noises[i], rms, g, trains[k],
                    np.empty(min(n, _COMBINE_BLOCK)))

    for tasks in ([shape] + [partial(draw, i) for i in range(len(sources))
                             if noisy],
                  [partial(combine, i) for i in range(len(sources))]):
        _on_workers(tasks, _usable_cpus())

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
