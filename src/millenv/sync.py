"""Tachometer processing and angular-domain resampling.

A 1/rev tachometer pulse train anchors everything rotation-synchronous:
pulse detection with hysteresis, the per-revolution speed profile,
resampling onto a uniform shaft-angle grid (order tracking), synchronous
averaging across revolutions, and splitting the averaged revolution into
per-tooth sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AngularSeries, TimeSeries, _readonly_1d
from .errors import (CoverageError, InputError, PulseDetectionError,
                     PulseQualityError, RangeError, SizeError)


@dataclass(frozen=True)
class TachoTrack:
    """Ordered 1/rev pulse timestamps with a derived nominal speed.

    Construction validates pulse spacing: every gap must lie within +-50%
    of the median gap, which catches missed and double triggers.
    """

    pulse_times_s: np.ndarray
    nominal_rpm: float = field(default=0.0)

    def __post_init__(self):
        times = _readonly_1d(self.pulse_times_s, "pulse_times_s")
        if times.size < 2:
            raise PulseDetectionError(
                f"need at least 2 tachometer pulses, found {times.size}")
        gaps = np.diff(times)
        if np.any(gaps <= 0.0):
            raise InputError("pulse times must be strictly increasing")
        median_gap = float(np.median(gaps))
        bad = np.flatnonzero((gaps < 0.5 * median_gap) | (gaps > 1.5 * median_gap))
        if bad.size:
            details = ", ".join(
                f"gap {i}->{i + 1} = {gaps[i]:.6g} s ({gaps[i] / median_gap:.2f}x median)"
                for i in bad.tolist())
            raise PulseQualityError(
                f"inconsistent pulse spacing (median gap {median_gap:.6g} s): {details}")
        object.__setattr__(self, "pulse_times_s", times)
        rpm = float(self.nominal_rpm) if self.nominal_rpm else 60.0 / median_gap
        if rpm <= 0.0:
            raise RangeError(f"nominal_rpm must be positive, got {rpm}")
        object.__setattr__(self, "nominal_rpm", rpm)

    @property
    def n_revs(self) -> int:
        return self.pulse_times_s.size - 1


@dataclass(frozen=True)
class ToothProfile:
    """Per-tooth mean load over the averaged revolution.

    ``asymmetry_index[i]`` is the relative deviation of tooth i from the
    mean of all tooth loads; the indices sum to zero.
    """

    z: int
    mean_load: np.ndarray
    asymmetry_index: np.ndarray

    def __post_init__(self):
        load = _readonly_1d(self.mean_load, "mean_load")
        asym = _readonly_1d(self.asymmetry_index, "asymmetry_index")
        if self.z < 1:
            raise RangeError(f"tooth count must be >= 1, got {self.z}")
        if load.size != self.z or asym.size != self.z:
            raise SizeError(f"expected {self.z} per-tooth entries, got "
                            f"{load.size} loads / {asym.size} indices")
        if np.any(load < 0.0):
            raise RangeError("mean_load entries must be non-negative")
        if abs(float(asym.sum())) > 1e-9:
            raise RangeError("asymmetry_index must sum to zero")
        object.__setattr__(self, "z", int(self.z))
        object.__setattr__(self, "mean_load", load)
        object.__setattr__(self, "asymmetry_index", asym)

    @property
    def weakest_tooth(self) -> int:
        return int(np.argmin(self.mean_load))


def detect_pulses(tacho: TimeSeries, threshold: float,
                  hysteresis: float) -> TachoTrack:
    """Rising-edge pulse times from a tachometer channel.

    A crossing fires when the signal rises through `threshold` after having
    dropped below ``threshold - hysteresis`` (re-arming), which rejects
    chatter on slow edges. Each crossing time is refined by linear
    interpolation between the bracketing samples.
    """
    if hysteresis <= 0.0:
        raise RangeError(f"hysteresis must be positive, got {hysteresis}")
    x = tacho.samples
    above = x >= threshold
    rearm_level = threshold - hysteresis
    candidates = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    rearm_idx = np.flatnonzero(x < rearm_level)

    times = []
    last_fire = -1
    for i in candidates:
        # armed only if the signal dropped below the re-arm level since the
        # previous firing (or since the start of the record)
        j = np.searchsorted(rearm_idx, i)
        armed = j > 0 and rearm_idx[j - 1] > last_fire
        if not armed:
            continue
        frac = (threshold - x[i - 1]) / (x[i] - x[i - 1])
        times.append((i - 1 + frac) / tacho.sample_rate_hz)
        last_fire = i
    if len(times) < 2:
        raise PulseDetectionError(
            f"found {len(times)} pulse(s) at threshold {threshold}; "
            "need at least 2 for a speed estimate")
    return TachoTrack(np.asarray(times))


def speed_profile(t: TachoTrack) -> np.ndarray:
    """Per-revolution speed estimate, one row (midpoint_time_s, rpm) per rev."""
    times = t.pulse_times_s
    gaps = np.diff(times)
    mid = 0.5 * (times[:-1] + times[1:])
    return np.column_stack((mid, 60.0 / gaps))


def _cubic_interp(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """4-point (Catmull-Rom) interpolation of a at fractional indices s."""
    n = a.size
    i = np.floor(s).astype(int)
    u = s - i
    p0 = a[np.clip(i - 1, 0, n - 1)]
    p1 = a[np.clip(i, 0, n - 1)]
    p2 = a[np.clip(i + 1, 0, n - 1)]
    p3 = a[np.clip(i + 2, 0, n - 1)]
    return 0.5 * (2.0 * p1 + (p2 - p0) * u
                  + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * u * u
                  + (3.0 * (p1 - p2) + p3 - p0) * u * u * u)


def covered_revolutions(x: TimeSeries, t: TachoTrack) -> np.ndarray:
    """Indices i of the revolutions (pulse i to pulse i + 1) inside x's span."""
    t_last = (len(x) - 1) / x.sample_rate_hz
    pulses = t.pulse_times_s
    return np.flatnonzero((pulses[:-1] >= 0.0) & (pulses[1:] <= t_last))


def resample_to_angle(x: TimeSeries, t: TachoTrack,
                      samples_per_rev: int) -> AngularSeries:
    """Resample x onto a uniform shaft-angle grid (order tracking).

    Within each revolution the shaft angle is taken linear in time between
    consecutive pulses; x is then sampled at `samples_per_rev` uniform
    angles per revolution using 4-point cubic interpolation. Only
    revolutions fully covered by x are used.
    """
    if samples_per_rev < 2:
        raise RangeError(f"samples_per_rev must be >= 2, got {samples_per_rev}")
    fs = x.sample_rate_hz
    pulses = t.pulse_times_s
    usable = covered_revolutions(x, t)
    if usable.size == 0:
        raise CoverageError(
            f"signal of {x.duration_s:.6g} s covers no complete revolution "
            f"(pulses span {pulses[0]:.6g}..{pulses[-1]:.6g} s)")
    frac = np.arange(samples_per_rev) / samples_per_rev
    starts = pulses[usable]
    spans = pulses[usable + 1] - starts
    target_t = (starts[:, None] + spans[:, None] * frac[None, :]).ravel()
    values = _cubic_interp(x.samples, target_t * fs)
    return AngularSeries(values, samples_per_rev, usable.size)


def synchronous_average(a: AngularSeries) -> np.ndarray:
    """Pointwise mean across revolutions at each angular index."""
    return a.rev_matrix().mean(axis=0)


def tooth_segmentation(avg_rev, z: int,
                       tooth0_offset_frac: float = 0.0) -> ToothProfile:
    """Split an averaged revolution into z equal sectors, one per tooth.

    Sector i starts at angle fraction ``tooth0_offset_frac + i/z``;
    ``mean_load[i]`` is the RMS of the averaged envelope within sector i.
    Offsets in [0, 1) are accepted; shifting the offset by exactly 1/z
    permutes the profile by one tooth, so the canonical range is [0, 1/z).
    """
    avg = np.asarray(avg_rev, dtype=float)
    if z < 1:
        raise RangeError(f"tooth count must be >= 1, got {z}")
    n = avg.size
    if n % z:
        raise SizeError(
            f"averaged revolution of {n} samples is not divisible by z={z}; "
            f"choose samples_per_rev as a multiple of {z}")
    if not (0.0 <= tooth0_offset_frac < 1.0):
        raise RangeError(
            f"tooth0_offset_frac must be in [0, 1), got {tooth0_offset_frac}")
    start = int(round(tooth0_offset_frac * n)) % n
    sectors = np.roll(avg, -start).reshape(z, n // z)
    mean_load = np.sqrt(np.mean(np.square(sectors), axis=1))
    total = float(mean_load.mean())
    if total > 0.0:
        asym = mean_load / total - 1.0
    else:
        asym = np.zeros(z)
    return ToothProfile(z, mean_load, asym)
