"""Tachometer processing and angular-domain resampling.

A 1/rev tachometer pulse train anchors everything rotation-synchronous:
pulse detection with hysteresis, the per-revolution speed profile,
resampling onto a uniform shaft-angle grid (order tracking), synchronous
averaging across revolutions, and splitting the averaged revolution into
per-tooth sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (TimeSeries, _count, _on_workers, _readonly_1d,
                   _require_finite, _usable_cpus)
from .errors import (CoverageError, InputError, PulseDetectionError,
                     PulseQualityError, RangeError, SizeError)


@dataclass(frozen=True, eq=False)
class TachoTrack:
    """Ordered 1/rev pulse timestamps with a derived nominal speed.

    Construction validates pulse spacing: every gap must lie within +-50%
    of the median gap, which catches missed and double triggers.
    """

    pulse_times_s: np.ndarray

    def __post_init__(self):
        times = _readonly_1d(self.pulse_times_s, "pulse_times_s")
        if times.size < 2:
            raise PulseDetectionError(
                f"need at least 2 tachometer pulses, found {times.size}")
        gaps = np.diff(times)
        if not (np.isfinite(times).all() and np.all(gaps > 0.0)):
            raise InputError("pulse times must be finite and strictly increasing")
        median_gap = float(np.median(gaps))
        bad = np.flatnonzero((gaps < 0.5 * median_gap) | (gaps > 1.5 * median_gap))
        if bad.size:
            details = ", ".join(
                f"gap {i}->{i + 1} = {gaps[i]:.6g} s ({gaps[i] / median_gap:.2f}x median)"
                for i in bad.tolist())
            raise PulseQualityError(
                f"inconsistent pulse spacing (median gap {median_gap:.6g} s): {details}")
        object.__setattr__(self, "pulse_times_s", times)

    @property
    def nominal_rpm(self) -> float:
        """Speed from the median pulse gap."""
        return 60.0 / float(np.median(np.diff(self.pulse_times_s)))

    @property
    def n_revs(self) -> int:
        return self.pulse_times_s.size - 1


@dataclass(frozen=True, eq=False)
class ToothProfile:
    """Per-tooth mean load over the averaged revolution, one entry per tooth.

    ``asymmetry_index[i]`` is the relative deviation of tooth i from the
    mean of all tooth loads, derived from ``mean_load``; the indices sum
    to zero, and are all zero when every load is.
    """

    mean_load: np.ndarray
    asymmetry_index: np.ndarray = field(init=False)

    def __post_init__(self):
        load = _readonly_1d(self.mean_load, "mean_load")
        if load.size == 0:
            raise SizeError("mean_load needs an entry for at least one tooth")
        if np.any(load < 0.0):
            raise RangeError("mean_load entries must be non-negative")
        total = float(load.mean())
        asym = load / total - 1.0 if total > 0.0 else np.zeros(load.size)
        asym.setflags(write=False)
        object.__setattr__(self, "mean_load", load)
        object.__setattr__(self, "asymmetry_index", asym)

    @property
    def z(self) -> int:
        return self.mean_load.size

    @property
    def weakest_tooth(self) -> int:
        return int(np.argmin(self.mean_load))


def detect_pulses(tacho: TimeSeries, threshold: float,
                  hysteresis: float) -> TachoTrack:
    """Rising-edge pulse times from a tachometer channel.

    A crossing fires when the signal rises through `threshold` after having
    dropped below ``threshold - hysteresis`` (re-arming), which rejects
    chatter on slow edges. Each crossing time is refined by linear
    interpolation between the bracketing samples. A non-finite sample is an
    InputError naming the first bad index; a non-finite threshold or
    hysteresis is a RangeError.
    """
    if not (np.isfinite(threshold) and np.isfinite(hysteresis)):
        raise RangeError("threshold and hysteresis must be finite, got "
                         f"{threshold} and {hysteresis}")
    if hysteresis <= 0.0:
        raise RangeError(f"hysteresis must be positive, got {hysteresis}")
    _require_finite(tacho)
    x = tacho.samples
    above = x >= threshold
    rearm_level = threshold - hysteresis
    rising = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    rearm_idx = np.flatnonzero(x < rearm_level)
    # an unfired edge saw no re-arm, so count re-arms since the previous edge
    fired = rising[np.diff(np.searchsorted(rearm_idx, rising), prepend=0) > 0]
    frac = (threshold - x[fired - 1]) / (x[fired] - x[fired - 1])
    times = (fired - 1 + frac) / tacho.sample_rate_hz
    if len(times) < 2:
        raise PulseDetectionError(
            f"found {len(times)} pulse(s) at threshold {threshold}; "
            "need at least 2 for a speed estimate")
    return TachoTrack(times)


def speed_profile(t: TachoTrack) -> np.ndarray:
    """Per-revolution speed estimate, one row (midpoint_time_s, rpm) per rev."""
    times = t.pulse_times_s
    gaps = np.diff(times)
    mid = 0.5 * (times[:-1] + times[1:])
    return np.column_stack((mid, 60.0 / gaps))


#: Output samples per block while a resampling plan is applied, to a range
#: of columns or the whole row; bounds the taps and temporaries, on each
#: worker, to a block instead of a record. 8192 read 1 MB less peak RSS on
#: the 1.2 s reference CLI op but made the 20 s library op on two workers
#: about 12% slower.
_PLAN_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class RevolutionPlan:
    """Order tracking of one record length and rate: the indices `revs` of
    the revolutions (pulse i to pulse i + 1) inside the record's span and
    their speeds `rpm`. Output sample j of revolution r lies at the
    fractional sample position
    ``s = (p[r] + (p[r + 1] - p[r]) * j / samples_per_rev) * sample_rate_hz``
    with p the pulse times, and is the 4-point (Catmull-Rom) interpolation
    of the samples ``floor(s) - 1 .. floor(s) + 2``, each index clipped to
    the record. The taps are computed a block at a time when the plan is
    applied, so the plan stores none.
    """

    revs: np.ndarray
    rpm: np.ndarray
    pulse_times_s: np.ndarray
    sample_rate_hz: float
    samples_per_rev: int

    def revolutions(self, x: TimeSeries) -> np.ndarray:
        """x, of the plan's length and rate, on the plan's angle grid: the
        read-only (revolutions, samples_per_rev) array, a row per revolution."""
        values = np.empty((self.revs.size, self.samples_per_rev))
        flat, start = values.reshape(-1), 0
        for _, block in self._blocks([x.samples], (0, self.samples_per_rev)):
            flat[start:start + block.size] = block
            start += block.size
        values.setflags(write=False)
        return values

    def average(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Row i is ``synchronous_average(self.revolutions(x))`` for the
        samples ``arrays[i]`` of x, bit for bit, from `_average` of every
        array over each of min(usable CPUs, samples_per_rev) column parts,
        one part per task of `_on_workers`."""
        spr = self.samples_per_rev
        out = np.empty((len(arrays), spr))
        n = min(_usable_cpus(), spr)
        edges = [k * spr // n for k in range(n + 1)]

        def part(j0: int, j1: int) -> None:
            out[:, j0:j1] = self._average(arrays, (j0, j1))

        _on_workers([partial(part, *cols) for cols in zip(edges, edges[1:])], n)
        return out

    def _average(self, arrays: list[np.ndarray],
                 cols: tuple[int, int]) -> np.ndarray:
        """Row i is columns ``j0 .. j1 - 1`` of
        ``synchronous_average(self.revolutions(x))`` for the samples
        ``arrays[i]`` of x, bit for bit, without building the series:
        numpy's mean over axis 0 adds the revolutions row by row, in order,
        and so does this, column by column, one reduce per block, the
        running total added to the block's first row (IEEE addition
        commutes). Each column is computed on its own, so the parts of a
        split of ``(0, samples_per_rev)``, side by side, are the whole row."""
        # x + -0.0 is x, for every x
        totals = np.full((len(arrays), cols[1] - cols[0]), -0.0)
        for i, block in self._blocks(arrays, cols):
            rows = block.reshape(-1, totals.shape[1])
            rows[0] += totals[i]
            np.add.reduce(rows, axis=0, out=totals[i])
        totals /= self.revs.size
        return totals

    def _blocks(self, arrays: list[np.ndarray], cols: tuple[int, int]):
        """Columns ``j0 .. j1 - 1`` of each of `arrays` on the plan's grid,
        whole revolutions at a time, about `_PLAN_BLOCK` output samples of
        those columns per block, in order: yields ``(i, values)`` for array
        i, block by block and within a block array by array, so each block's
        taps and tap indices are computed once for all arrays. `values` is
        one reused buffer, valid only until the next yield."""
        j0, j1 = cols
        frac = np.arange(j0, j1) / self.samples_per_rev
        rows = max(1, _PLAN_BLOCK // (j1 - j0))
        size = min(rows, self.revs.size) * (j1 - j0)
        buffers = (np.empty(size), np.empty(4 * size),
                   np.empty(4 * size, dtype=np.intp))
        offsets = np.arange(-1, 3)[:, None]
        for r in range(0, self.revs.size, rows):
            first, weights = self._taps(self.revs[r:r + rows], frac)
            n = first.size
            values = buffers[0][:n]
            terms, index = (b[:4 * n].reshape(4, n) for b in buffers[1:])
            # taps floor(s) - 1 .. floor(s) + 2; a clipped index repeats the
            # edge sample for taps past the record
            np.add(first, offsets, out=index)
            for i, a in enumerate(arrays):
                a.take(index, out=terms, mode="clip")
                terms *= weights
                # a reduce over axis 0 adds the rows one after another, so
                # each sample is ((t0 + t1) + t2) + t3 on every path
                np.add.reduce(terms, axis=0, out=values)
                yield i, values

    def _taps(self, revs: np.ndarray,
              frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The index floor(s) of every output sample of the revolutions
        `revs` at the angle fractions `frac` (``j / samples_per_rev``), in
        order, with its four weights, one row per tap."""
        pulses = self.pulse_times_s
        starts = pulses[revs]
        spans = pulses[revs + 1] - starts
        u = (starts[:, None] + spans[:, None] * frac).ravel() * self.sample_rate_hz
        first = np.floor(u)
        u -= first  # the fractional part, in place: one block array fewer
        u2 = u * u
        u3 = u2 * u
        weights = np.empty((4, u.size))
        weights[0] = 0.5 * (2.0 * u2 - u - u3)
        weights[1] = 0.5 * (2.0 - 5.0 * u2 + 3.0 * u3)
        weights[2] = 0.5 * (u + 4.0 * u2 - 3.0 * u3)
        weights[3] = 0.5 * (u3 - u2)
        return first.astype(np.intp), weights


def revolution_plan(x: TimeSeries, t: TachoTrack,
                    samples_per_rev: int) -> RevolutionPlan:
    """The plan of t for x's length and sample rate; it may hold no revolution."""
    samples_per_rev = _count(samples_per_rev, "samples_per_rev", 2)
    fs = x.sample_rate_hz
    pulses = t.pulse_times_s
    revs = np.flatnonzero((pulses[:-1] >= 0.0) & (pulses[1:] <= (len(x) - 1) / fs))
    rpm = speed_profile(t)[revs, 1]
    for arr in (revs, rpm):
        arr.setflags(write=False)
    return RevolutionPlan(revs, rpm, pulses, fs, samples_per_rev)


def resample_to_angle(x: TimeSeries, t: TachoTrack,
                      samples_per_rev: int) -> np.ndarray:
    """Resample x onto a uniform shaft-angle grid (order tracking).

    Within each revolution the shaft angle is taken linear in time between
    consecutive pulses; x is then sampled at `samples_per_rev` uniform
    angles per revolution using 4-point cubic interpolation. Only
    revolutions fully covered by x are used. Returns the read-only
    (revolutions, samples_per_rev) array, a row per revolution.
    """
    plan = revolution_plan(x, t, samples_per_rev)
    if plan.revs.size == 0:
        raise CoverageError(
            f"signal of {x.duration_s:.6g} s covers no complete revolution "
            f"(pulses span {t.pulse_times_s[0]:.6g}..{t.pulse_times_s[-1]:.6g} s)")
    return plan.revolutions(x)


def synchronous_average(revolutions) -> np.ndarray:
    """Pointwise mean across revolutions at each angular index: the mean over
    axis 0 of a (revolutions, samples_per_rev) array such as
    `resample_to_angle`'s. Any other shape, or no row, is a SizeError."""
    revs = np.asarray(revolutions, dtype=float)
    if revs.ndim != 2 or revs.shape[0] < 1:
        raise SizeError("expected a (revolutions, samples_per_rev) array of "
                        f"at least one revolution, got shape {revs.shape}")
    return revs.mean(axis=0)


def tooth_segmentation(avg_rev, z: int,
                       tooth0_offset_frac: float = 0.0) -> ToothProfile:
    """Split an averaged revolution into z equal sectors, one per tooth.

    Sector i starts at angle fraction ``tooth0_offset_frac + i/z``;
    ``mean_load[i]`` is the RMS of the averaged envelope within sector i.
    Offsets in [0, 1) are accepted; shifting the offset by exactly 1/z
    permutes the profile by one tooth, so the canonical range is [0, 1/z).
    An `avg_rev` that is not one-dimensional is a SizeError.
    """
    avg = _readonly_1d(avg_rev, "averaged revolution")
    z = _count(z, "tooth count", 1)
    n = avg.size
    if n % z:
        raise SizeError(
            f"averaged revolution of {n} samples is not divisible by z={z}; "
            f"choose samples_per_rev as a multiple of {z}")
    _check_offset(tooth0_offset_frac)
    start = int(round(tooth0_offset_frac * n)) % n
    sectors = np.roll(avg, -start).reshape(z, n // z)
    return ToothProfile(np.sqrt(np.mean(np.square(sectors), axis=1)))


def _check_offset(tooth0_offset_frac: float) -> None:
    """RangeError unless tooth0_offset_frac is in [0, 1); NaN is not."""
    if not 0.0 <= tooth0_offset_frac < 1.0:
        raise RangeError(
            f"tooth0_offset_frac must be in [0, 1), got {tooth0_offset_frac}")
