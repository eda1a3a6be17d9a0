"""Sampled-signal containers and elementary conditioning.

Everything downstream (filtering, demodulation, order tracking) works on the
immutable value types defined here. Arrays are stored read-only so instances
can be shared freely between threads. `_on_workers` is the one function
that starts threads; the simulator, the envelopes and the average use it.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError, RangeError, SizeError

#: Physical channel labels accepted at ingestion and their units: triaxial
#: acceleration and cutting force, the 1/rev tachometer and the hammer.
CHANNEL_UNITS = {"ax": "m/s^2", "ay": "m/s^2", "az": "m/s^2",
                 "fx": "N", "fy": "N", "fz": "N", "tacho": "V", "hammer": "N"}
CHANNELS = tuple(CHANNEL_UNITS)

_TIME_EPS = 1e-9  # snap tolerance when mapping times onto the sample grid


class _Fresh:
    """An array just made inside millenv, which no caller holds.

    A value type built from it freezes that array in place instead of
    copying it; any other input is copied, so a caller's array is never
    frozen under it. Wrap only arrays nothing else will write to.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _readonly_1d(values, what: str = "samples") -> np.ndarray:
    if isinstance(values, _Fresh):
        arr = np.asarray(values.array, dtype=float)
    else:
        arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise SizeError(f"{what} must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _require_finite(x: "TimeSeries") -> None:
    """InputError naming x's channel, its non-finite count and the first index.

    The sum of the samples is finite only when every sample is, so a clean
    record pays one pass with no temporaries. The full scan runs only when
    the sum is not finite, and a finite record whose sum overflows passes it.
    """
    if np.isfinite(np.add.reduce(x.samples)):
        return
    bad = np.flatnonzero(~np.isfinite(x.samples))
    if bad.size:
        raise InputError(
            f"channel {x.channel!r} has {bad.size} non-finite sample(s), "
            f"the first at index {bad[0]}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system
    keeps one (``taskset`` narrows it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count(value, name: str, least: int, error=RangeError) -> int:
    """`operator.index(value)` if it is at least `least`, else an `error`.
    A bool is refused, as the config loader refuses JSON `true`."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be a whole number, got {value!r}") from None
    if count < least:
        raise error(f"{name} must be >= {least}, got {count}")
    return count


def _on_workers(tasks: list, workers: int) -> None:
    """Call every task on min(len(tasks), workers) workers, the calling
    thread one of them and each other a thread joined before this returns,
    so one worker starts no thread. Each worker takes the next task in the
    list once it is free, so tasks of unequal length still keep every worker
    busy. A worker stops at its first failure; the earliest failure is
    raised once every thread has ended."""
    pending = iter(tasks)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def take():
        with lock:
            return next(pending, None)

    def run() -> None:
        try:
            for task in iter(take, None):
                task()
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    threads = []
    try:
        for w in range(1, min(len(tasks), workers)):
            thread = threading.Thread(target=run, name=f"millenv-worker-{w}")
            thread.start()
            threads.append(thread)
        run()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One uniformly sampled real-valued channel.

    Parameters
    ----------
    samples : array_like
        Channel values (m/s^2, N or V depending on the sensor).
    sample_rate_hz : float
        Sampling rate, finite and positive.
    channel : str
        Channel label; derived signals may carry suffixed labels
        (e.g. ``"ax_env"`` for an envelope).
    unit : str
        Unit label carried through processing, informational only.
    """

    samples: np.ndarray
    sample_rate_hz: float
    channel: str = "ax"
    unit: str = ""

    def __post_init__(self):
        arr = _readonly_1d(self.samples)
        if arr.size == 0:
            raise SizeError("TimeSeries requires at least one sample")
        rate = float(self.sample_rate_hz)
        if not np.isfinite(rate) or rate <= 0.0:
            raise RangeError(f"sample_rate_hz must be finite and positive, got {rate!r}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def with_samples(self, samples, channel: str | None = None) -> "TimeSeries":
        """Same rate/unit, new sample values (and optionally a new label)."""
        return TimeSeries(samples, self.sample_rate_hz,
                          channel if channel is not None else self.channel, self.unit)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided amplitude spectrum; bin k corresponds to k * df_hz."""

    amplitudes: np.ndarray
    df_hz: float
    n_fft: int

    def __post_init__(self):
        arr = _readonly_1d(self.amplitudes, "amplitudes")
        if arr.size != self.n_fft // 2 + 1:
            raise SizeError(
                f"one-sided spectrum of n_fft={self.n_fft} must have "
                f"{self.n_fft // 2 + 1} bins, got {arr.size}")
        if not np.isfinite(self.df_hz) or self.df_hz <= 0.0:
            raise RangeError(f"df_hz must be finite and positive, got {self.df_hz!r}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise RangeError("spectrum amplitudes must be finite and non-negative")
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "df_hz", float(self.df_hz))
        object.__setattr__(self, "n_fft", int(self.n_fft))

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.arange(self.amplitudes.size) * self.df_hz


def rms(x) -> float:
    """Root mean square of a TimeSeries or plain array."""
    a = x.samples if isinstance(x, TimeSeries) else np.asarray(x, dtype=float)
    return float(np.sqrt(np.mean(np.square(a))))


def detrend(x: TimeSeries) -> TimeSeries:
    """Remove the DC offset (mean) from a signal.

    If the mean is already negligible (below 1e-12 of the signal RMS) the
    input is returned unchanged, which makes the operation exactly
    idempotent. Only the mean is removed; linear trends are left alone.
    """
    m = float(x.samples.mean())
    level = rms(x)
    if abs(m) <= 1e-12 * max(level, np.finfo(float).tiny):
        return x
    return x.with_samples(_Fresh(x.samples - m))


def first_sample_index(t_s: float, sample_rate_hz: float) -> int:
    """Index of the first sample at or after t_s, within a 1e-9 sample snap."""
    return int(np.ceil(t_s * sample_rate_hz - _TIME_EPS))


def slice_time(x: TimeSeries, t0_s: float, t1_s: float) -> TimeSeries:
    """Samples of x in the half-open time interval [t0_s, t1_s).

    Rate, channel and unit are preserved. Bounds must satisfy
    0 <= t0 < t1 <= duration.
    """
    dur = x.duration_s
    if not (0.0 <= t0_s < t1_s <= dur + _TIME_EPS):
        raise RangeError(
            f"slice [{t0_s}, {t1_s}) is outside the valid interval "
            f"[0, {dur}] s of this {dur} s record")
    fs = x.sample_rate_hz
    i0 = first_sample_index(t0_s, fs)
    i1 = min(first_sample_index(t1_s, fs), x.samples.size)
    if i1 <= i0:
        raise RangeError(f"slice [{t0_s}, {t1_s}) contains no samples at {fs} Hz")
    return x.with_samples(x.samples[i0:i1])
