"""Sampled-signal containers and elementary conditioning.

Everything downstream (filtering, demodulation, order tracking) works on the
immutable value types defined here. Arrays are stored read-only so instances
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, SizeError

#: Physical channel labels accepted at ingestion: triaxial acceleration,
#: triaxial cutting force, the 1/rev tachometer and the instrumented hammer.
CHANNELS = ("ax", "ay", "az", "fx", "fy", "fz", "tacho", "hammer")

_TIME_EPS = 1e-9  # snap tolerance when mapping times onto the sample grid


def _readonly_1d(values, what: str = "samples") -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise SizeError(f"{what} must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
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

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate_hz

    def with_samples(self, samples, channel: str | None = None) -> "TimeSeries":
        """Same rate/unit, new sample values (and optionally a new label)."""
        return TimeSeries(samples, self.sample_rate_hz,
                          channel if channel is not None else self.channel, self.unit)


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum; bin k corresponds to k * df_hz."""

    amplitudes: np.ndarray
    df_hz: float
    window: str
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

    def amplitude_near(self, f_hz: float, bins: int = 1) -> tuple[float, float]:
        """Largest amplitude within +-`bins` of the bin closest to f_hz.

        Returns ``(amplitude, bin_frequency_hz)`` of the winning bin. No
        sub-bin interpolation is applied; synchronous records put order
        components exactly on bins.
        """
        k = int(round(f_hz / self.df_hz))
        lo = max(k - bins, 0)
        hi = min(k + bins, self.amplitudes.size - 1)
        if hi < lo:
            raise RangeError(f"frequency {f_hz} Hz outside the spectrum")
        window = self.amplitudes[lo:hi + 1]
        j = lo + int(np.argmax(window))
        return float(self.amplitudes[j]), j * self.df_hz


@dataclass(frozen=True)
class AngularSeries:
    """Signal resampled to uniform shaft angle, n_revs complete revolutions."""

    samples: np.ndarray
    samples_per_rev: int
    n_revs: int

    def __post_init__(self):
        arr = _readonly_1d(self.samples)
        if self.samples_per_rev < 1 or self.n_revs < 1:
            raise RangeError("samples_per_rev and n_revs must be positive")
        if arr.size != self.samples_per_rev * self.n_revs:
            raise SizeError(
                f"expected {self.samples_per_rev * self.n_revs} samples "
                f"({self.n_revs} revs x {self.samples_per_rev}), got {arr.size}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "samples_per_rev", int(self.samples_per_rev))
        object.__setattr__(self, "n_revs", int(self.n_revs))

    def rev_matrix(self) -> np.ndarray:
        """View shaped (n_revs, samples_per_rev)."""
        return self.samples.reshape(self.n_revs, self.samples_per_rev)


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
    return x.with_samples(x.samples - m)


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
