"""Spectral kernels: windowed FFT, band masking, analytic signal, envelope.

The demodulation chain is built from frequency-domain primitives: a one-sided
amplitude spectrum with window gain correction, an ideal band mask with
raised-cosine edges (zero phase, no group delay), and the FFT construction of
the analytic signal whose magnitude is the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Spectrum, TimeSeries, detrend
from .errors import RangeError, SizeError

_WINDOW_KINDS = ("hann", "rectangular")


@dataclass(frozen=True)
class Window:
    """Analysis window, identified by kind."""

    kind: str = "hann"

    def __post_init__(self):
        if self.kind not in _WINDOW_KINDS:
            raise RangeError(f"unknown window kind {self.kind!r}; "
                             f"expected one of {list(_WINDOW_KINDS)}")

    def taps(self, n: int) -> np.ndarray:
        """Window sequence of length n. Hann taps are zero at both ends."""
        if n < 1:
            raise SizeError("window length must be positive")
        if self.kind == "rectangular":
            return np.ones(n)
        return np.hanning(n)


RECTANGULAR = Window("rectangular")
HANN = Window("hann")


@dataclass(frozen=True)
class Band:
    """Frequency band [f_lo_hz, f_hi_hz] used for demodulation filtering."""

    f_lo_hz: float
    f_hi_hz: float

    def __post_init__(self):
        if not (0.0 <= self.f_lo_hz < self.f_hi_hz):
            raise RangeError(
                f"band requires 0 <= f_lo < f_hi, got [{self.f_lo_hz}, {self.f_hi_hz}]")

    @property
    def width_hz(self) -> float:
        return self.f_hi_hz - self.f_lo_hz


def amplitude_spectrum(x: TimeSeries, w: Window = HANN) -> Spectrum:
    """One-sided amplitude spectrum of x.

    Amplitudes are corrected for the window's realized coherent gain: a
    sinusoid of peak amplitude A centered on a bin reports A. The FFT
    length equals the signal length (no interpolation by zero-padding).
    """
    n = len(x)
    if n < 2:
        raise SizeError(f"amplitude_spectrum needs at least 2 samples, got {n}")
    taps = w.taps(n)
    scale = float(taps.sum())  # n * realized coherent gain
    if scale <= 0.0:
        raise SizeError(f"{w.kind} window of length {n} has zero gain")
    spec = np.fft.rfft(x.samples * taps)
    amps = np.abs(spec) * (2.0 / scale)
    amps[0] *= 0.5  # DC is not mirrored
    if n % 2 == 0:
        amps[-1] *= 0.5  # neither is Nyquist
    return Spectrum(amps, x.sample_rate_hz / n, w.kind, n)


def _band_mask(freqs: np.ndarray, b: Band, taper_hz: float) -> np.ndarray:
    mask = np.zeros_like(freqs)
    inside = (freqs >= b.f_lo_hz) & (freqs <= b.f_hi_hz)
    mask[inside] = 1.0
    if taper_hz > 0.0:
        rise = inside & (freqs < b.f_lo_hz + taper_hz)
        mask[rise] = 0.5 - 0.5 * np.cos(np.pi * (freqs[rise] - b.f_lo_hz) / taper_hz)
        fall = inside & (freqs > b.f_hi_hz - taper_hz)
        fall_val = 0.5 + 0.5 * np.cos(
            np.pi * (freqs[fall] - (b.f_hi_hz - taper_hz)) / taper_hz)
        # where rise and fall zones meet (taper == width/2) keep the smaller
        mask[fall] = np.minimum(mask[fall], fall_val)
    return mask


def band_filter(x: TimeSeries, b: Band, taper_hz: float | None = None) -> TimeSeries:
    """Zero-phase band-pass by frequency-domain masking.

    The mask is unity inside [f_lo, f_hi], zero outside, with a raised-cosine
    roll-off of width taper_hz just inside each edge. ``taper_hz=None`` uses
    5% of the band width. Being a real, symmetric mask the filter has exactly
    zero phase, which preserves impact timing.
    """
    nyq = x.sample_rate_hz / 2.0
    if b.f_hi_hz > nyq * (1 + 1e-12):
        raise RangeError(
            f"band [{b.f_lo_hz}, {b.f_hi_hz}] Hz exceeds the Nyquist frequency "
            f"{nyq} Hz; valid bands lie within (0, {nyq}]")
    if taper_hz is None:
        taper_hz = 0.05 * b.width_hz
    if taper_hz < 0.0 or taper_hz > b.width_hz / 2.0 + 1e-12:
        raise RangeError(
            f"taper_hz must be within [0, {b.width_hz / 2.0}], got {taper_hz}")
    n = len(x)
    freqs = np.fft.rfftfreq(n, 1.0 / x.sample_rate_hz)
    spec = np.fft.rfft(x.samples) * _band_mask(freqs, b, float(taper_hz))
    return x.with_samples(np.fft.irfft(spec, n))


def analytic_signal(x: TimeSeries) -> np.ndarray:
    """Complex analytic signal of x via the FFT method.

    The spectrum is multiplied by h with h[0]=1, h[k]=2 for 0<k<N/2,
    h[N/2]=1 and h[k]=0 above, then inverse transformed. The real part
    equals the input; the imaginary part is its Hilbert transform. Odd
    lengths are zero-padded by one sample internally and the pad dropped.
    """
    n0 = len(x)
    if n0 < 4:
        raise SizeError(f"analytic_signal needs at least 4 samples, got {n0}")
    a = x.samples
    if n0 % 2:
        a = np.append(a, 0.0)
    n = a.size
    h = np.zeros(n)
    h[0] = 1.0
    h[1:n // 2] = 2.0
    h[n // 2] = 1.0
    z = np.fft.ifft(np.fft.fft(a) * h)
    return z[:n0]


def envelope(x: TimeSeries) -> TimeSeries:
    """Pointwise magnitude of the analytic signal.

    Non-negative, same length and rate; the channel label gains an ``_env``
    suffix. The first and last ~1% of samples are contaminated by circular
    FFT effects and should be excluded from quantitative comparisons.
    """
    return x.with_samples(np.abs(analytic_signal(x)), channel=x.channel + "_env")


def envelope_spectrum(x: TimeSeries, b: Band, taper_hz: float | None = None,
                      w: Window = HANN) -> Spectrum:
    """Amplitude spectrum of the demodulated envelope of x.

    Band-filters x, takes the envelope, removes the envelope mean (the DC
    term would otherwise dominate) and returns its amplitude spectrum.
    """
    env = envelope(band_filter(x, b, taper_hz))
    return amplitude_spectrum(detrend(env), w)
