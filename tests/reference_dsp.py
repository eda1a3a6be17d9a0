"""Reference demodulation chain: four FFTs and per-call interpolation.

These are the straightforward forms the library's fused kernels replace,
kept as test oracles: `reference_band_envelope` band-passes with an
rfft/irfft pair, then builds the analytic signal with an fft/ifft pair
(zero-padding odd lengths by one sample), then takes its magnitude.
`reference_fused_band_envelope` masks one rfft and inverse-transforms all
n points at once, and `reference_decimated_band_envelope` takes the
band-only inverse with B-wide phase rows, each group zero-padded to L points
by ``ifft(..., n=L)`` and its magnitudes written strided into the envelope.
`reference_band_mask` evaluates the checked band mask over every rfft bin,
and `reference_rfft_analytic_signal` inverse-transforms the weighted rfft
with one ifft of n points. `reference_resample_to_angle` evaluates the
Catmull-Rom polynomial on the samples for every call.
`millenv.dsp.band_envelope`, `band_filter`, `analytic_signal` and
`millenv.sync.resample_to_angle` are compared against them.
"""

import numpy as np

from millenv import TimeSeries
import millenv.dsp
from millenv.dsp import (_band_bins, _band_mask, _band_rows,
                         _check_below_nyquist, _checked_taper)
from millenv.errors import SizeError


def reference_band_mask(x: TimeSeries, b, taper_hz: float | None) -> np.ndarray:
    """`_band_mask` over all of x's rfft bins, after checking b and taper_hz."""
    _check_below_nyquist(b, x.sample_rate_hz)
    freqs = np.fft.rfftfreq(len(x), 1.0 / x.sample_rate_hz)
    return _band_mask(freqs, b, _checked_taper(b, taper_hz))


def reference_band_filter(x: TimeSeries, b, taper_hz: float | None) -> np.ndarray:
    spec = np.fft.rfft(x.samples) * reference_band_mask(x, b, taper_hz)
    return np.fft.irfft(spec, len(x))


def reference_rfft_analytic_signal(a: np.ndarray) -> np.ndarray:
    """The weighted rfft of a, inverse-transformed by one ifft of n points."""
    n = a.size
    spec = np.fft.rfft(a)
    spec[1:(n + 1) // 2] *= 2.0
    return np.fft.ifft(spec, n)


def reference_analytic_signal(a: np.ndarray) -> np.ndarray:
    n0 = a.size
    if n0 % 2:
        a = np.append(a, 0.0)
    n = a.size
    h = np.zeros(n)
    h[0] = 1.0
    h[1:n // 2] = 2.0
    h[n // 2] = 1.0
    return np.fft.ifft(np.fft.fft(a) * h)[:n0]


def reference_band_envelope(x: TimeSeries, b, taper_hz: float) -> np.ndarray:
    return np.abs(reference_analytic_signal(reference_band_filter(x, b, taper_hz)))


def reference_fused_band_envelope(x: TimeSeries, b,
                                  taper_hz: float | None) -> np.ndarray:
    """One rfft, the band mask and the analytic weights, one ifft of n points."""
    mask = reference_band_mask(x, b, taper_hz)
    n = len(x)
    if n < 4:
        raise SizeError(f"band_envelope needs at least 4 samples, got {n}")
    spec = np.fft.rfft(x.samples)
    spec *= mask
    spec[1:(n + 1) // 2] *= 2.0
    return np.abs(np.fft.ifft(spec, n))



def reference_decimated_band_envelope(x: TimeSeries, b,
                                      taper_hz: float | None) -> np.ndarray:
    """The band-only inverse with B-wide phase rows and strided magnitudes.

    With `_band_rows`' D rows of L = n / D points, the D phase rows are
    built B wide, each the previous row times one step, as `band_envelope`
    builds them, and ``ifft(rows, n=L)`` pads a copy of each group of about
    `_INVERSE_GROUP` points to L. Each group's magnitudes go into every
    D-th sample of the envelope. The same FFTs of the same zero-padded
    data, so the same bytes.
    """
    k0, mask = _band_bins(x, b, taper_hz)
    n = len(x)
    if n < 4:
        raise SizeError(f"the analytic signal needs at least 4 samples, got {n}")
    band = np.fft.rfft(x.samples)[k0:k0 + mask.size] * mask
    band[max(1 - k0, 0):(n + 1) // 2 - k0] *= 2.0
    band *= 1.0 / n
    width = band.size
    rows = _band_rows(n, width)
    cols = n // rows
    env = np.empty(n)
    grid = env.reshape(cols, rows)  # [q, p] is sample q*D + p
    if rows == 1:
        np.abs(np.fft.ifft(band, n, norm="forward")[None, :].T, out=grid)
        return env
    phases = np.empty((rows, width), dtype=complex)
    phases[0] = band
    step = np.exp((2j * np.pi / n) * np.arange(width))
    for p in range(1, rows):
        np.multiply(phases[p - 1], step, out=phases[p])
    group = max(1, millenv.dsp._INVERSE_GROUP // cols)
    for p in range(0, rows, group):
        rows_out = np.fft.ifft(phases[p:p + group], cols, axis=1,
                               norm="forward")
        np.abs(rows_out.T, out=grid[:, p:p + len(rows_out)])
    return env


def cubic_interp(a: np.ndarray, s: np.ndarray) -> np.ndarray:
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


def reference_resample_to_angle(x: TimeSeries, pulses: np.ndarray,
                                samples_per_rev: int) -> np.ndarray:
    fs = x.sample_rate_hz
    t_last = (len(x) - 1) / fs
    usable = np.flatnonzero((pulses[:-1] >= 0.0) & (pulses[1:] <= t_last))
    frac = np.arange(samples_per_rev) / samples_per_rev
    starts = pulses[usable]
    spans = pulses[usable + 1] - starts
    target_t = (starts[:, None] + spans[:, None] * frac[None, :]).ravel()
    return cubic_interp(x.samples, target_t * fs)
