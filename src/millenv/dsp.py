"""Spectral kernels: windowed FFT, band masking, analytic signal, envelope.

The demodulation chain is built from frequency-domain primitives: a one-sided
amplitude spectrum with window gain correction, an ideal band mask with
raised-cosine edges (zero phase, no group delay), and the FFT construction of
the analytic signal whose magnitude is the envelope. There is one mask
evaluation, over the band's own ``rfft`` bins, and one set of analytic weights,
for one-sided bins at any length, odd or even, without padding.
`band_envelope` computes and inverse-transforms the band's bins alone, and
both transforms take one row layout: D <= 32 rows of L = n/D points, L the
smallest divisor of n that is at least n/32 and as long as the band. The
forward transform is the rffts of the record's D polyphase components,
combined by Horner's rule into the band's bins only. The inverse is D FFTs
of L points over L-wide rows zero past the band; the magnitudes overwrite
the rows already read, and one transposing copy writes the envelope. A
prime n takes one rfft and one inverse FFT of n points, and `band_filter`,
`analytic_signal` and `envelope` take the full rfft: the last two weight
all n/2 + 1 bins and inverse-transform them at once.

Every entry point that takes a record reads bin 0 of the ``rfft`` it takes
anyway, or the sum of its rows' bins 0: bin 0 sums every sample, so when it
is not finite the record is checked, and a non-finite sample is an
`InputError` naming the channel and the first bad index.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import Spectrum, TimeSeries, _Fresh, _require_finite, detrend
from .errors import InputError, RangeError, SizeError

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
        if not (0.0 <= self.f_lo_hz < self.f_hi_hz < np.inf):
            raise RangeError("band requires 0 <= f_lo < f_hi < inf, "
                             f"got [{self.f_lo_hz}, {self.f_hi_hz}]")

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
    amps = _one_sided_amplitudes(x.samples * taps, scale)
    _check_bin0(x, amps[0])
    return Spectrum(amps, x.sample_rate_hz / n, n)


def _check_bin0(x: TimeSeries, bin0) -> None:
    """`_require_finite(x)` unless bin0, the rfft bin 0 taken from x, is finite.

    Bin 0 sums every sample, windowed or not, whether one rfft gives it or
    `_band_rfft` sums its rows' bins 0, and a non-finite sample keeps it
    non-finite even at a zero window tap (inf * 0 is NaN). So a clean
    record pays this one scalar test, and a finite one whose sum overflows
    passes the check and runs on.
    """
    if not cmath.isfinite(bin0):
        _require_finite(x)


def _one_sided_amplitudes(samples: np.ndarray, scale: float) -> np.ndarray:
    """One-sided rfft magnitudes over scale; DC and Nyquist are not mirrored."""
    amps = np.abs(np.fft.rfft(samples)) * (2.0 / scale)
    amps[0] *= 0.5
    if samples.size % 2 == 0:
        amps[-1] *= 0.5
    return amps


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


def _band_bins(x: TimeSeries, b: Band,
               taper_hz: float | None) -> tuple[int, np.ndarray]:
    """First bin k0 and the mask over the bins where the band mask is nonzero.

    This is the one place a band mask is evaluated, after checking b and
    taper_hz. It is computed only over the bins around b, at the frequencies
    `rfftfreq` gives them, so it equals `_band_mask` over all of x's rfft
    bins, sliced to [k0, k0 + mask.size), bit for bit, and that full mask is
    zero outside the slice. An empty band gives an empty mask.
    """
    _check_below_nyquist(b, x.sample_rate_hz)
    taper_hz = _checked_taper(b, taper_hz)
    n = len(x)
    df = 1.0 / (n * (1.0 / x.sample_rate_hz))  # rfftfreq's bin spacing
    lo = max(int(b.f_lo_hz / df) - 1, 0)
    hi = min(int(b.f_hi_hz / df) + 2, n // 2 + 1)
    mask = _band_mask(np.arange(lo, hi) * df, b, taper_hz)
    nonzero = np.flatnonzero(mask)
    if nonzero.size == 0:
        return lo, mask[:0]
    return lo + int(nonzero[0]), mask[nonzero[0]:nonzero[-1] + 1]


def _check_below_nyquist(b: Band, sample_rate_hz: float) -> None:
    """Raise RangeError if b reaches above half of sample_rate_hz."""
    nyq = sample_rate_hz / 2.0
    if b.f_hi_hz > nyq * (1 + 1e-12):
        raise RangeError(
            f"band [{b.f_lo_hz}, {b.f_hi_hz}] Hz exceeds the Nyquist frequency "
            f"{nyq} Hz; valid bands lie within (0, {nyq}]")


def _checked_taper(b: Band, taper_hz: float | None) -> float:
    """taper_hz, or 5% of b's width for None, after checking it fits b."""
    if taper_hz is None:
        taper_hz = 0.05 * b.width_hz
    if not 0.0 <= taper_hz <= b.width_hz / 2.0 + 1e-12:  # NaN fails too
        raise RangeError(
            f"taper_hz must be within [0, {b.width_hz / 2.0}], got {taper_hz}")
    return float(taper_hz)


def band_filter(x: TimeSeries, b: Band, taper_hz: float | None = None) -> TimeSeries:
    """Zero-phase band-pass by frequency-domain masking.

    The mask is unity inside [f_lo, f_hi], zero outside, with a raised-cosine
    roll-off of width taper_hz just inside each edge. ``taper_hz=None`` uses
    5% of the band width. Being a real, symmetric mask the filter has exactly
    zero phase, which preserves impact timing.
    """
    k0, mask = _band_bins(x, b, taper_hz)
    spec = np.fft.rfft(x.samples)
    _check_bin0(x, spec[0])
    spec[:k0] = 0.0
    spec[k0 + mask.size:] = 0.0
    spec[k0:k0 + mask.size] *= mask
    return x.with_samples(_Fresh(np.fft.irfft(spec, len(x))))


def analytic_signal(x: TimeSeries) -> np.ndarray:
    """Complex analytic signal of x via the FFT method.

    The spectrum is multiplied by h with h[0]=1, h[k]=2 for 0<k<N/2,
    h[N/2]=1 (even N only) and h[k]=0 above, then inverse transformed. The
    real part equals the input; the imaginary part is its Hilbert
    transform. Odd and even lengths take the same path, with no padding:
    `band_envelope`'s weights over all n/2 + 1 bins, then one inverse FFT.
    """
    n = len(x)
    spec = np.fft.rfft(x.samples)
    _check_bin0(x, spec[0])
    return np.fft.ifft(_analytic(spec, 0, n), n, norm="forward")


def envelope(x: TimeSeries) -> TimeSeries:
    """Pointwise magnitude of the analytic signal.

    Non-negative, same length and rate; the channel label gains an ``_env``
    suffix. The first and last ~1% of samples are contaminated by circular
    FFT effects, at odd lengths as at even ones, and should be excluded
    from quantitative comparisons.
    """
    return x.with_samples(_Fresh(np.abs(analytic_signal(x))),
                          channel=x.channel + "_env")


#: complex outputs per group of inverse FFTs in `_envelope_into`, at least
#: one row; each group's magnitudes overwrite block rows already read
_INVERSE_GROUP = 1 << 16

#: most rows of both transforms of `band_envelope`
_MAX_ROWS = 32


def _band_rows(n: int, width: int) -> int:
    """D, the most rows, up to `_MAX_ROWS`, of n/D points holding width bins.

    The row length L = n/D is the smallest divisor of n at least width and
    n/32, so a band of a few bins, or none, takes a few long transforms,
    not n of one point. D = 1 at a prime n or for a band of more than half
    the bins.
    """
    for rows in range(min(_MAX_ROWS, n // max(width, 1)), 1, -1):
        if n % rows == 0:
            return rows
    return 1


def _band_rfft(x: TimeSeries, k0: int, width: int) -> np.ndarray:
    """x's rfft bins [k0, k0 + width), from cache-sized transforms.

    With `_band_rows`' D rows of L = n / D points, one transposing copy
    puts samples p, p + D, ... in row p, and one batch of rffts transforms
    the rows. Bin k is the sum over p of row p's bin k mod L times
    exp(-2*pi*i*k*p/n), by Horner's rule over the rows. A row bin above L/2
    is the conjugate of its mirror, so each run of bins whose residues run
    up to L/2, or down from L to above it, reads one slice of every row: at
    most three runs, nothing gathered. D = 1 is the plain rfft. Bin 0, the
    sum of the row sums, is checked as `_check_bin0` checks it.
    """
    n = len(x)
    rows = _band_rows(n, width)
    if rows == 1:
        spec = np.fft.rfft(x.samples)
        _check_bin0(x, spec[0])
        return spec[k0:k0 + width]
    cols = n // rows
    spectra = np.fft.rfft(  # the copy is freed once the rows are transformed
        np.ascontiguousarray(x.samples.reshape(cols, rows).T), axis=1)
    _check_bin0(x, spectra[:, 0].sum())
    band = np.empty(width, dtype=complex)
    k = k0
    while k < k0 + width:
        m = k % cols
        if 2 * m > cols:  # sum the mirrored bins cols - m, then conjugate
            run = min(k0 + width - k, cols - m)
            terms = spectra[:, cols - m:cols - m - run:-1]
            sign = 1.0
        else:
            run = min(k0 + width - k, cols // 2 + 1 - m)
            terms = spectra[:, m:m + run]
            sign = -1.0
        step = np.exp((sign * 2j * np.pi / n) * np.arange(k, k + run))
        acc = band[k - k0:k - k0 + run]
        acc[...] = terms[rows - 1]
        for p in range(rows - 2, -1, -1):
            acc *= step
            acc += terms[p]
        if sign > 0.0:
            np.conjugate(acc, out=acc)
        k += run
    return band


def _analytic(band: np.ndarray, k0: int, n: int) -> np.ndarray:
    """Weight band, the rfft bins [k0, k0 + B) of n points, in place.

    The analytic weights are 2 strictly between DC and n/2 and 1 at DC and
    at the Nyquist bin of an even n, all over n: the inverses are unscaled.
    """
    if n < 4:
        raise SizeError(f"the analytic signal needs at least 4 samples, got {n}")
    band[max(1 - k0, 0):(n + 1) // 2 - k0] *= 2.0
    band *= 1.0 / n
    return band


def _envelope_into(band: np.ndarray, env: np.ndarray) -> None:
    """Write into env the magnitude of the analytic signal band stands for.

    band holds `_analytic`'s bins [k0, k0 + B) of n = env.size points. With
    `_band_rows`' D rows of L = n / D points, the layout of the forward
    transform, sample q*D + p is, up to a phase, the length-L inverse FFT
    of the bins k times exp(2*pi*i*(k - k0)*p/n), at q: row p is row p - 1
    times one step. D = 1 is one inverse FFT of n points. Otherwise the D
    rows are built L wide, zero past the band, in one complex block, and
    inverse-transformed about `_INVERSE_GROUP` points at a time, each group
    reading its rows in place. Magnitude row p goes into floats
    [p*L, (p+1)*L) of the block, inside complex rows up to p, already read;
    one transposing copy then writes env.
    """
    n, width = env.size, band.size
    rows = _band_rows(n, width)
    if rows == 1:
        np.abs(np.fft.ifft(band, n, norm="forward"), out=env)
        return
    cols = n // rows
    block = np.empty((rows, cols), dtype=complex)
    block[:, width:] = 0.0
    phases = block[:, :width]
    phases[0] = band
    step = np.exp((2j * np.pi / n) * np.arange(width))
    for p in range(1, rows):
        np.multiply(phases[p - 1], step, out=phases[p])
    mags = block.reshape(-1).view(float)[:n].reshape(rows, cols)
    group = max(1, _INVERSE_GROUP // cols)
    for p in range(0, rows, group):
        np.abs(np.fft.ifft(block[p:p + group], axis=1, norm="forward"),
               out=mags[p:p + group])
    env.reshape(cols, rows)[...] = mags.T  # [q, p] is sample q*D + p


def _check_out(out, n: int) -> None:
    """Refuse an `out` buffer `band_envelope` could not fill with n samples."""
    if not isinstance(out, np.ndarray):
        raise InputError(f"out must be a numpy array, got {type(out).__name__}")
    if out.shape != (n,):
        raise SizeError(f"out must be one-dimensional with {n} samples, "
                        f"got shape {out.shape}")
    if out.dtype != np.float64:
        raise InputError(f"out must be a float64 array, got {out.dtype}")
    if not out.flags.writeable:
        raise InputError("out must be a writeable array, got a read-only one")


def band_envelope(x: TimeSeries, b: Band, taper_hz: float | None = None, *,
                  out: np.ndarray | None = None) -> TimeSeries:
    """``envelope(band_filter(x, b, taper_hz))`` from the band's bins only.

    The band mask is applied to the ``rfft`` bins [k0, k0 + B) where it is
    nonzero. With `_band_rows`' D <= 32, `_band_rfft` computes those bins
    alone from D rfft rows of the record's polyphase components, equal to
    the full rfft's to rounding, and `_envelope_into` inverse-transforms
    them alone: D inverse FFTs of n/D points, a few at a time. A prime n
    gives one rfft and one inverse FFT of n points. One transposing copy
    writes the magnitudes into the envelope, which is `out` when given: a
    writeable one-dimensional float64 array of len(x) samples that no one
    else writes, frozen into the result. It is checked before any
    transform: `SizeError` for its shape, `InputError` for its dtype or a
    read-only buffer. At even lengths the result equals the two-step chain
    to rounding; the same edge caveat as for `envelope` applies.
    """
    if out is not None:
        _check_out(out, len(x))
    k0, mask = _band_bins(x, b, taper_hz)
    band = _analytic(_band_rfft(x, k0, mask.size) * mask, k0, len(x))
    env = np.empty(len(x)) if out is None else out
    _envelope_into(band, env)
    return x.with_samples(_Fresh(env), channel=x.channel + "_env")


def envelope_spectrum(x: TimeSeries, b: Band, taper_hz: float | None = None,
                      w: Window = HANN) -> Spectrum:
    """Amplitude spectrum of the demodulated envelope of x.

    Band-filters x, takes the envelope, removes the envelope mean (the DC
    term would otherwise dominate) and returns its amplitude spectrum.
    """
    return amplitude_spectrum(detrend(band_envelope(x, b, taper_hz)), w)
