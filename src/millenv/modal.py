"""Impact-test characterization: H1 frequency response and band proposal.

Averaged hammer-impact records give the structure's frequency response
(H1 estimator) plus coherence; the highest coherent resonance peaks are
turned into demodulation band suggestions for the envelope pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, _readonly_1d
from .dsp import Band
from .errors import InputError, RangeError, SizeError

TRIGGER_FRAC = 0.05          # an impact starts where |force| reaches this x peak
PRE_FRAC = 0.10              # record share kept before an impact's trigger
EXCITED_FLOOR_REL = 1e-3     # force power below this x max marks unexcited bins
MIN_COHERENCE = 0.9          # coherence a proposed band's peak must keep


@dataclass(frozen=True)
class ImpactRecord:
    """One hammer hit: force channel plus one response channel."""

    force: TimeSeries
    response: TimeSeries

    def __post_init__(self):
        if self.force.sample_rate_hz != self.response.sample_rate_hz:
            raise InputError(
                f"force is sampled at {self.force.sample_rate_hz} Hz but the "
                f"response at {self.response.sample_rate_hz} Hz")
        if len(self.force) != len(self.response):
            raise InputError(
                f"force has {len(self.force)} samples, response {len(self.response)}")
        if float(np.max(np.abs(self.force.samples))) <= 0.0:
            raise InputError("force record carries no impulse (zero energy)")


@dataclass(frozen=True, eq=False)
class Frf:
    """H1 frequency response with coherence.

    ``h1[k]`` is response/force at frequency k * df_hz. ``coherence`` lies in
    [0, 1]; with a single average it is identically 1 and carries no
    information (check ``n_averages``). ``force_power`` is the averaged
    force auto-spectrum: bins where it is negligible were never excited and
    carry no valid response estimate. ``response_decay_per_s`` records the
    artificial damping added by the exponential response window, if any.
    """

    h1: np.ndarray
    coherence: np.ndarray
    df_hz: float
    n_averages: int = 1
    force_power: np.ndarray | None = None
    response_decay_per_s: float | None = None

    def __post_init__(self):
        h = np.array(self.h1, dtype=complex)
        h.setflags(write=False)
        coh = _readonly_1d(self.coherence, "coherence")
        if h.ndim != 1 or h.size != coh.size:
            raise SizeError("h1 and coherence must be 1-D and the same length")
        if np.any(coh < -1e-9) or np.any(coh > 1.0 + 1e-9):
            raise RangeError("coherence must lie in [0, 1]")
        if self.df_hz <= 0.0:
            raise RangeError(f"df_hz must be positive, got {self.df_hz}")
        object.__setattr__(self, "h1", h)
        object.__setattr__(self, "coherence", coh)
        if self.force_power is not None:
            fp = _readonly_1d(self.force_power, "force_power")
            if fp.size != h.size:
                raise SizeError("force_power must match h1 in length")
            object.__setattr__(self, "force_power", fp)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.arange(self.h1.size) * self.df_hz

    def excited_bins(self) -> np.ndarray:
        """Mask of bins the impacts actually excited (force power at least
        EXCITED_FLOOR_REL of its maximum). All-true when it is unknown."""
        if self.force_power is None:
            return np.ones(self.h1.size, dtype=bool)
        return self.force_power >= EXCITED_FLOOR_REL * float(self.force_power.max())


def _force_gate(force: np.ndarray, decay_frac: float) -> np.ndarray:
    """Rectangular gate from the trigger to where the force dies out."""
    mag = np.abs(force)
    peak = float(mag.max())
    start = int(np.argmax(mag >= TRIGGER_FRAC * peak))
    peak_idx = int(np.argmax(mag))
    after = np.flatnonzero(mag[peak_idx:] < decay_frac * peak)
    stop = peak_idx + int(after[0]) if after.size else force.size
    gate = np.zeros_like(force)
    gate[start:stop] = force[start:stop]
    return gate


def estimate_frf(impacts, *, force_gate_frac: float | None = 0.01,
                 response_decay_end: float | None = 0.05) -> Frf:
    """H1 frequency response from averaged impact records.

    H1 = <cross-spectrum(force, response)> / <auto-spectrum(force)>, averaged
    over all unwindowed records; coherence = |<S_fx>|^2 / (<S_ff> <S_xx>).

    By default each force record is gated from its trigger (TRIGGER_FRAC of
    peak) to where it decays below ``force_gate_frac`` of peak, and each
    response gets an exponential window decaying to ``response_decay_end``
    at the end of the record; the added damping is reported on the result.
    Pass None to disable either window for records already leakage-free.
    """
    impacts = list(impacts)
    if not impacts:
        raise InputError("need at least one impact record")
    rate = impacts[0].force.sample_rate_hz
    n = len(impacts[0].force)
    for rec in impacts:
        if rec.force.sample_rate_hz != rate or len(rec.force) != n:
            raise InputError("impact records must share one sample rate and length")

    exp_win = None
    decay_per_s = None
    if response_decay_end is not None:
        alpha = -np.log(response_decay_end) / (n - 1)
        exp_win = np.exp(-alpha * np.arange(n))
        decay_per_s = alpha * rate

    n_bins = n // 2 + 1
    s_ff = np.zeros(n_bins)
    s_xx = np.zeros(n_bins)
    s_fx = np.zeros(n_bins, dtype=complex)
    for rec in impacts:
        f = rec.force.samples
        if force_gate_frac is not None:
            f = _force_gate(f, force_gate_frac)
        x = rec.response.samples
        if exp_win is not None:
            x = x * exp_win
        spec_f = np.fft.rfft(f)
        spec_x = np.fft.rfft(x)
        s_ff += np.abs(spec_f) ** 2
        s_xx += np.abs(spec_x) ** 2
        s_fx += np.conj(spec_f) * spec_x

    if float(s_ff.max()) <= 0.0:
        raise InputError("force records carry no spectral energy after gating")
    excited = s_ff > 0.0
    h1 = np.zeros(n_bins, dtype=complex)
    h1[excited] = s_fx[excited] / s_ff[excited]
    coh = np.zeros(n_bins)
    denom = s_ff * s_xx
    ok = denom > 0.0
    coh[ok] = np.abs(s_fx[ok]) ** 2 / denom[ok]
    np.clip(coh, 0.0, 1.0, out=coh)
    return Frf(h1, coh, rate / n, n_averages=len(impacts),
               force_power=s_ff / len(impacts),
               response_decay_per_s=decay_per_s)


def _half_power_edges(mag: np.ndarray, peak: int, df: float) -> tuple[float, float]:
    """-3 dB band edges around the peak bin, linearly interpolated."""
    target = mag[peak] / np.sqrt(2.0)
    below = np.flatnonzero(mag < target)
    left, right = below[below < peak], below[below > peak]
    lo, hi = 0.0, (mag.size - 1) * df
    if left.size:
        j = left[-1]
        frac = (mag[j + 1] - target) / (mag[j + 1] - mag[j])
        lo = (j + 1 - frac) * df
    if right.size:
        j = right[0]
        frac = (mag[j - 1] - target) / (mag[j - 1] - mag[j])
        hi = (j - 1 + frac) * df
    return lo, hi


def propose_bands(frf: Frf, n_bands: int = 1) -> list[Band]:
    """Demodulation bands around the strongest coherent resonance peaks.

    Only bins the impacts actually excited are considered (see
    ``Frf.excited_bins``). Local maxima of |H1| are ranked by magnitude
    (ties broken by lower frequency). A candidate must keep coherence >=
    MIN_COHERENCE across a small neighbourhood (isolated bins beat the gate
    by chance with few averages) and must stand well above the valid-bin
    median (a flat response has no resonance to propose). Each selected
    peak spans its half-power (-3 dB) width, widened to at least 10 bins;
    candidates overlapping an already selected band are skipped so the
    result is pairwise disjoint. Returns an empty list when nothing
    qualifies.
    """
    if n_bands < 1:
        raise RangeError(f"n_bands must be >= 1, got {n_bands}")
    mag = np.abs(frf.h1)
    df = frf.df_hz
    nyq = (mag.size - 1) * df
    valid = (frf.coherence >= MIN_COHERENCE) & frf.excited_bins()
    hood = np.ones(5)
    valid_hood = np.convolve(valid.astype(float), hood, "same") >= np.minimum(
        np.convolve(np.ones(mag.size), hood, "same"), hood.size)
    interior = np.arange(1, mag.size - 1)
    is_peak = (mag[interior] > mag[interior - 1]) & (mag[interior] > mag[interior + 1])
    floor = 2.0 * float(np.median(mag[valid])) if np.any(valid) else np.inf
    peaks = interior[is_peak & valid_hood[interior] & (mag[interior] >= floor)]
    if peaks.size == 0:
        return []
    order = sorted(peaks.tolist(), key=lambda k: (-mag[k], k))

    bands: list[Band] = []
    for k in order:
        if len(bands) >= n_bands:
            break
        lo, hi = _half_power_edges(mag, k, df)
        half_min = 5.0 * df  # total width at least 10 bins
        center = k * df
        lo = min(lo, center - half_min)
        hi = max(hi, center + half_min)
        lo = max(lo, 0.5 * df)
        hi = min(hi, nyq)
        if hi <= lo:
            continue
        if any(b.f_lo_hz < hi and lo < b.f_hi_hz for b in bands):
            continue
        bands.append(Band(lo, hi))
    return bands


def split_impacts(force: TimeSeries, response: TimeSeries) -> list[ImpactRecord]:
    """Cut a continuous hammer/response recording into per-impact records.

    Trigger points are rising crossings of TRIGGER_FRAC of the global force
    peak; each record starts PRE_FRAC of its length before the trigger. The
    record length is the smallest trigger spacing, so records never
    overlap, and the last record must fit before the end of the recording.
    """
    mag = np.abs(force.samples)
    level = TRIGGER_FRAC * float(mag.max())
    if level <= 0.0:
        raise InputError("force channel carries no impulses")
    above = mag >= level
    rises = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    if above[0]:
        rises = np.insert(rises, 0, 0)
    # collapse crossings that belong to one hit (ringing within the pulse)
    min_sep = max(1, int(0.01 * force.sample_rate_hz))
    triggers = [int(rises[0])] if rises.size else []
    for r in rises[1:]:
        if r - triggers[-1] >= min_sep:
            triggers.append(int(r))
    if not triggers:
        raise InputError("no force triggers found")
    gaps = list(np.diff(triggers)) if len(triggers) > 1 else []
    gaps.append(int((len(force) - triggers[-1]) / (1.0 - PRE_FRAC)))
    record_len = int(min(gaps))
    pre = int(PRE_FRAC * record_len)
    records = []
    for trig in triggers:
        start = max(trig - pre, 0)
        stop = start + record_len
        if stop > len(force):
            break
        records.append(ImpactRecord(
            force.with_samples(force.samples[start:stop]),
            response.with_samples(response.samples[start:stop])))
    if not records:
        raise InputError(
            f"no trigger leaves room for a {record_len}-sample record")
    return records
