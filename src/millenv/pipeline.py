"""End-to-end envelope analysis and defect classification.

The processing order is fixed: band-pass around a structural resonance,
Hilbert envelope, then the envelope resampled to shaft angle and averaged
over the revolutions block by block, so no angular series of the whole
record is built; then in parallel (a) per-tooth segmentation of the
averaged revolution and (b) its amplitude spectrum, whose bin k is rotation
order k. The mean is removed first only when the band reaches 0 Hz; any
other band mask zeroes bin 0 already. Classification reads harmonic
amplitude ratios straight off those order bins:

* sub-tooth-order harmonics k/rev (k < z) vs the tooth-passing component
  indicate tooth asymmetry,
* a dominant 1/rev component without a weak tooth indicates imbalance or
  eccentricity (indistinguishable from one channel),
* a 2/rev component above the 1/rev one indicates misalignment,
* a tooth whose sector load drops well below the mean is flagged weak.

All trigger thresholds are amplitude ratios, so verdicts are invariant to
signal scaling. `analyze_all_channels` computes the envelopes one channel
per task on up to min(channels, usable CPUs) threads, then hands each
plan's envelopes to `RevolutionPlan.average`, which splits the synchronous
average by angle column over the usable CPUs, so each interpolation tap is
computed once per call. No result depends on the number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping

import numpy as np

from .core import (Spectrum, TimeSeries, _count, _on_workers, _readonly_1d,
                   _require_finite, _usable_cpus, detrend)
# `band_filter`, `envelope`, `resample_to_angle` and `synchronous_average`
# are not called here, and `detrend` only for a band that reaches 0 Hz;
# bench/spans.py patches them by these names
from .dsp import (Band, _one_sided_amplitudes, band_envelope, band_filter,
                  envelope)
from .errors import (AnalysisError, CoverageError, InputError, RangeError,
                     SizeError)
from .sync import (RevolutionPlan, TachoTrack, ToothProfile, _check_offset,
                   resample_to_angle, revolution_plan, synchronous_average,
                   tooth_segmentation)

MAX_SPINDLE_RPM = 8000.0

#: Finding kinds and the evidence each reads: a convention, not a measured
#: fact, so reports carry it for readers to audit each evidence frequency.
SIGNATURE_MAP = {
    "tooth_asymmetry": "k x f_rot for k = 1..z-1, vs the z x f_rot carrier",
    "weak_tooth": "per-tooth load drop in the averaged-envelope profile",
    "imbalance_or_eccentricity": "1 x f_rot (single-channel ambiguous)",
    "misalignment": "2 x f_rot exceeding 1 x f_rot",
}


@dataclass(frozen=True)
class Cutter:
    """Milling cutter and cutting parameters.

    The spindle speed is derived from the cutting speed and diameter:
    rpm = 1000 * v_c / (pi * D) with v_c in m/min and D in mm. A `z` that
    is not a whole number >= 1, or another value not finite and positive,
    is a RangeError.
    """

    z: int
    diameter_mm: float
    feed_per_tooth_mm: float
    cutting_speed_m_min: float

    def __post_init__(self):
        object.__setattr__(self, "z", _count(self.z, "tooth count", 1))
        for name in ("diameter_mm", "feed_per_tooth_mm", "cutting_speed_m_min"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise RangeError(
                    f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.rpm > MAX_SPINDLE_RPM:
            raise RangeError(
                f"derived spindle speed {self.rpm:.1f} rpm exceeds the machine "
                f"maximum {MAX_SPINDLE_RPM:.0f} rpm")

    @property
    def rpm(self) -> float:
        return 1000.0 * self.cutting_speed_m_min / (math.pi * self.diameter_mm)

    @property
    def rotation_hz(self) -> float:
        return self.rpm / 60.0

    @property
    def tooth_passing_hz(self) -> float:
        return self.z * self.rotation_hz


@dataclass(frozen=True)
class Thresholds:
    """Classifier thresholds, finite positive ratios, and a whole min_revs >= 1."""

    asym_ratio: float = 0.2
    weak_tooth_drop: float = 0.3
    ecc_ratio: float = 0.2
    misalign_ratio: float = 0.2
    min_carrier: float = 10.0
    min_revs: int = 20
    max_rpm_drift: float = 0.05

    def __post_init__(self):
        for name in ("asym_ratio", "weak_tooth_drop", "ecc_ratio",
                     "misalign_ratio", "min_carrier", "max_rpm_drift"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise RangeError(
                    f"{name} must be finite and positive, got {getattr(self, name)}")
        object.__setattr__(self, "min_revs", _count(self.min_revs, "min_revs", 1))


@dataclass(frozen=True)
class Finding:
    """One classified defect candidate with its evidence.

    ``amplitude_ratio`` is the measured statistic, compared against
    ``threshold`` to set ``triggered``. ``tooth_index`` is filled for
    weak-tooth findings only.
    """

    kind: str
    evidence_freq_hz: float
    amplitude_ratio: float
    threshold: float
    triggered: bool
    tooth_index: int | None = None

    def __post_init__(self):
        if self.kind not in SIGNATURE_MAP:
            raise RangeError(f"unknown finding kind {self.kind!r}")
        if self.amplitude_ratio < 0.0:
            raise RangeError("amplitude_ratio must be non-negative")


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """One channel's verdict at mean spindle speed mean_rpm: the classified
    findings, the tooth profile and the averaged revolution behind them."""

    channel: str
    mean_rpm: float
    findings: tuple[Finding, ...]
    tooth_profile: ToothProfile
    averaged_envelope: np.ndarray
    warnings: tuple[str, ...] = ()
    inconclusive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "averaged_envelope", _readonly_1d(
            self.averaged_envelope, "averaged_envelope"))

    @property
    def f_rot_hz(self) -> float:
        return self.mean_rpm / 60.0

    @property
    def f_tooth_hz(self) -> float:
        return self.tooth_profile.z * self.f_rot_hz

    @property
    def samples_per_rev(self) -> int:
        return self.averaged_envelope.size

    @property
    def envelope_spectrum(self) -> Spectrum:
        """The averaged revolution's spectrum, whose bin k is rotation order k."""
        return averaged_rev_spectrum(self.averaged_envelope, self.f_rot_hz)


def default_samples_per_rev(z: int) -> int:
    """Smallest multiple of z at or above 1024 (sector-divisible grid)."""
    return z * max(2, math.ceil(1024 / z))


def averaged_rev_spectrum(avg_rev, f_rot_hz: float) -> Spectrum:
    """Amplitude spectrum of one synchronously averaged revolution.

    The revolution is exactly periodic in angle, so a rectangular window is
    exact and bin k holds rotation order k: ``df_hz`` is ``f_rot_hz``. The
    mean (envelope DC) is removed first.
    """
    avg = np.asarray(avg_rev, dtype=float)
    if avg.size < 2:
        raise SizeError("averaged revolution needs at least 2 samples")
    if f_rot_hz <= 0.0:
        raise RangeError(f"f_rot_hz must be positive, got {f_rot_hz}")
    return Spectrum(_one_sided_amplitudes(avg - avg.mean(), avg.size),
                    f_rot_hz, avg.size)


def classify(env_spec: Spectrum, tooth_profile: ToothProfile,
             cfg: Thresholds = Thresholds()
             ) -> tuple[tuple[Finding, ...], bool]:
    """Findings from an averaged-revolution spectrum plus tooth profile.

    `env_spec` is `averaged_rev_spectrum`'s: bin k is rotation order k, so
    f_rot is its bin width. The tooth count z is the profile's; a carrier
    order z beyond the last bin is a RangeError. The order table is bins
    1 .. max(min((n_fft - 1) // 2, max(3z, 8)), z): the orders below the
    revolution's Nyquist order, capped at max(3z, 8) but never below z. The
    carrier is order z; tooth asymmetry reads the largest order below z,
    imbalance order 1 and misalignment order 2. Returns ``(findings,
    inconclusive)``: inconclusive when the carrier does not exceed the noise
    floor, cfg.min_carrier times the median of the table (only rotation
    harmonics carry signal in a synchronous spectrum, and the envelope rolls
    off at high orders, so the orders near the carrier set the floor).
    Spectrum-based findings are then reported untriggered.
    """
    f_rot = env_spec.df_hz
    z = tooth_profile.z
    if z >= env_spec.amplitudes.size:
        raise RangeError(
            f"carrier order {z} lies beyond the spectrum's last order "
            f"{env_spec.amplitudes.size - 1}")
    n_orders = max(min((env_spec.n_fft - 1) // 2, max(3 * z, 8)), z)
    amps = env_spec.amplitudes[1:n_orders + 1].tolist()
    carrier = amps[z - 1]
    inconclusive = carrier <= cfg.min_carrier * float(np.median(amps))

    def spectral(kind: str, order: int, threshold: float, gate: bool) -> Finding:
        r = amps[order - 1] / carrier if carrier > 0.0 else 0.0
        return Finding(kind, order * f_rot, r, threshold,
                       triggered=bool(not inconclusive and gate
                                      and r >= threshold))

    findings: list[Finding] = []
    if z >= 2:
        findings.append(spectral("tooth_asymmetry",
                                 1 + int(np.argmax(amps[:z - 1])),
                                 cfg.asym_ratio, True))

    # every weak tooth, or else the least loaded one, untriggered
    drops = -tooth_profile.asymmetry_index
    weak = np.flatnonzero(drops >= cfg.weak_tooth_drop).tolist()
    any_weak = bool(weak)
    for i in weak or [int(np.argmax(drops))]:
        findings.append(Finding(
            "weak_tooth", f_rot, max(float(drops[i]), 0.0),
            cfg.weak_tooth_drop, triggered=any_weak, tooth_index=i))

    if z >= 2:
        findings.append(spectral("imbalance_or_eccentricity", 1,
                                 cfg.ecc_ratio, not any_weak))
    if z >= 3:
        findings.append(spectral("misalignment", 2, cfg.misalign_ratio,
                                 amps[1] > amps[0]))
    return tuple(findings), bool(inconclusive)


def analyze(x: TimeSeries, tacho: TachoTrack, cutter: Cutter, band: Band,
            cfg: Thresholds = Thresholds(), *,
            taper_hz: float | None = None,
            samples_per_rev: int | None = None,
            tooth0_offset_frac: float | None = None) -> AnalysisResult:
    """Full envelope analysis of one channel.

    Pipeline: band_envelope (of the detrended channel when the band reaches
    0 Hz) -> synchronous average over the revolution plan, block by block
    with no resampled series of the whole record; then tooth segmentation
    and the averaged-revolution amplitude spectrum feed the classifier.
    Frequencies are reported in Hz using the mean spindle speed over the
    averaged revolutions; a speed drift beyond cfg.max_rpm_drift attaches a
    warning rather than failing.

    With the default ``tooth0_offset_frac=None`` each tooth sector is
    centered on its impact angle (tooth 0 at the tacho pulse): the zero-phase
    filter spreads energy symmetrically, so sectors that start exactly at
    the impact would leak half of a tooth's pulse into its neighbour. Pass
    an explicit offset in [0, 1) to place sector boundaries yourself.

    A non-finite sample is an InputError that names the channel and the
    first bad sample index.
    """
    results, errors = analyze_all_channels(
        [x], tacho, cutter, band, cfg, taper_hz=taper_hz,
        samples_per_rev=samples_per_rev, tooth0_offset_frac=tooth0_offset_frac)
    if errors:
        raise errors[x.channel]
    return results[x.channel]


def _for_channel(setting, channel: str, what: str):
    """`setting` itself, or its entry for `channel` if it is a mapping."""
    if not isinstance(setting, Mapping):
        return setting
    if channel not in setting:
        raise InputError(f"no {what} configured for channel {channel!r}")
    return setting[channel]


@dataclass(frozen=True, eq=False)
class _Job:
    """One channel that passed every check before its envelope."""

    index: int
    ts: TimeSeries
    band: Band
    taper: float | None
    plan: RevolutionPlan
    envelope: np.ndarray


def analyze_all_channels(channels: Iterable[TimeSeries], tacho: TachoTrack,
                         cutter: Cutter, bands: Band | Mapping[str, Band],
                         cfg: Thresholds = Thresholds(), *,
                         taper_hz: float | None | Mapping[str, float | None] = None,
                         samples_per_rev: int | None = None,
                         tooth0_offset_frac: float | None = None
                         ) -> tuple[dict[str, AnalysisResult], dict[str, AnalysisError]]:
    """`analyze` every channel against one tacho; failures do not abort the others.

    `bands` and `taper_hz` each hold one value for all channels or a
    mapping from channel label to value; a channel missing from a mapping
    is an InputError. Channels of one record length and rate share one
    `RevolutionPlan`. The checks and plans run on the calling thread.
    The envelopes run one channel per task on min(channels, usable CPUs)
    workers, the calling thread one of them; `RevolutionPlan.average` then
    averages each plan's channels, and the verdicts run on the calling
    thread. No result depends on the number of workers.
    Returns ``(results, errors)`` keyed by channel, in the channels' order.
    """
    z = cutter.z
    if tooth0_offset_frac is None:
        tooth0_offset_frac = (1.0 - 0.5 / z) % 1.0
    if samples_per_rev is None:
        samples_per_rev = default_samples_per_rev(z)
    channels = list(channels)
    outcomes: list[AnalysisResult | AnalysisError | None] = [None] * len(channels)
    jobs: list[_Job] = []
    plans: dict[tuple[int, float], RevolutionPlan] = {}
    for index, ts in enumerate(channels):
        try:
            band = _for_channel(bands, ts.channel, "band")
            taper = _for_channel(taper_hz, ts.channel, "taper")
            _require_finite(ts)
            _check_offset(tooth0_offset_frac)
            shape = (len(ts), ts.sample_rate_hz)
            if shape not in plans:
                plans[shape] = revolution_plan(ts, tacho, samples_per_rev)
            plan = plans[shape]
            if samples_per_rev % z:
                raise SizeError(
                    f"samples_per_rev={samples_per_rev} is not divisible by z={z}; "
                    f"use a multiple of {z} (e.g. {default_samples_per_rev(z)})")
            if plan.revs.size < cfg.min_revs:
                raise CoverageError(
                    f"signal covers {plan.revs.size} complete revolution(s); "
                    f"need at least {cfg.min_revs}")
        except AnalysisError as err:
            outcomes[index] = err
            continue
        # allocated here, not on a worker: a worker allocates from a heap of
        # its own, which read about 3 MB more peak RSS on a 20 s record
        jobs.append(_Job(index, ts, band, taper, plan, np.empty(len(ts))))

    def envelope_of(job: _Job) -> None:
        try:
            # a band mask that is zero at 0 Hz removes the mean already
            dc = job.band.f_lo_hz == 0.0 and job.taper == 0.0
            band_envelope(detrend(job.ts) if dc else job.ts, job.band,
                          job.taper, out=job.envelope)
        except AnalysisError as err:
            outcomes[job.index] = err

    _on_workers([partial(envelope_of, job) for job in jobs], _usable_cpus())
    groups: dict[RevolutionPlan, list[_Job]] = {}
    for job in jobs:
        if outcomes[job.index] is None:
            groups.setdefault(job.plan, []).append(job)
    for plan, group in groups.items():
        mean_rpm = float(plan.rpm.mean())
        drift = float((plan.rpm.max() - plan.rpm.min()) / mean_rpm)
        warnings = () if drift <= cfg.max_rpm_drift else (
            f"spindle speed drifts {100 * drift:.1f}% across the record "
            f"(limit {100 * cfg.max_rpm_drift:.1f}%); order tracking "
            "absorbs the drift but Hz readings use the mean speed",)
        averages = plan.average([job.envelope for job in group])
        for job, avg in zip(group, averages):
            try:
                profile = tooth_segmentation(avg, z, tooth0_offset_frac)
                findings, inconclusive = classify(
                    averaged_rev_spectrum(avg, mean_rpm / 60.0),
                    profile, cfg)
                outcomes[job.index] = AnalysisResult(
                    job.ts.channel, mean_rpm, findings, profile, avg,
                    warnings, inconclusive)
            except AnalysisError as err:
                outcomes[job.index] = err
    results: dict[str, AnalysisResult] = {}
    errors: dict[str, AnalysisError] = {}
    for ts, outcome in zip(channels, outcomes):
        if isinstance(outcome, AnalysisError):
            errors[ts.channel] = outcome
        else:
            results[ts.channel] = outcome
    return results, errors
