"""End-to-end envelope analysis and defect classification.

The processing order is fixed: detrend, band-pass around a structural
resonance, Hilbert envelope, resample to shaft angle, synchronous average,
then in parallel (a) per-tooth segmentation of the averaged revolution and
(b) its amplitude spectrum. Classification reads harmonic amplitude ratios
off that spectrum:

* sub-tooth-order harmonics k/rev (k < z) vs the tooth-passing component
  indicate tooth asymmetry,
* a dominant 1/rev component without a weak tooth indicates imbalance or
  eccentricity (indistinguishable from one channel),
* a 2/rev component above the 1/rev one indicates misalignment,
* a tooth whose sector load drops well below the mean is flagged weak.

All trigger thresholds are amplitude ratios, so verdicts are invariant to
signal scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import Spectrum, TimeSeries, detrend
from .dsp import Band, band_filter, envelope
from .errors import (AnalysisError, CoverageError, InputError, RangeError,
                     SizeError)
from .sync import (TachoTrack, ToothProfile, covered_revolutions,
                   resample_to_angle, speed_profile, synchronous_average,
                   tooth_segmentation)

MAX_SPINDLE_RPM = 8000.0

#: Resolution refinement of the averaged-revolution spectrum: the single
#: averaged revolution is tiled this many times before the FFT, so order k
#: lands on bin k*TILE and a +-1 bin readout never touches a neighbouring
#: order.
SPECTRUM_TILE = 8

FINDING_KINDS = ("tooth_asymmetry", "weak_tooth",
                 "imbalance_or_eccentricity", "misalignment")


@dataclass(frozen=True)
class Cutter:
    """Milling cutter and cutting parameters.

    The spindle speed is derived from the cutting speed and diameter:
    rpm = 1000 * v_c / (pi * D) with v_c in m/min and D in mm.
    """

    z: int
    diameter_mm: float
    feed_per_tooth_mm: float
    cutting_speed_m_min: float

    def __post_init__(self):
        if self.z < 1:
            raise RangeError(f"tooth count must be >= 1, got {self.z}")
        for name in ("diameter_mm", "feed_per_tooth_mm", "cutting_speed_m_min"):
            if getattr(self, name) <= 0.0:
                raise RangeError(f"{name} must be positive, got {getattr(self, name)}")
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
    """Classifier thresholds and run requirements; all ratios."""

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
            if getattr(self, name) <= 0.0:
                raise RangeError(f"{name} must be positive, got {getattr(self, name)}")
        if self.min_revs < 1:
            raise RangeError(f"min_revs must be >= 1, got {self.min_revs}")


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
        if self.kind not in FINDING_KINDS:
            raise RangeError(f"unknown finding kind {self.kind!r}")
        if self.amplitude_ratio < 0.0:
            raise RangeError("amplitude_ratio must be non-negative")


@dataclass(frozen=True)
class DefectReport:
    """Classified findings for one channel."""

    channel: str
    f_rot_hz: float
    f_tooth_hz: float
    findings: tuple[Finding, ...]
    tooth_profile: ToothProfile
    warnings: tuple[str, ...] = ()
    inconclusive: bool = False

    def __post_init__(self):
        expected = self.tooth_profile.z * self.f_rot_hz
        if abs(self.f_tooth_hz - expected) > 1e-9 * max(expected, 1.0):
            raise RangeError(
                f"f_tooth_hz {self.f_tooth_hz} inconsistent with "
                f"z * f_rot = {expected}")

    def triggered(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.triggered)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one channel's analysis produced."""

    report: DefectReport
    envelope_spectrum: Spectrum
    averaged_envelope: np.ndarray
    samples_per_rev: int
    mean_rpm: float


def default_samples_per_rev(z: int) -> int:
    """Smallest multiple of z at or above 1024 (sector-divisible grid)."""
    return z * max(2, math.ceil(1024 / z))


def averaged_rev_spectrum(avg_rev, f_rot_hz: float,
                          tile: int = SPECTRUM_TILE) -> Spectrum:
    """Amplitude spectrum of one synchronously averaged revolution.

    The revolution is exactly periodic in angle, so a rectangular window is
    exact. The mean (envelope DC) is removed first. Tiling the revolution
    `tile` times refines the bin grid to f_rot/tile without interpolation;
    order k keeps its exact amplitude at bin k*tile and intermediate bins
    are zero up to roundoff.
    """
    avg = np.asarray(avg_rev, dtype=float)
    if avg.size < 2:
        raise SizeError("averaged revolution needs at least 2 samples")
    if tile < 1:
        raise RangeError(f"tile must be >= 1, got {tile}")
    if f_rot_hz <= 0.0:
        raise RangeError(f"f_rot_hz must be positive, got {f_rot_hz}")
    tiled = np.tile(avg - avg.mean(), tile)
    n_fft = tiled.size
    amps = np.abs(np.fft.rfft(tiled)) * (2.0 / n_fft)
    amps[0] *= 0.5
    if n_fft % 2 == 0:
        amps[-1] *= 0.5
    return Spectrum(amps, f_rot_hz / tile, "rectangular", n_fft)


def classify(env_spec: Spectrum, tooth_profile: ToothProfile, f_rot: float,
             z: int, cfg: Thresholds = Thresholds()
             ) -> tuple[tuple[Finding, ...], bool]:
    """Findings from an envelope spectrum plus tooth profile.

    Returns ``(findings, inconclusive)``. The analysis is inconclusive when
    the tooth-passing component does not rise above the noise floor,
    cfg.min_carrier times the median amplitude over the rotation-harmonic
    bins (only those bins carry signal in a synchronous spectrum).
    Spectrum-based findings are then reported untriggered. Amplitudes are
    read as the maximum over +-1 bin around the target frequency, which
    requires f_rot >= 3 bin widths.
    """
    df = env_spec.df_hz
    if f_rot < 3.0 * df - 1e-12:
        raise RangeError(
            f"spectrum resolution {df} Hz too coarse for f_rot {f_rot} Hz; "
            "need f_rot >= 3 bins")
    carrier, _ = env_spec.amplitude_near(z * f_rot)
    # noise floor from the rotation harmonics surrounding the carrier; the
    # envelope rolls off at high orders, so distant bins would understate it
    k_max = int((env_spec.amplitudes.size - 2) * df / f_rot)
    k_hi = min(k_max, max(3 * z, 8))
    order_amps = [env_spec.amplitude_near(k * f_rot)[0]
                  for k in range(1, max(k_hi, z) + 1)]
    noise_floor = cfg.min_carrier * float(np.median(order_amps))
    inconclusive = carrier <= noise_floor

    def ratio_of(amp: float) -> float:
        return amp / carrier if carrier > 0.0 else 0.0

    findings: list[Finding] = []

    # sub-tooth-order harmonics k/rev, k = 1 .. z-1
    if z >= 2:
        amps = [env_spec.amplitude_near(k * f_rot) for k in range(1, z)]
        best = int(np.argmax([a for a, _ in amps]))
        amp_k, freq_k = amps[best]
        r = ratio_of(amp_k)
        findings.append(Finding(
            "tooth_asymmetry", freq_k, r, cfg.asym_ratio,
            triggered=bool(not inconclusive and r >= cfg.asym_ratio)))

    drops = -tooth_profile.asymmetry_index
    weak = np.flatnonzero(drops >= cfg.weak_tooth_drop)
    any_weak = weak.size > 0
    if any_weak:
        for i in weak.tolist():
            findings.append(Finding(
                "weak_tooth", f_rot, float(drops[i]), cfg.weak_tooth_drop,
                triggered=True, tooth_index=int(i)))
    else:
        worst = int(np.argmax(drops))
        findings.append(Finding(
            "weak_tooth", f_rot, max(float(drops[worst]), 0.0),
            cfg.weak_tooth_drop, triggered=False, tooth_index=worst))

    if z >= 2:
        amp1, freq1 = env_spec.amplitude_near(1.0 * f_rot)
        r1 = ratio_of(amp1)
        findings.append(Finding(
            "imbalance_or_eccentricity", freq1, r1, cfg.ecc_ratio,
            triggered=bool(not inconclusive and not any_weak
                           and r1 >= cfg.ecc_ratio)))
        if z >= 3:
            amp2, freq2 = env_spec.amplitude_near(2.0 * f_rot)
            r2 = ratio_of(amp2)
            findings.append(Finding(
                "misalignment", freq2, r2, cfg.misalign_ratio,
                triggered=bool(not inconclusive and amp2 > amp1
                               and r2 >= cfg.misalign_ratio)))

    return tuple(findings), bool(inconclusive)


def analyze(x: TimeSeries, tacho: TachoTrack, cutter: Cutter, band: Band,
            cfg: Thresholds = Thresholds(), *,
            taper_hz: float | None = None,
            samples_per_rev: int | None = None,
            tooth0_offset_frac: float | None = None) -> AnalysisResult:
    """Full envelope analysis of one channel.

    Pipeline: detrend -> band_filter -> envelope -> resample_to_angle ->
    synchronous_average, then tooth segmentation and the averaged-revolution
    amplitude spectrum feed the classifier. Frequencies are reported in Hz
    using the mean spindle speed over the averaged revolutions; a speed
    drift beyond cfg.max_rpm_drift attaches a warning rather than failing.

    With the default ``tooth0_offset_frac=None`` each tooth sector is
    centered on its impact angle (tooth 0 at the tacho pulse): the zero-phase
    filter spreads energy symmetrically, so sectors that start exactly at
    the impact would leak half of a tooth's pulse into its neighbour. Pass
    an explicit offset in [0, 1) to place sector boundaries yourself.
    """
    z = cutter.z
    if tooth0_offset_frac is None:
        tooth0_offset_frac = (1.0 - 0.5 / z) % 1.0
    if samples_per_rev is None:
        samples_per_rev = default_samples_per_rev(z)
    if samples_per_rev % z:
        raise SizeError(
            f"samples_per_rev={samples_per_rev} is not divisible by z={z}; "
            f"use a multiple of {z} (e.g. {default_samples_per_rev(z)})")

    covered = covered_revolutions(x, tacho)
    if covered.size < cfg.min_revs:
        raise CoverageError(
            f"signal covers {covered.size} complete revolution(s); "
            f"need at least {cfg.min_revs}")

    env = envelope(band_filter(detrend(x), band, taper_hz))
    angular = resample_to_angle(env, tacho, samples_per_rev)
    avg = synchronous_average(angular)
    profile = tooth_segmentation(avg, z, tooth0_offset_frac)

    speeds = speed_profile(tacho)[covered, 1]
    mean_rpm = float(speeds.mean())
    warnings = []
    drift = float((speeds.max() - speeds.min()) / mean_rpm)
    if drift > cfg.max_rpm_drift:
        warnings.append(
            f"spindle speed drifts {100 * drift:.1f}% across the record "
            f"(limit {100 * cfg.max_rpm_drift:.1f}%); order tracking absorbs "
            "the drift but Hz readings use the mean speed")

    f_rot = mean_rpm / 60.0
    env_spec = averaged_rev_spectrum(avg, f_rot)
    findings, inconclusive = classify(env_spec, profile, f_rot, z, cfg)
    report = DefectReport(
        channel=x.channel, f_rot_hz=f_rot, f_tooth_hz=z * f_rot,
        findings=findings, tooth_profile=profile,
        warnings=tuple(warnings), inconclusive=inconclusive)
    return AnalysisResult(report, env_spec, avg, samples_per_rev, mean_rpm)


def _for_channel(setting, channel: str, what: str):
    """`setting` itself, or its entry for `channel` if it is a mapping."""
    if not isinstance(setting, Mapping):
        return setting
    if channel not in setting:
        raise InputError(f"no {what} configured for channel {channel!r}")
    return setting[channel]


def analyze_all_channels(channels: Iterable[TimeSeries], tacho: TachoTrack,
                         cutter: Cutter, bands: Band | Mapping[str, Band],
                         cfg: Thresholds = Thresholds(), *,
                         taper_hz: float | None | Mapping[str, float | None] = None,
                         **kwargs
                         ) -> tuple[dict[str, AnalysisResult], dict[str, AnalysisError]]:
    """Run `analyze` on every channel; failures do not abort the others.

    `bands` and `taper_hz` each hold one value for all channels or a
    mapping from channel label to value; a channel missing from a mapping
    is an InputError. Returns ``(results, errors)`` keyed by channel label.
    """
    results: dict[str, AnalysisResult] = {}
    errors: dict[str, AnalysisError] = {}
    for ts in channels:
        try:
            results[ts.channel] = analyze(
                ts, tacho, cutter, _for_channel(bands, ts.channel, "band"),
                cfg, taper_hz=_for_channel(taper_hz, ts.channel, "taper"),
                **kwargs)
        except AnalysisError as err:
            errors[ts.channel] = err
    return results, errors
