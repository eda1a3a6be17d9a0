"""Envelope analysis of milling vibration and force signals.

A library plus CLI for quantifying per-tooth cutting load and spotting
cutter defects: band-pass demodulation around a structural resonance,
tachometer-locked order tracking and synchronous averaging, per-tooth load
profiles and a ratio-based defect classifier, validated against a built-in
cutter simulator with known ground truth.
"""

__version__ = "0.1.0"

from .core import CHANNELS, Spectrum, TimeSeries, detrend, rms, slice_time
from .dsp import (HANN, RECTANGULAR, Band, Window, amplitude_spectrum,
                  analytic_signal, band_filter, envelope, envelope_spectrum)
from .errors import (AnalysisError, ConfigError, CoverageError, InputError,
                     ParseError, PulseDetectionError, PulseQualityError,
                     RangeError, SizeError)
from .millsim import SimConfig, SimOutput, SimTruth, simulate
from .modal import Frf, ImpactRecord, estimate_frf, propose_bands, split_impacts
from .pipeline import (AnalysisResult, Cutter, Finding, Gate, Thresholds,
                       analyze, analyze_all_channels, averaged_rev_spectrum,
                       classify)
from .sync import (TachoTrack, ToothProfile, detect_pulses, resample_to_angle,
                   speed_profile, synchronous_average, tooth_segmentation)

__all__ = [
    "AnalysisError", "AnalysisResult", "Band", "CHANNELS",
    "ConfigError", "CoverageError", "Cutter", "Finding", "Frf", "Gate", "HANN",
    "ImpactRecord", "InputError", "ParseError", "PulseDetectionError",
    "PulseQualityError", "RECTANGULAR", "RangeError", "SimConfig",
    "SimOutput", "SimTruth", "SizeError", "Spectrum", "TachoTrack",
    "Thresholds", "TimeSeries", "ToothProfile", "Window",
    "amplitude_spectrum", "analytic_signal", "analyze",
    "analyze_all_channels", "averaged_rev_spectrum", "band_filter",
    "classify", "detect_pulses", "detrend", "envelope", "envelope_spectrum",
    "estimate_frf", "propose_bands", "resample_to_angle", "rms",
    "simulate", "slice_time", "speed_profile", "split_impacts",
    "synchronous_average", "tooth_segmentation",
]
