"""Run configuration: every tunable of the analysis in one JSON document.

Schema (all sections except "cutter" optional):

    {
      "cutter":     {"z": 6, "diameter_mm": 80.0,
                     "feed_per_tooth_mm": 0.1, "cutting_speed_m_min": 340.0},
      "bands":      {"default": {"f_lo_hz": 1500, "f_hi_hz": 2500,
                                 "taper_hz": 50},
                     "ax": {...}},                    # per-channel override
      "thresholds": {"asym_ratio": 0.2, "weak_tooth_drop": 0.3,
                     "ecc_ratio": 0.2, "misalign_ratio": 0.2,
                     "min_carrier": 10.0, "min_revs": 20,
                     "max_rpm_drift": 0.05},
      "sync":       {"samples_per_rev": 1152, "tooth0_offset_frac": 0.0},
      "io":         {"sample_rate_hz": 25000.0,
                     "columns": {"ax": "ax", ...}},   # channel -> CSV column
      "sim":        {"per_tooth_gain": [1,1,1,1,1,1], "rpm": null,
                     "rpm_end": null, "resonance_hz": 2000.0,
                     "damping_ratio": 0.03, "eccentricity": 0.0,
                     "noise_rms": 0.0, "duration_s": 1.5,
                     "sample_rate_hz": 25000.0, "seed": 0},
      "metadata":   {"depth_of_cut_mm": 0.5}    # free-form, echoed in reports
    }
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

from .core import CHANNELS
from .dsp import Band
from .errors import ConfigError
from .millsim import SimConfig
from .pipeline import Cutter, Thresholds, default_samples_per_rev


@dataclass(frozen=True)
class BandSettings:
    f_lo_hz: float
    f_hi_hz: float
    taper_hz: float | None = None

    @property
    def band(self) -> Band:
        return Band(self.f_lo_hz, self.f_hi_hz)


@dataclass(frozen=True)
class RunConfig:
    cutter: Cutter
    bands: dict[str, BandSettings] = field(default_factory=dict)
    thresholds: Thresholds = Thresholds()
    samples_per_rev: int = 0          # 0 resolves from the tooth count
    tooth0_offset_frac: float | None = None   # None: sectors centered on teeth
    sample_rate_hz: float | None = None
    columns: dict[str, str] = field(default_factory=dict)
    sim: SimConfig | None = None
    metadata: dict = field(default_factory=dict)  # free-form, echoed in reports

    def __post_init__(self):
        spr = self.samples_per_rev or default_samples_per_rev(self.cutter.z)
        if spr % self.cutter.z:
            raise ConfigError(
                f"samples_per_rev={spr} is not divisible by z={self.cutter.z}")
        object.__setattr__(self, "samples_per_rev", spr)
        if (self.tooth0_offset_frac is not None
                and not (0.0 <= self.tooth0_offset_frac < 1.0)):
            raise ConfigError(
                f"tooth0_offset_frac must be in [0, 1), got {self.tooth0_offset_frac}")
        for ch in self.columns:
            if ch not in CHANNELS and ch != "time_s":
                raise ConfigError(f"unknown channel {ch!r} in io.columns; "
                                  f"expected one of {CHANNELS}")

    def band_settings(self, channel: str) -> BandSettings:
        bs = self.bands.get(channel) or self.bands.get("default")
        if bs is None:
            raise ConfigError(
                f"no band configured for channel {channel!r} and no default band")
        return bs


def _section(doc: dict, name: str, required: bool = False) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing the required {name!r} section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return sec


def _build(cls, kwargs: dict, what: str):
    try:
        return cls(**kwargs)
    except TypeError as err:
        raise ConfigError(f"invalid {what} settings: {err}") from None


def config_from_dict(doc: dict) -> RunConfig:
    known = {"cutter", "bands", "thresholds", "sync", "io", "sim", "metadata"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")

    cutter = _build(Cutter, _section(doc, "cutter", required=True), "cutter")

    bands = {}
    for ch, entry in _section(doc, "bands").items():
        if ch != "default" and ch not in CHANNELS:
            raise ConfigError(f"band configured for unknown channel {ch!r}")
        if not isinstance(entry, dict):
            raise ConfigError(f"band for {ch!r} must be an object")
        bands[ch] = _build(BandSettings, entry, f"band[{ch}]")
        bands[ch].band  # validate limits eagerly

    thresholds = _build(Thresholds, _section(doc, "thresholds"), "thresholds")

    sync = _section(doc, "sync")
    io_sec = _section(doc, "io")

    sim = None
    sim_sec = dict(_section(doc, "sim"))  # popped below; the caller's dict stays intact
    if sim_sec:
        gains = sim_sec.pop("per_tooth_gain", None)
        if gains is None:
            gains = [1.0] * cutter.z
        sim = _build(SimConfig, {"cutter": cutter,
                                 "per_tooth_gain": tuple(gains), **sim_sec}, "sim")

    offset = sync.get("tooth0_offset_frac")
    return RunConfig(
        cutter=cutter,
        bands=bands,
        thresholds=thresholds,
        samples_per_rev=int(sync.get("samples_per_rev", 0)),
        tooth0_offset_frac=None if offset is None else float(offset),
        sample_rate_hz=(float(io_sec["sample_rate_hz"])
                        if "sample_rate_hz" in io_sec else None),
        columns=dict(io_sec.get("columns", {})),
        sim=sim,
        metadata=copy.deepcopy(_section(doc, "metadata")))


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(doc)
