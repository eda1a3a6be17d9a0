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

Every number, sim.per_tooth_gain's included, must be a finite JSON number
("6", "0.2" and true are not) and is kept as written: a threshold of 10 is
reported as 10. Each key converts by the annotation of the dataclass field
it fills, so the `int` fields (cutter.z, thresholds.min_revs, sim.seed,
sync.samples_per_rev) must be whole: 6.0 reads as 6. A null means "unset"
only for keys whose default is unset (bands taper_hz, sim.rpm, sim.rpm_end,
sync and io numbers, sim.per_tooth_gain); elsewhere it is an error naming
the key. "sync" and "io" accept only the keys shown above. io.columns must
map channels to column-name strings. A value out of range, such as a
taper_hz above half its band, a non-positive threshold, a non-positive
io.sample_rate_hz, or a band above half of io.sample_rate_hz when that rate
is set, is a ConfigError at load.
"sync.samples_per_rev" must be a multiple of the tooth count z and at
least 2z, the angle samples the carrier order z needs per revolution.
Without it, `analyze` uses the smallest multiple of z at or above 1024.
"metadata" must be an object; it is never read (reports echo the file), but
every number in it, however deeply nested, must be finite, so that the echo
stays strict JSON: a NaN at metadata.note is a ConfigError naming that path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .core import CHANNELS
from .dsp import Band, _check_below_nyquist, _checked_taper
from .errors import ConfigError, RangeError
from .millsim import SimConfig
from .pipeline import Cutter, Thresholds


@dataclass(frozen=True)
class BandSettings:
    f_lo_hz: float
    f_hi_hz: float
    taper_hz: float | None = None

    def __post_init__(self):
        _checked_taper(self.band, self.taper_hz)

    @property
    def band(self) -> Band:
        return Band(self.f_lo_hz, self.f_hi_hz)


@dataclass(frozen=True)
class RunConfig:
    cutter: Cutter
    bands: dict[str, BandSettings] = field(default_factory=dict)
    thresholds: Thresholds = Thresholds()
    samples_per_rev: int | None = None  # None: `analyze` picks one from z
    tooth0_offset_frac: float | None = None   # None: sectors centered on teeth
    sample_rate_hz: float | None = None
    columns: dict[str, str] = field(default_factory=dict)
    sim: SimConfig | None = None

    def __post_init__(self):
        spr, z = self.samples_per_rev, self.cutter.z
        if spr is not None and (spr < 2 * z or spr % z):
            raise ConfigError(f"sync.samples_per_rev={spr} must be positive, "
                              f"at least 2z={2 * z} and divisible by z={z}")
        if (self.tooth0_offset_frac is not None
                and not (0.0 <= self.tooth0_offset_frac < 1.0)):
            raise ConfigError(
                f"tooth0_offset_frac must be in [0, 1), got {self.tooth0_offset_frac}")
        for ch in self.columns:
            if ch not in CHANNELS and ch != "time_s":
                raise ConfigError(f"unknown channel {ch!r} in io.columns; "
                                  f"expected one of {CHANNELS}")
        if self.sample_rate_hz is not None:
            if not self.sample_rate_hz > 0.0:
                raise ConfigError("invalid io settings: sample_rate_hz must be "
                                  f"positive, got {self.sample_rate_hz}")
            for ch, bs in self.bands.items():
                try:
                    _check_below_nyquist(bs.band, self.sample_rate_hz)
                except RangeError as err:
                    raise ConfigError(f"invalid bands.{ch} settings: {err}") from None

    def band_settings(self, channel: str) -> BandSettings:
        bs = self.bands.get(channel) or self.bands.get("default")
        if bs is None:
            raise ConfigError(
                f"no band configured for channel {channel!r} and no default band")
        return bs


def _section(doc: dict, name: str, required: bool = False,
             keys: tuple[str, ...] | None = None) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing the required {name!r} section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(sec) - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown {name} key(s): {unknown}")
    return sec


def _numbers(cls, sec: dict, what: str) -> dict:
    """sec with each key that fills an `int` or `float` field of cls, as
    annotated, through `_finite`; a null passes where the default is None."""
    out = dict(sec)
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        if kind in ("int", "float") and f.name in sec and not (
                sec[f.name] is None and f.default is None):
            out[f.name] = _finite(sec[f.name], f"{what}.{f.name}", kind == "int")
    return out


def _build(cls, sec: dict, what: str, **fixed):
    """cls(**sec, **fixed), each key converted by `_numbers`."""
    try:
        return cls(**_numbers(cls, sec, what), **fixed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {what} settings: {err}") from None


def _finite(value, name: str, integral: bool = False):
    """A finite JSON number as written, or as an int if `integral`."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if is_number else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if integral and not number.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value) if integral else value


def _check_finite_numbers(value, name: str) -> None:
    """A ConfigError naming the first non-finite float anywhere in value."""
    if isinstance(value, float):
        _finite(value, name)
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_finite_numbers(item, f"{name}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite_numbers(item, f"{name}[{i}]")


def config_from_dict(doc: dict) -> RunConfig:
    known = {"cutter", "bands", "thresholds", "sync", "io", "sim", "metadata"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    _check_finite_numbers(_section(doc, "metadata"), "metadata")

    cutter = _build(Cutter, _section(doc, "cutter", required=True), "cutter")

    bands = {}
    for ch, entry in _section(doc, "bands").items():
        if ch != "default" and ch not in CHANNELS:
            raise ConfigError(f"band configured for unknown channel {ch!r}")
        if not isinstance(entry, dict):
            raise ConfigError(f"band for {ch!r} must be an object")
        bands[ch] = _build(BandSettings, entry, f"bands.{ch}")

    thresholds = _build(Thresholds, _section(doc, "thresholds"), "thresholds")

    sync = _section(doc, "sync", keys=("samples_per_rev", "tooth0_offset_frac"))
    io_sec = dict(_section(doc, "io", keys=("sample_rate_hz", "columns")))
    columns = io_sec.pop("columns", None)
    if columns is None:
        columns = {}
    elif not (isinstance(columns, dict)
              and all(isinstance(c, str) for c in columns.values())):
        raise ConfigError("io.columns must be an object of column names, "
                          f"got {columns!r}")

    sim = None
    sim_sec = dict(_section(doc, "sim"))
    if sim_sec:
        gains = sim_sec.pop("per_tooth_gain", None)
        if gains is None:
            gains = [1.0] * cutter.z
        elif not isinstance(gains, (list, tuple)):
            raise ConfigError(
                f"sim.per_tooth_gain must be a list of numbers, got {gains!r}")
        gains = [_finite(g, f"sim.per_tooth_gain[{i}]") for i, g in enumerate(gains)]
        sim = _build(SimConfig, sim_sec, "sim", cutter=cutter,
                     per_tooth_gain=tuple(gains))

    return RunConfig(cutter=cutter, bands=bands, thresholds=thresholds,
                     columns=dict(columns), sim=sim,
                     **_numbers(RunConfig, sync, "sync"),
                     **_numbers(RunConfig, io_sec, "io"))


def _read_document(path) -> dict:
    """The JSON object in the configuration file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    return config_from_dict(_read_document(path))
