"""The settable surface of the public API, written out.

Each function's parameter names and each dataclass's stored fields
(`init=False` ones included) are listed here, so a new option or a hidden
field shows up as a diff of this table. Update the table together with the
API change it records. README's library example is run as written, so it
cannot drift from the API.
"""

import copy
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import millenv
from millenv import fileio, sync
from conftest import BAND, FS, SAMPLES_PER_REV, run_simulation

PARAMETERS = {
    "amplitude_spectrum": "x w",
    "analytic_signal": "x",
    "analyze": "x tacho cutter band cfg taper_hz samples_per_rev "
               "tooth0_offset_frac",
    "analyze_all_channels": "channels tacho cutter bands cfg taper_hz "
                            "samples_per_rev tooth0_offset_frac",
    "averaged_rev_spectrum": "avg_rev f_rot_hz",
    "band_filter": "x b taper_hz",
    "classify": "env_spec tooth_profile cfg",
    "detect_pulses": "tacho threshold hysteresis",
    "detrend": "x",
    "envelope": "x",
    "envelope_spectrum": "x b taper_hz w",
    "estimate_frf": "impacts force_gate_frac response_decay_end",
    "propose_bands": "frf n_bands",
    "resample_to_angle": "x t samples_per_rev",
    "rms": "x",
    "simulate": "cfg",
    "slice_time": "x t0_s t1_s",
    "speed_profile": "t",
    "split_impacts": "force response",
    "synchronous_average": "revolutions",
    "tooth_segmentation": "avg_rev z tooth0_offset_frac",
    "fileio.read_recording": "path columns sample_rate_hz",
    "fileio.write_recording": "channels path",
    "fileio.write_svg": "path x y title x_label y_label",
    "fileio.emit_plot_data": "path_base x y title x_label y_label",
    "sync.revolution_plan": "x t samples_per_rev",
    "sync.RevolutionPlan.revolutions": "self x",
    "sync.RevolutionPlan.average": "self arrays",
}

FIELDS = {
    "AnalysisResult": "channel mean_rpm findings tooth_profile "
                      "averaged_envelope gates",
    "Band": "f_lo_hz f_hi_hz",
    "Cutter": "z diameter_mm feed_per_tooth_mm cutting_speed_m_min",
    "Finding": "kind evidence_freq_hz amplitude_ratio threshold triggered "
               "tooth_index",
    "Frf": "h1 coherence df_hz n_averages force_power response_decay_per_s",
    "Gate": "name value threshold passed",
    "ImpactRecord": "force response",
    "SimConfig": "cutter per_tooth_gain rpm rpm_end resonance_hz "
                 "damping_ratio eccentricity noise_rms duration_s "
                 "sample_rate_hz seed",
    "SimOutput": "channels truth",
    "SimTruth": "impact_times_s impact_tooth pulse_times_s per_tooth_gain rpm",
    "Spectrum": "amplitudes df_hz n_fft",
    "TachoTrack": "pulse_times_s",
    "Thresholds": "asym_ratio weak_tooth_drop ecc_ratio misalign_ratio "
                  "min_carrier min_revs max_rpm_drift",
    "TimeSeries": "samples sample_rate_hz channel unit",
    "ToothProfile": "mean_load asymmetry_index",
    "Window": "kind",
    "fileio.Recording": "channels tacho warnings",
    "sync.RevolutionPlan": "revs rpm pulse_times_s sample_rate_hz "
                           "samples_per_rev",
}


def _exported(kind):
    return {name: getattr(millenv, name) for name in millenv.__all__
            if kind(getattr(millenv, name))}


def _is_dataclass_type(obj):
    return isinstance(obj, type) and dataclasses.is_dataclass(obj)


def test_function_parameters():
    functions = _exported(inspect.isfunction)
    functions.update({f"fileio.{name}": getattr(fileio, name)
                      for name in ("read_recording", "write_recording",
                                   "write_svg", "emit_plot_data")})
    functions["sync.revolution_plan"] = sync.revolution_plan
    functions.update({f"sync.RevolutionPlan.{name}": getattr(
        sync.RevolutionPlan, name) for name in ("revolutions", "average")})
    actual = {name: " ".join(inspect.signature(fn).parameters)
              for name, fn in functions.items()}
    assert actual == PARAMETERS


def test_dataclass_fields():
    classes = _exported(_is_dataclass_type)
    classes["fileio.Recording"] = fileio.Recording
    classes["sync.RevolutionPlan"] = sync.RevolutionPlan
    actual = {name: " ".join(f.name for f in dataclasses.fields(cls))
              for name, cls in classes.items()}
    assert actual == FIELDS


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert len(namespace["results"]) == 6
    assert namespace["errors"] == {}


def _arrays(value, path):
    """(path, array) for every numpy array inside value, through dataclass
    fields (private ones included), tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _arrays(item, f"{path}[{key!r}]")


@pytest.fixture(scope="module")
def public_values(cutter):
    """One value of each public result type, keyed by the call that made it."""
    out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
    x = out.channels["ax"]
    angular = millenv.resample_to_angle(x, track, SAMPLES_PER_REV)
    result = millenv.analyze(x, track, cutter, BAND,
                             samples_per_rev=SAMPLES_PER_REV)
    n = 4096
    force = np.zeros(n)
    force[400:412] = np.hanning(14)[1:-1]
    t = np.arange(n) / FS
    response = np.convolve(force, np.exp(-300.0 * t)
                           * np.sin(2 * np.pi * 800.0 * t))[:n]
    frf = millenv.estimate_frf([millenv.ImpactRecord(
        millenv.TimeSeries(force, FS, "hammer"),
        millenv.TimeSeries(response, FS, "ax"))] * 2)
    return {"simulate": out, "simulate channel": x, "detect_pulses": track,
            "analyze": result, "resample_to_angle": angular,
            "band_envelope": millenv.dsp.band_envelope(x, BAND),
            "estimate_frf": frf,
            "revolution_plan": sync.revolution_plan(x, track, SAMPLES_PER_REV)}


def test_results_hold_only_read_only_arrays(public_values):
    # README: every public type is a frozen dataclass over read-only arrays,
    # including the arrays millenv made and froze in place without a copy
    found = {path: arr.flags.writeable
             for name, value in public_values.items()
             for path, arr in _arrays(value, name)}
    for path in ("analyze.averaged_envelope", "revolution_plan.rpm",
                 "simulate channel.samples", "band_envelope.samples",
                 "resample_to_angle"):
        assert path in found
    assert [path for path, writeable in found.items() if writeable] == []


def test_caller_arrays_are_copied_not_frozen():
    a = np.arange(8.0)
    x = millenv.TimeSeries(a, FS)
    a[0] = 99.0
    assert a.flags.writeable
    assert x.samples[0] == 0.0


def test_array_types_compare_by_identity(public_values):
    # README: comparing arrays field by field would raise, so these types
    # are equal only to themselves and hash by identity
    result = public_values["analyze"]
    values = [public_values["simulate"].channels["ax"],
              result.envelope_spectrum, public_values["detect_pulses"],
              result.tooth_profile, result,
              public_values["estimate_frf"], public_values["simulate"].truth,
              public_values["revolution_plan"]]
    assert [type(x).__name__ for x in values] == [
        "TimeSeries", "Spectrum", "TachoTrack",
        "ToothProfile", "AnalysisResult", "Frf", "SimTruth", "RevolutionPlan"]
    for x in values:
        assert x == x
        assert x != copy.copy(x)
        assert hash(x) == hash(x)
        assert x in {x}
