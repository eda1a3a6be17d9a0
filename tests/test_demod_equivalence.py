"""The fused demodulation kernels against the reference chain.

`band_envelope` replaces band_filter -> analytic_signal -> abs, and
`resample_to_angle` builds its interpolation plan once per tacho; the
straightforward forms are kept in `reference_dsp.py`.
"""

import numpy as np
import pytest

from millenv import (TachoTrack, TimeSeries, analyze, analytic_signal,
                     detrend, resample_to_angle)
from millenv.dsp import band_envelope
from conftest import BAND, FS, SAMPLES_PER_REV
from reference_dsp import (reference_analytic_signal, reference_band_envelope,
                           reference_resample_to_angle)

LABELS = ("ax", "ay", "az", "fx", "fy", "fz")
TAPER_HZ = 50.0


def head(ts, n):
    return ts.with_samples(ts.samples[:n])


def rel_max_err(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("n", [30000, 25000, 4096, 30])
def test_band_envelope_matches_reference_at_even_lengths(asymmetric_run, n):
    out, _, _ = asymmetric_run
    for ch in LABELS:
        x = detrend(head(out.channels[ch], n))
        env = band_envelope(x, BAND, TAPER_HZ)
        assert env.channel == ch + "_env"
        assert rel_max_err(env.samples,
                           reference_band_envelope(x, BAND, TAPER_HZ)) <= 1e-12


# Odd lengths: the reference pads one zero sample before its analytic
# signal, the kernel does not pad, so the two differ near the circular
# edges (up to 17% there) and slightly inside them. Measured inside: at most
# 9.6e-5 on the acceleration channels and 1.2e-3 on the force channels.
@pytest.mark.parametrize("n", [24989, 25001, 29989])  # 25001 is prime
@pytest.mark.parametrize("labels, bound", [(("ax", "ay", "az"), 2e-4),
                                           (("fx", "fy", "fz"), 2e-3)])
def test_band_envelope_near_reference_at_odd_lengths(asymmetric_run, n,
                                                     labels, bound):
    out, _, _ = asymmetric_run
    inner = slice(n // 100, n - n // 100)
    for ch in labels:
        x = detrend(head(out.channels[ch], n))
        env = band_envelope(x, BAND, TAPER_HZ).samples
        ref = reference_band_envelope(x, BAND, TAPER_HZ)
        assert rel_max_err(env[inner], ref[inner]) <= bound


def test_analytic_signal_matches_reference_at_even_length():
    x = np.random.default_rng(4096).normal(size=4096)
    z = analytic_signal(TimeSeries(x, FS))
    assert rel_max_err(z, reference_analytic_signal(x)) <= 1e-12


@pytest.mark.parametrize("n", [30000, 24989, 19999])
def test_resample_plan_matches_per_call_interpolation(asymmetric_run, n):
    out, track, _ = asymmetric_run
    for spr in (SAMPLES_PER_REV, 1026):
        for ch in ("ax", "fz"):
            x = head(out.channels[ch], n)
            got = resample_to_angle(x, track, spr).samples
            ref = reference_resample_to_angle(x, track.pulse_times_s, spr)
            assert rel_max_err(got, ref) <= 1e-12


def test_resample_plan_clips_at_record_edges():
    # pulses on the first and the last sample: the taps before the first
    # and after the last sample fall back to the edge samples
    x = TimeSeries(np.sin(np.arange(101) * 0.3), FS)
    tacho = TachoTrack(np.array([0.0, 50.0, 100.0]) / FS)
    got = resample_to_angle(x, tacho, 8).samples
    ref = reference_resample_to_angle(x, tacho.pulse_times_s, 8)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_one_tacho_serves_any_record_length_and_grid(asymmetric_run):
    out, track, _ = asymmetric_run
    shared = TachoTrack(track.pulse_times_s)
    full, ay = out.channels["ax"], out.channels["ay"]
    cases = [(full, SAMPLES_PER_REV), (head(full, 25001), SAMPLES_PER_REV),
             (ay, SAMPLES_PER_REV), (full, 1026), (head(ay, 25001), 1026),
             (full, SAMPLES_PER_REV)]
    for order in (cases, cases[::-1]):
        for x, spr in order:
            fresh = resample_to_angle(x, TachoTrack(track.pulse_times_s), spr)
            np.testing.assert_array_equal(
                resample_to_angle(x, shared, spr).samples, fresh.samples)


def test_analyze_runs_two_full_length_ffts(asymmetric_run, cutter,
                                           monkeypatch):
    out, track, _ = asymmetric_run
    x = out.channels["ax"]
    lengths = []

    def counted(name, length):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            result = fn(a, *args, **kwargs)
            lengths.append((name, length(a, args, kwargs, result)))
            return result
        return wrapper

    def signal_length(a, args, kwargs, result):
        return kwargs.get("n", args[0] if args else None) or np.shape(a)[-1]

    def output_length(a, args, kwargs, result):
        return result.shape[-1]

    for name, length in (("rfft", signal_length), ("irfft", output_length),
                         ("fft", output_length), ("ifft", output_length)):
        monkeypatch.setattr(np.fft, name, counted(name, length))
    analyze(x, track, cutter, BAND, samples_per_rev=SAMPLES_PER_REV)
    assert sorted(lengths) == sorted([("rfft", len(x)), ("ifft", len(x)),
                                      ("rfft", SAMPLES_PER_REV)])
