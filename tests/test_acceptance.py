"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances are fixed
here; the tooth-asymmetry ratio of the canonical asymmetric run is pinned
to the value measured once on the deterministic reference configuration
and guarded by a +-10% regression band.
"""

import time

import numpy as np
import pytest

from millenv import (Band, RECTANGULAR, Thresholds, TimeSeries,
                     amplitude_spectrum, analytic_signal, analyze,
                     band_filter, envelope, envelope_spectrum,
                     resample_to_angle, rms, tooth_segmentation)
from millenv.fileio import dump_report, report_document
from millenv.modal import ImpactRecord, estimate_frf, propose_bands
from conftest import BAND, FS, SAMPLES_PER_REV, analyze_channel, run_simulation

# measured once on the reference run (z=6, rpm 1352.8, tooth-3 gain 0.5,
# 1.2 s, seed 42, band 1500-2500 Hz); pinned as a regression bound
PINNED_ASYM_RATIO = 0.222579


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_symmetric_cutter_signature(cutter):
    start = time.perf_counter()
    out, track = run_simulation(cutter, [1.0] * 6)
    res = analyze_channel(out, track, cutter)
    elapsed = time.perf_counter() - start

    spec = res.envelope_spectrum
    k = int(np.argmax(spec.amplitudes))
    f_peak = k * spec.df_hz
    assert abs(f_peak - 135.28) <= res.f_rot_hz / 8, "dominant peak off f_tooth"
    carrier = spec.amplitudes[k]
    for order in range(1, 6):  # bin k is rotation order k
        assert spec.amplitudes[order] < 0.10 * carrier, \
            f"order {order} above 10% of carrier"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _passed(1, f"single peak at {f_peak:.2f} Hz, sub-tooth orders < 10%, "
               f"{elapsed:.2f}s")


def test_criterion_2_asymmetric_cutter_signature(cutter):
    out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
    res = analyze_channel(out, track, cutter)
    rep = res
    df = res.f_rot_hz / 8

    asym = next(f for f in rep.findings if f.kind == "tooth_asymmetry")
    assert asym.triggered, "tooth_asymmetry not triggered"
    assert abs(asym.evidence_freq_hz - 22.55) <= df, "evidence off 1x f_rot"
    assert asym.amplitude_ratio >= 0.2
    assert asym.amplitude_ratio == pytest.approx(PINNED_ASYM_RATIO, rel=0.10), \
        "ratio drifted from the pinned regression baseline"

    weak = [f for f in rep.findings if f.kind == "weak_tooth" and f.triggered]
    assert [f.tooth_index for f in weak] == [3], "weak tooth index wrong"
    _passed(2, f"asymmetry at {asym.evidence_freq_hz:.2f} Hz, ratio "
               f"{asym.amplitude_ratio:.4f} (pinned {PINNED_ASYM_RATIO}), "
               f"weak tooth 3")


def test_criterion_3_am_demodulation_oracle():
    t = np.arange(int(2 * FS)) / FS
    truth_mod = 1.0 + 0.5 * np.cos(2 * np.pi * 20.0 * t)
    x = TimeSeries(truth_mod * np.cos(2 * np.pi * 2000.0 * t), FS, "ax")
    band = Band(1500.0, 2500.0)

    spec = envelope_spectrum(x, band, 50.0, RECTANGULAR)
    k = int(np.argmax(spec.amplitudes))
    assert k * spec.df_hz == pytest.approx(20.0, abs=spec.df_hz)
    assert spec.amplitudes[k] == pytest.approx(0.5, rel=0.05)

    env = envelope(band_filter(x, band, 50.0))
    n = t.size
    core = slice(n // 100, n - n // 100)
    err = rms(env.samples[core] - truth_mod[core]) / rms(truth_mod[core])
    assert err <= 0.01
    _passed(3, f"peak {spec.amplitudes[k]:.4f} at 20 Hz, waveform error "
               f"{100 * err:.4f}% RMS")


def test_criterion_4_analytic_signal_correctness():
    rng = np.random.default_rng(7)
    n = 4096
    bins = np.zeros(n // 2 + 1, dtype=complex)
    lo, hi = int(0.05 * n), int(0.20 * n)
    bins[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
    x = np.fft.irfft(bins, n)
    z = analytic_signal(TimeSeries(x, FS, "ax"))

    assert rms(z.real - x) <= 1e-9 * rms(x)
    spec = np.fft.fft(z)
    neg = np.sum(np.abs(spec[n // 2 + 1:]) ** 2)
    assert neg <= 1e-9 * np.sum(np.abs(spec) ** 2)

    m = np.arange(-2047, 2048)
    kernel = np.where(m % 2 != 0, 2.0 / (np.pi * np.where(m == 0, 1, m)), 0.0)
    oracle = np.convolve(x, kernel, mode="same")
    mid = slice(n // 4, 3 * n // 4)
    err = rms(z.imag[mid] - oracle[mid]) / rms(oracle[mid])
    assert err <= 0.01
    _passed(4, f"real part exact, negative-frequency energy ~0, "
               f"convolution oracle error {100 * err:.3f}%")


def test_criterion_5_order_tracking_under_speed_ramp():
    T = 2.0
    f0, f1 = 1200.0 / 60.0, 1500.0 / 60.0
    beta = (f1 - f0) / T
    t = np.arange(int(T * FS)) / FS
    revs = f0 * t + 0.5 * beta * t * t
    x = TimeSeries(np.cos(2 * np.pi * revs), FS, "ax")

    ks = np.arange(int(revs[-1]) + 1)
    pulses = (np.sqrt(f0 * f0 + 2 * beta * ks) - f0) / beta
    from millenv import TachoTrack
    ang = resample_to_angle(x, TachoTrack(pulses), 1024)
    expected = np.tile(np.cos(2 * np.pi * np.arange(1024) / 1024), len(ang))
    err = rms(ang.ravel() - expected) / rms(expected)
    assert err <= 0.01

    order_spec = np.abs(np.fft.rfft(ang.ravel()))
    peak = int(np.argmax(order_spec[1:])) + 1
    assert peak == len(ang)  # exactly order 1
    rest = np.delete(order_spec[1:], peak - 1)
    assert rest.max() < 0.05 * order_spec[peak]

    time_spec = amplitude_spectrum(x, RECTANGULAR)
    smeared = int(np.sum(time_spec.amplitudes > 0.5 * time_spec.amplitudes.max()))
    assert smeared >= 3
    _passed(5, f"angular recovery error {100 * err:.3f}% RMS, single order "
               f"peak; time FFT smeared over {smeared} bins")


def test_criterion_6_frf_oracle():
    fn, zeta = 800.0, 0.05
    wn = 2 * np.pi * fn
    wd = wn * np.sqrt(1 - zeta * zeta)
    th = np.arange(int(0.2 * FS)) / FS
    h_sdof = np.exp(-zeta * wn * th) * np.sin(wd * th) / wd
    rng = np.random.default_rng(3)
    n = 25000
    impacts = []
    for _ in range(10):
        force = np.zeros(n)
        p0 = int(0.10 * n)
        force[p0:p0 + 12] = np.hanning(14)[1:-1] * (1 + 0.2 * rng.standard_normal())
        resp = np.convolve(force, h_sdof)[:n] / FS
        resp += rng.normal(0.0, 0.02 * np.abs(resp).max(), n)
        impacts.append(ImpactRecord(TimeSeries(force, FS, "hammer", "N"),
                                    TimeSeries(resp, FS, "ax", "m")))
    frf = estimate_frf(impacts)

    mag = np.where(frf.coherence >= 0.9, np.abs(frf.h1), 0.0)
    k = int(np.argmax(mag))
    f_peak = k * frf.df_hz
    assert abs(f_peak - 796.0) <= 0.01 * 796.0
    assert frf.coherence[k] > 0.95
    bands = propose_bands(frf, n_bands=1)
    assert bands and bands[0].f_lo_hz < fn < bands[0].f_hi_hz
    _passed(6, f"|H1| peak {f_peak:.1f} Hz, coherence {frf.coherence[k]:.4f}, "
               f"band [{bands[0].f_lo_hz:.0f}, {bands[0].f_hi_hz:.0f}] Hz")


def test_criterion_7_invariant_suite(cutter):
    # FFT round trip
    rng = np.random.default_rng(6)
    x = rng.normal(size=2 ** 18)
    assert rms(np.fft.irfft(np.fft.rfft(x), x.size) - x) <= 1e-9 * rms(x)

    # Parseval (rectangular window)
    y = rng.normal(size=8192)
    spec = amplitude_spectrum(TimeSeries(y, FS, "ax"), RECTANGULAR)
    n = spec.n_fft
    amps = spec.amplitudes
    energy = n * amps[0] ** 2 + 0.5 * n * np.sum(amps[1:-1] ** 2) + n * amps[-1] ** 2
    assert energy == pytest.approx(np.sum(y ** 2), rel=1e-9)

    # classifier scale invariance
    out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
    base = analyze_channel(out, track, cutter)
    scaled_ts = out.channels["ax"].with_samples(1e3 * out.channels["ax"].samples)
    scaled = analyze(scaled_ts, track, cutter, BAND, Thresholds(),
                     samples_per_rev=SAMPLES_PER_REV)
    for fa, fb in zip(base.findings, scaled.findings):
        assert fa.triggered == fb.triggered
        assert fb.amplitude_ratio == pytest.approx(fa.amplitude_ratio, rel=1e-9)

    # tooth-profile permutation equivariance (exact)
    avg = np.abs(rng.normal(1.0, 0.3, 1152))
    prof = tooth_segmentation(avg, 6)
    rolled = tooth_segmentation(np.roll(avg, -192), 6)
    assert np.array_equal(rolled.mean_load, np.roll(prof.mean_load, -1))

    # determinism: byte-identical reports
    docs = []
    for _ in range(2):
        o, tr = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
        docs.append(dump_report(report_document(
            {"ax": analyze_channel(o, tr, cutter)})))
    assert docs[0] == docs[1]
    _passed(7, "FFT round trip, Parseval, scale invariance, permutation "
               "equivariance, byte-identical determinism")


def test_criterion_8_cross_channel_consistency(cutter):
    out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
    indices = {}
    for ch in ("ax", "ay", "az", "fx", "fy", "fz"):
        res = analyze_channel(out, track, cutter, channel=ch)
        weak = [f.tooth_index for f in res.findings
                if f.kind == "weak_tooth" and f.triggered]
        indices[ch] = tuple(weak)
    assert set(indices.values()) == {(3,)}, f"weak-tooth mismatch: {indices}"
    _passed(8, "vibration and force channels all identify weak tooth 3")
