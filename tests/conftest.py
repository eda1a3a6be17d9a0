"""Shared fixtures: reference cutter and canonical simulator runs.

The session-scoped runs are reused by the pipeline, simulator and
acceptance tests so the suite stays fast. `sector_peaks` is a test-only
readout of the averaged revolution used by alignment checks.
"""

import numpy as np
import pytest

from millenv import (Band, Cutter, SimConfig, SizeError, Thresholds, analyze,
                     detect_pulses, simulate)

FS = 25000.0
RPM = 1352.8
BAND = Band(1500.0, 2500.0)
SAMPLES_PER_REV = 1152
#: bound on each wait of a test that holds one task back: a lost handoff
#: fails the test instead of hanging it
WAIT_S = 60.0


@pytest.fixture(scope="session")
def cutter():
    # 80 mm face mill, 6 teeth, 0.1 mm/tooth feed, 340 m/min cutting speed
    return Cutter(z=6, diameter_mm=80.0, feed_per_tooth_mm=0.1,
                  cutting_speed_m_min=340.0)


def run_simulation(cutter, gains, **overrides):
    defaults = dict(rpm=RPM, noise_rms=0.01, duration_s=1.2,
                    sample_rate_hz=FS, seed=42)
    defaults.update(overrides)
    cfg = SimConfig(cutter, tuple(gains), **defaults)
    out = simulate(cfg)
    track = detect_pulses(out.channels["tacho"], threshold=0.5, hysteresis=0.2)
    return out, track


def analyze_channel(out, track, cutter, channel="ax", thresholds=None,
                    band=BAND):
    return analyze(out.channels[channel], track, cutter, band,
                   thresholds or Thresholds(),
                   samples_per_rev=SAMPLES_PER_REV)


@pytest.fixture(scope="session")
def symmetric_run(cutter):
    out, track = run_simulation(cutter, [1.0] * 6)
    return out, track, analyze_channel(out, track, cutter)


@pytest.fixture(scope="session")
def asymmetric_run(cutter):
    out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
    return out, track, analyze_channel(out, track, cutter)


def sector_peaks(avg_rev, z: int, tooth0_offset_frac: float = 0.0) -> np.ndarray:
    """Fractional angular index of the largest peak inside each tooth sector.

    Sector boundaries may fall between samples (no divisibility required);
    the per-sector argmax is refined by parabolic interpolation through its
    neighbours, giving sub-sample peak positions for alignment checks.
    """
    avg = np.asarray(avg_rev, dtype=float)
    n = avg.size
    if z < 1 or n < z:
        raise SizeError(f"revolution of {n} samples cannot hold z={z} sectors")
    peaks = np.empty(z)
    for i in range(z):
        base = int(np.floor((tooth0_offset_frac + i / z) * n))
        width = int(np.floor((tooth0_offset_frac + (i + 1) / z) * n)) - base
        idx = (base + np.arange(max(width, 1))) % n
        j = int(np.argmax(avg[idx]))
        k = idx[j]
        y0, y1, y2 = avg[(k - 1) % n], avg[k], avg[(k + 1) % n]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
        peaks[i] = (k + float(np.clip(delta, -0.5, 0.5))) % n
    return peaks


def tone(freq_hz, duration_s=1.0, fs=FS, amp=1.0, phase=0.0):
    t = np.arange(int(round(duration_s * fs))) / fs
    return amp * np.cos(2.0 * np.pi * freq_hz * t + phase)
