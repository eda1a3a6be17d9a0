import threading

import numpy as np
import pytest

import millenv.millsim
from millenv import (ConfigError, SimConfig, band_filter, detect_pulses,
                     detrend, envelope, resample_to_angle, simulate,
                     synchronous_average)
from conftest import BAND, RPM, analyze_channel, run_simulation, sector_peaks


class TestSimConfig:
    def test_gain_count_must_match_teeth(self, cutter):
        with pytest.raises(ConfigError):
            SimConfig(cutter, (1.0,) * 5)

    def test_resonance_limited_by_sample_rate(self, cutter):
        with pytest.raises(ConfigError):
            SimConfig(cutter, (1.0,) * 6, resonance_hz=12000.0)

    def test_negative_gain_rejected(self, cutter):
        with pytest.raises(ConfigError):
            SimConfig(cutter, (1.0,) * 5 + (-0.1,))

    def test_damping_bounds(self, cutter):
        with pytest.raises(ConfigError):
            SimConfig(cutter, (1.0,) * 6, damping_ratio=1.0)

    def test_rpm_defaults_to_cutter(self, cutter):
        cfg = SimConfig(cutter, (1.0,) * 6)
        assert cfg.start_rpm == pytest.approx(1352.817, abs=0.01)


class TestSimulate:
    def test_deterministic_bit_identical(self, cutter):
        cfg = SimConfig(cutter, (1.0,) * 6, rpm=RPM, noise_rms=0.05,
                        duration_s=0.4, seed=7)
        a = simulate(cfg)
        b = simulate(cfg)
        for ch in a.channels:
            assert np.array_equal(a.channels[ch].samples,
                                  b.channels[ch].samples)
        assert np.array_equal(a.truth.impact_times_s, b.truth.impact_times_s)

    def test_zero_gains_silent_but_tacho_pulses(self, cutter):
        cfg = SimConfig(cutter, (0.0,) * 6, rpm=RPM, noise_rms=0.0,
                        duration_s=0.4, seed=0)
        out = simulate(cfg)
        for ch in ("ax", "ay", "az", "fx", "fy", "fz"):
            assert np.all(out.channels[ch].samples == 0.0)
        track = detect_pulses(out.channels["tacho"], 0.5, 0.2)
        assert len(track.pulse_times_s) >= 2

    def test_tacho_recovers_rpm_within_0p1_percent(self, cutter):
        out, track = run_simulation(cutter, [1.0] * 6)
        assert track.nominal_rpm == pytest.approx(RPM, rel=1e-3)

    def test_impact_count_and_tooth_cycle(self, cutter):
        out, _ = run_simulation(cutter, [1.0] * 6, duration_s=0.5)
        truth = out.truth
        revs = 0.5 * RPM / 60.0
        assert abs(len(truth.impact_times_s) - 6 * revs) <= 6  # boundary slack
        assert np.array_equal(truth.impact_tooth[:12],
                              np.tile(np.arange(6), 2))

    def test_one_pulse_per_revolution(self, cutter):
        out, track = run_simulation(cutter, [1.0] * 6)
        gaps = np.diff(track.pulse_times_s)
        assert np.allclose(gaps, 60.0 / RPM, rtol=2e-3)

    def test_channel_units(self, cutter):
        out, _ = run_simulation(cutter, [1.0] * 6, duration_s=0.3)
        assert out.channels["ax"].unit == "m/s^2"
        assert out.channels["fz"].unit == "N"

    def test_energy_monotonicity_over_gain_grid(self, cutter):
        # raising one tooth's gain strictly raises its recovered sector load
        loads = []
        for g in (0.4, 0.7, 1.0, 1.3):
            gains = [1.0] * 6
            gains[2] = g
            out, track = run_simulation(cutter, gains, duration_s=1.0,
                                        noise_rms=0.0)
            res = analyze_channel(out, track, cutter)
            loads.append(res.tooth_profile.mean_load[2])
        assert np.all(np.diff(loads) > 0.0)

    def test_gain_rotation_rotates_profile(self, cutter):
        base_gains = [1.0, 1.0, 1.0, 0.5, 1.0, 1.0]
        out0, tr0 = run_simulation(cutter, base_gains, noise_rms=0.0)
        prof0 = analyze_channel(out0, tr0, cutter).tooth_profile
        rolled = list(np.roll(base_gains, 2))
        out1, tr1 = run_simulation(cutter, rolled, noise_rms=0.0)
        prof1 = analyze_channel(out1, tr1, cutter).tooth_profile
        assert prof1.weakest_tooth == (prof0.weakest_tooth + 2) % 6
        assert np.allclose(prof1.mean_load, np.roll(prof0.mean_load, 2),
                           rtol=0.02)

    def test_speed_ramp_pulse_times_follow_quadratic_phase(self, cutter):
        cfg = SimConfig(cutter, (1.0,) * 6, rpm=1200.0, rpm_end=1500.0,
                        duration_s=1.0, seed=0)
        out = simulate(cfg)
        pt = out.truth.pulse_times_s
        f0, f1 = 20.0, 25.0
        beta = (f1 - f0) / 1.0
        revs_at_pulses = f0 * pt + 0.5 * beta * pt * pt
        assert np.allclose(revs_at_pulses, np.arange(pt.size), atol=1e-9)


#: the reference noise, a noise-free record, and a speed ramp with runout
WORKER_CASES = {"reference": {},
                "noise-free": {"noise_rms": 0.0},
                "ramp": {"rpm_end": 1700.0, "eccentricity": 0.2, "seed": 5}}


def _sim_bytes(out):
    truth = out.truth
    return ([(ch, ts.samples.tobytes()) for ch, ts in out.channels.items()],
            [a.tobytes() for a in (truth.impact_times_s, truth.impact_tooth,
                                   truth.pulse_times_s)],
            truth.per_tooth_gain, truth.rpm)


@pytest.mark.parametrize("case", WORKER_CASES)
def test_worker_count_changes_no_byte(cutter, monkeypatch, case):
    # README: simulate runs on up to 2 threads, and no output byte depends
    # on their number
    settings = dict(rpm=RPM, noise_rms=0.01, duration_s=0.4, seed=42)
    settings.update(WORKER_CASES[case])
    cfg = SimConfig(cutter, (1.0, 1.0, 1.0, 0.5, 1.0, 1.0), **settings)
    outputs = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: cpus)
        outputs.append(_sim_bytes(simulate(cfg)))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("failing", ["shaping", "draws"])
def test_worker_failure_propagates_and_no_thread_outlives_the_call(
        cutter, monkeypatch, failing):
    # with 2 usable CPUs the shaping runs on a started thread and the draws
    # on the calling one; the failure is raised once both tasks have ended
    ran_on = {}

    def spy(task, real):
        def call(*args, **kwargs):
            ran_on[task] = threading.current_thread()
            if task == failing:
                raise RuntimeError(f"{task} failed")
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(np, "convolve", spy("shaping", np.convolve))
    monkeypatch.setattr(np.random, "default_rng",
                        spy("draws", np.random.default_rng))
    cfg = SimConfig(cutter, (1.0,) * 6, rpm=RPM, noise_rms=0.01,
                    duration_s=0.2, seed=0)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        simulate(cfg)
    assert threading.active_count() == threads
    assert ran_on["draws"] is threading.current_thread()
    assert ran_on["shaping"] is not threading.current_thread()

class TestTruthAlignment:
    def test_envelope_peaks_track_impact_pattern(self, symmetric_run, cutter):
        """Averaged-envelope peaks sit at the truth impact angles plus one
        shared response latency (the causal resonance rise), with tooth-to-
        tooth deviation inside one angular sample at 1024/rev."""
        out, track, _ = symmetric_run
        env = envelope(band_filter(detrend(out.channels["ax"]), BAND))
        avg = synchronous_average(resample_to_angle(env, track, 1024))
        peaks = sector_peaks(avg, 6)
        expected = np.arange(6) * 1024 / 6
        err = (peaks - expected + 512.0) % 1024.0 - 512.0
        latency = np.median(err)
        # every tooth shows the same latency: deviation within +-1 sample
        assert np.abs(err - latency).max() <= 1.0
        # the shared latency stays inside the band's temporal resolution
        rev_period_s = 60.0 / track.nominal_rpm
        resolution_samples = (1.0 / BAND.width_hz) / rev_period_s * 1024
        assert 0.0 <= latency <= resolution_samples

    def test_time_domain_peaks_at_wideband_resonance(self, cutter):
        # with a fast (high-frequency, well-damped) resonance the envelope
        # peak sits within two samples of the strike
        cfg = SimConfig(cutter, (1.0,) * 6, rpm=RPM, resonance_hz=8000.0,
                        damping_ratio=0.1, noise_rms=0.0, duration_s=0.6,
                        seed=1)
        out = simulate(cfg)
        env = envelope(detrend(out.channels["ax"])).samples
        fs = out.channels["ax"].sample_rate_hz
        errs = []
        for t in out.truth.impact_times_s[6:40]:
            k0 = int(round(t * fs))
            k = k0 - 15 + int(np.argmax(env[k0 - 15:k0 + 16]))
            errs.append(k - t * fs)
        errs = np.asarray(errs)
        assert np.abs(errs - np.median(errs)).max() <= 1.0
        assert 0.0 <= np.median(errs) <= 2.0
