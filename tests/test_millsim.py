import sys
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


#: bound on each wait of a test that holds one task back: a lost handoff
#: fails the test instead of hanging it
WAIT_S = 60.0


class _Generator:
    """The seeded generator, with `before(k)` run ahead of its k-th
    `normal` draw (counted from 1) and `after(k)` once that draw is made."""

    def __init__(self, rng, before, after):
        self._rng, self._before, self._after = rng, before, after
        self._draws = 0

    def normal(self, *args, **kwargs):
        self._draws += 1
        self._before(self._draws)
        noise = self._rng.normal(*args, **kwargs)
        self._after(self._draws)
        return noise


def _patch_tasks(monkeypatch, before=lambda k: None, after=lambda k: None,
                 shaping=lambda call: None, shaped=lambda: None,
                 combine=None):
    """Patch the draws (`before(0)` runs as the generator is made), the
    shaping's two `np.convolve` calls (`shaping` runs ahead of each, with
    its number from 1, and `shaped` once the second returns) and, if
    given, millsim's block combine; returns the thread each task ran on."""
    ran_on = {}
    real_rng, real_convolve = np.random.default_rng, np.convolve
    calls = []

    def default_rng(seed):
        ran_on["draws"] = threading.current_thread()
        before(0)
        return _Generator(real_rng(seed), before, after)

    def convolve(*args, **kwargs):
        ran_on["shaping"] = threading.current_thread()
        calls.append(None)
        shaping(len(calls))
        out = real_convolve(*args, **kwargs)
        if len(calls) == 2:
            shaped()
        return out

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(np, "convolve", convolve)
    if combine is not None:
        monkeypatch.setattr(millenv.millsim, "_add_scaled", combine)
    return ran_on


def _fail_at(at, what):
    """A hook that raises when it is called with `at`."""
    def hook(k):
        if k == at:
            raise RuntimeError(f"{what} failed")
    return hook


@pytest.mark.parametrize("failing", ["shaping", "draws", "fourth draw",
                                     "started combine"])
def test_worker_failure_propagates_and_no_thread_outlives_the_call(
        cutter, monkeypatch, failing):
    # with 2 usable CPUs the shaping runs on a started thread and the draws
    # on the calling one; a failure in either task, in a later draw or in a
    # combine the started thread runs is raised once both tasks have ended,
    # and no task waits for the other, so the call returns
    caller = threading.current_thread()
    hooks = {"shaping": {"shaping": _fail_at(1, "shaping")},
             "draws": {"before": _fail_at(0, "draws")},  # making the generator
             "fourth draw": {"before": _fail_at(4, "fourth draw")}
             }.get(failing)
    if failing == "started combine":
        # the shaping waits for three draws, and the fourth draw waits until
        # the started thread has begun combining one of them
        drawn, combining = threading.Event(), threading.Event()
        real_combine = millenv.millsim._add_scaled

        def shaping(call):
            assert call > 1 or drawn.wait(WAIT_S)

        def before(k):
            if k == 4:
                drawn.set()
                assert combining.wait(WAIT_S)

        def combine(*args):
            if threading.current_thread() is caller:
                return real_combine(*args)
            combining.set()
            raise RuntimeError("started combine failed")

        hooks = {"shaping": shaping, "before": before, "combine": combine}

    monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: 2)
    ran_on = _patch_tasks(monkeypatch, **hooks)
    cfg = SimConfig(cutter, (1.0,) * 6, rpm=RPM, noise_rms=0.01,
                    duration_s=0.2, seed=0)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        simulate(cfg)
    assert threading.active_count() == threads
    assert ran_on["draws"] is caller
    assert ran_on["shaping"] is not caller


@pytest.mark.parametrize("drawn", [0, 3, 6], ids=[
    "before the first draw", "between two draws", "after the last draw"])
def test_interleaving_changes_no_byte(cutter, monkeypatch, drawn):
    # the shaping, held back on its started thread, ends after `drawn` of
    # the six draws; each channel is combined by whichever thread gets to
    # it first, and every byte is that of one usable CPU
    cfg = SimConfig(cutter, (1.0, 1.0, 1.0, 0.5, 1.0, 1.0), rpm=RPM,
                    noise_rms=0.01, duration_s=0.4, seed=42)
    monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: 1)
    expected = _sim_bytes(simulate(cfg))

    order = []
    released, done = threading.Event(), threading.Event()

    def shaping(call):
        assert call > 1 or released.wait(WAIT_S)

    def shaped():
        order.append("shaped")
        done.set()

    def before(k):
        if k == drawn + 1:
            released.set()
            assert done.wait(WAIT_S)

    def after(k):
        order.append(k)
        if k == drawn == 6:
            released.set()

    monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: 2)
    ran_on = _patch_tasks(monkeypatch, before=before, after=after,
                          shaping=shaping, shaped=shaped)
    assert _sim_bytes(simulate(cfg)) == expected
    assert order == [*range(1, drawn + 1), "shaped", *range(drawn + 1, 7)]
    assert ran_on["shaping"] is not threading.current_thread()


def test_claims_hold_at_a_short_switch_interval(cutter, monkeypatch):
    # threads switch every microsecond, so a claim that is not atomic would
    # combine some channel twice or never: every call must give the bytes
    # of one usable CPU
    cfg = SimConfig(cutter, (1.0, 1.0, 1.0, 0.5, 1.0, 1.0), rpm=RPM,
                    noise_rms=0.01, duration_s=0.4, seed=3)
    monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: 1)
    expected = _sim_bytes(simulate(cfg))
    monkeypatch.setattr(millenv.millsim, "_usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outputs = [_sim_bytes(simulate(cfg)) for _ in range(30)]
    finally:
        sys.setswitchinterval(interval)
    assert all(out == expected for out in outputs)


@pytest.mark.parametrize("size", [1, 6, 7, 8, 20])
def test_block_combine_is_the_full_length_expression(size):
    rng = np.random.default_rng(size)
    noise, train = rng.normal(size=size), rng.normal(size=size)
    expected = (noise + 0.37 * train).tobytes()
    millenv.millsim._add_scaled(noise, 0.37, train, np.empty(7))
    assert noise.tobytes() == expected


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
