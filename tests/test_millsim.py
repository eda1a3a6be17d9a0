import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import millenv.millsim as millsim
from millenv import (ConfigError, Cutter, SimConfig, band_filter, detect_pulses,
                     detrend, envelope, resample_to_angle, simulate,
                     synchronous_average)
from conftest import (BAND, RPM, WAIT_S, analyze_channel, run_simulation,
                      sector_peaks)


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

    @pytest.mark.parametrize("gain", [math.nan, math.inf])
    def test_non_finite_gain_rejected(self, cutter, gain):
        with pytest.raises(ConfigError, match="^per_tooth_gain entries"):
            SimConfig(cutter, (1.0,) * 5 + (gain,))

    @pytest.mark.parametrize("seed", [1.5, 2.0, "1", None])
    def test_seed_must_be_a_whole_number(self, cutter, seed):
        # numpy's SeedSequence would otherwise refuse it inside simulate
        with pytest.raises(ConfigError,
                           match=f"^seed must be a whole number, got {seed!r}"):
            SimConfig(cutter, (1.0,) * 6, seed=seed)

    @pytest.mark.parametrize("flag", [True, False])
    def test_seed_is_not_a_bool(self, cutter, flag):
        # the config loader refuses JSON true; SimConfig took it as seed 1
        with pytest.raises(ConfigError,
                           match=f"^seed must be a whole number, got {flag}$"):
            SimConfig(cutter, (1.0,) * 6, seed=flag)

    def test_seed_is_kept_as_an_int(self, cutter):
        seed = SimConfig(cutter, (1.0,) * 6, seed=np.uint8(3)).seed
        assert type(seed) is int and seed == 3

    def test_damping_bounds(self, cutter):
        with pytest.raises(ConfigError):
            SimConfig(cutter, (1.0,) * 6, damping_ratio=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["noise_rms", "eccentricity",
                                       "resonance_hz", "rpm", "rpm_end",
                                       "duration_s", "sample_rate_hz"])
    def test_non_finite_value_rejected_naming_its_field(self, cutter, field,
                                                        value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            SimConfig(cutter, (1.0,) * 6, **{field: value})

    @pytest.mark.parametrize("duration_s", [1e-5, 2e-5])
    def test_record_shorter_than_one_sample_rejected(self, cutter, duration_s):
        # 0.25 and 0.5 samples at 25 kHz both round to none
        with pytest.raises(ConfigError,
                           match="duration_s .* sample_rate_hz .* one sample"):
            SimConfig(cutter, (1.0,) * 6, duration_s=duration_s)

    def test_one_sample_record_simulates(self, cutter):
        out = simulate(SimConfig(cutter, (1.0,) * 6, noise_rms=0.01,
                                 duration_s=2.5e-5))
        assert {len(ts) for ts in out.channels.values()} == {1}

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


def _worker_case(cutter, case, **overrides):
    settings = dict(rpm=RPM, noise_rms=0.01, duration_s=0.4, seed=42)
    settings.update(WORKER_CASES[case], **overrides)
    return SimConfig(cutter, (1.0, 1.0, 1.0, 0.5, 1.0, 1.0), **settings)


def _sim_bytes(out):
    truth = out.truth
    return ([(ch, ts.samples.tobytes()) for ch, ts in out.channels.items()],
            [a.tobytes() for a in (truth.impact_times_s, truth.impact_tooth,
                                   truth.pulse_times_s)],
            truth.per_tooth_gain, truth.rpm)


@pytest.mark.parametrize("case", WORKER_CASES)
def test_worker_count_changes_no_byte(cutter, monkeypatch, case):
    # README: simulate runs on min(tasks, usable CPUs) threads, and no
    # output byte depends on their number
    cfg = _worker_case(cutter, case)
    outputs = []
    for cpus in (1, 2, 8):
        monkeypatch.setattr(millsim, "_usable_cpus", lambda: cpus)
        outputs.append(_sim_bytes(simulate(cfg)))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("case", WORKER_CASES)
def test_combine_block_changes_no_byte(cutter, monkeypatch, case):
    # 75 000 samples: every block size leaves a partial last block
    cfg = _worker_case(cutter, case, duration_s=3.0)
    outputs = []
    for block in (7, 8192, millsim._COMBINE_BLOCK):
        monkeypatch.setattr(millsim, "_COMBINE_BLOCK", block)
        outputs.append(_sim_bytes(simulate(cfg)))
    assert outputs[0] == outputs[1] == outputs[2]


#: traced bytes a 500 000-sample simulate may allocate beside its nine
#: full-length arrays: 0.13 MB measured with numpy 2.4 at 1 to 8 usable
#: CPUs, 0.9 MB on a process's first call; a tenth full-length array
#: (4 MB) would exceed it
SIMULATE_MARGIN_B = 2_000_000


def test_simulate_memory_and_channel_layout(cutter):
    # the six channels, the tacho and the two trains are the only
    # full-length arrays; each channel is a frozen, contiguous row of its
    # own, and no two share a byte
    cfg = SimConfig(cutter, (1.0,) * 6, rpm=RPM, noise_rms=0.01,
                    duration_s=20.0, seed=1)
    tracemalloc.start()
    try:
        out = simulate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = [ts.samples for ts in out.channels.values()]
    assert len(samples) == 7 and {a.size for a in samples} == {500_000}
    assert peak <= 9 * 8 * 500_000 + SIMULATE_MARGIN_B
    for i, a in enumerate(samples):
        assert not a.flags.writeable and a.flags.c_contiguous
        assert not any(np.shares_memory(a, b) for b in samples[:i])


def _record_trains(monkeypatch):
    """Record each call of millsim's shaping, as (kernel, positions,
    amplitudes, train) once the train is written."""
    calls = []
    real = millsim._shape

    def shape(kernel, pos, amp, out):
        real(kernel, pos, amp, out)
        calls.append((kernel, pos, amp, out))

    monkeypatch.setattr(millsim, "_shape", shape)
    return calls


@pytest.mark.parametrize("case", WORKER_CASES)
def test_channels_follow_the_stream_contract(cutter, monkeypatch, case):
    # README: channel i is default_rng(SeedSequence(seed).spawn(6)[i])
    # .normal(0.0, rms_i, n) + g_i * train, and g_i * train + 0.0 without
    # noise; the vibration train rings through the oscillator kernel, the
    # force train through the force kernel scaled to FORCE_SCALE_N
    cfg = _worker_case(cutter, case)
    calls = _record_trains(monkeypatch)
    out = simulate(cfg)
    (osc, *_, vib), (force_kernel, *_, force) = calls
    fs = cfg.sample_rate_hz
    assert np.array_equal(osc, millsim._oscillator_kernel(
        cfg.resonance_hz, cfg.damping_ratio, fs))
    assert np.array_equal(force_kernel,
                          millsim._force_kernel(fs) * millsim.FORCE_SCALE_N)
    sources = ([(ch, g, vib, cfg.noise_rms)
                for ch, g in millsim.ACCEL_GAINS.items()]
               + [(ch, g, force, cfg.noise_rms * millsim.FORCE_SCALE_N)
                  for ch, g in millsim.FORCE_GAINS.items()])
    streams = np.random.SeedSequence(cfg.seed).spawn(6)
    for (ch, g, train, rms), stream in zip(sources, streams):
        if cfg.noise_rms > 0.0:
            expected = (np.random.default_rng(stream).normal(0.0, rms, vib.size)
                        + g * train)
        else:
            expected = g * train + 0.0
        assert out.channels[ch].samples.tobytes() == expected.tobytes(), ch


def _impulse_train(pos, amp, n):
    """The strike train as a dense impulse series: each strike split
    linearly between the samples around its position, the last sample
    taking a whole strike."""
    impulses = np.zeros(n)
    base = np.floor(pos).astype(int)
    frac = pos - base
    np.add.at(impulses, base, amp * (1.0 - frac))
    np.add.at(impulses, np.minimum(base + 1, n - 1), amp * frac)
    return impulses


@settings(max_examples=40, deadline=None)
@given(z=st.integers(1, 10), rpm=st.floats(100.0, 6000.0),
       ramp=st.one_of(st.none(), st.floats(0.5, 2.0)),
       eccentricity=st.floats(0.0, 0.5), duration_s=st.floats(0.05, 0.4),
       data=st.data())
def test_shaping_matches_the_dense_convolution(z, rpm, ramp, eccentricity,
                                               duration_s, data):
    # both trains equal np.convolve of the dense impulse train with their
    # kernel, to rounding; at 100 rpm and z = 1 strikes are 15 000 samples
    # apart, at 6 000 rpm and z = 10 they are 25, well inside the 612 taps
    gains = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                               min_size=z, max_size=z))
    cutter = Cutter(z=z, diameter_mm=80.0, feed_per_tooth_mm=0.1,
                    cutting_speed_m_min=340.0)
    cfg = SimConfig(cutter, tuple(gains), rpm=rpm,
                    rpm_end=None if ramp is None else rpm * ramp,
                    eccentricity=eccentricity, duration_s=duration_s, seed=1)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _record_trains(monkeypatch)
        simulate(cfg)
    assert calls[0][0].size == 612
    for kernel, pos, amp, train in calls:
        dense = np.convolve(_impulse_train(pos, amp, train.size),
                            kernel)[:train.size]
        assert np.abs(train - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("pos", [8.25, 9.0, 9.75])
def test_shaping_at_the_last_samples(pos):
    # a strike on the last sample keeps both of its parts there
    kernel = np.array([1.0, 2.0, 3.0])
    train = np.full(10, np.nan)
    millsim._shape(kernel, np.array([pos]), np.array([2.0]), train)
    expected = np.convolve(_impulse_train(np.array([pos]), np.array([2.0]), 10),
                           kernel)[:10]
    assert np.array_equal(train, expected)


def _fail_shaping(monkeypatch):
    def shape(*args):
        raise RuntimeError("shaping failed")

    monkeypatch.setattr(millsim, "_shape", shape)


def _fail_fourth_draw(monkeypatch):
    # the generator of the fourth stream, fx's, fails to draw
    real = np.random.default_rng

    class Failing:
        def standard_normal(self, *args, **kwargs):
            raise RuntimeError("fourth draw failed")

    def default_rng(seed):
        return Failing() if seed.spawn_key == (3,) else real(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)


def _fail_started_combine(monkeypatch):
    # the calling thread holds its first combine until a started thread
    # has failed one
    caller = threading.current_thread()
    failed = threading.Event()
    real = millsim._add_scaled

    def combine(*args):
        if threading.current_thread() is caller:
            assert failed.wait(WAIT_S)
            return real(*args)
        failed.set()
        raise RuntimeError("started combine failed")

    monkeypatch.setattr(millsim, "_add_scaled", combine)


FAILURES = {"shaping": _fail_shaping, "fourth draw": _fail_fourth_draw,
            "started combine": _fail_started_combine}


@pytest.mark.parametrize("failing", FAILURES)
def test_worker_failure_propagates_and_no_thread_outlives_the_call(
        cutter, monkeypatch, failing):
    # with 2 usable CPUs each pool runs on the calling thread and a started
    # one; a failed task is raised once both have ended
    monkeypatch.setattr(millsim, "_usable_cpus", lambda: 2)
    FAILURES[failing](monkeypatch)
    cfg = SimConfig(cutter, (1.0,) * 6, rpm=RPM, noise_rms=0.01,
                    duration_s=0.2, seed=0)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        simulate(cfg)
    assert threading.active_count() == threads


@pytest.mark.parametrize("size", [1, 6, 7, 8, 20])
def test_block_combine_is_the_full_length_expression(size):
    rng = np.random.default_rng(size)
    noise, train = rng.normal(size=size), rng.normal(size=size)
    expected = (0.0 + 0.3 * noise + 0.37 * train).tobytes()
    millsim._add_scaled(noise, 0.3, 0.37, train, np.empty(7))
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
