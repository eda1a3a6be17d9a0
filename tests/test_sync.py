import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millenv import (CoverageError, InputError, PulseDetectionError,
                     PulseQualityError, RangeError, SizeError, TachoTrack,
                     TimeSeries, detect_pulses,
                     resample_to_angle, rms, speed_profile,
                     synchronous_average, tooth_segmentation)
from millenv.sync import revolution_plan
from conftest import FS, sector_peaks
from reference_sync import reference_detect_pulses


def square_wave(freq_hz, duration_s=1.0, fs=FS):
    t = np.arange(int(duration_s * fs)) / fs
    return np.where(np.sin(2 * np.pi * freq_hz * t) >= 0.0, 1.0, 0.0)


def scan_crossings(x, threshold, fs=FS):
    """Independent oracle: naive scan for upward threshold crossings."""
    times = []
    for i in range(1, x.size):
        if x[i - 1] < threshold <= x[i]:
            frac = (threshold - x[i - 1]) / (x[i] - x[i - 1])
            times.append((i - 1 + frac) / fs)
    return np.asarray(times)


class TestTachoTrack:
    def test_needs_two_pulses(self):
        with pytest.raises(PulseDetectionError):
            TachoTrack([0.5])

    def test_rejects_non_increasing(self):
        with pytest.raises(InputError):
            TachoTrack([0.0, 0.2, 0.2, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError, match="finite"):
            TachoTrack([0.0, 0.1, bad, 0.3])
        with pytest.raises(InputError, match="finite"):
            TachoTrack([0.0, bad])

    def test_gap_consistency(self):
        with pytest.raises(PulseQualityError):
            TachoTrack([0.0, 0.1, 0.2, 0.4])  # one 2x gap

    def test_nominal_rpm_from_median_gap(self):
        track = TachoTrack(np.arange(10) / 22.5)
        assert track.nominal_rpm == pytest.approx(1350.0, rel=1e-9)
        assert track.n_revs == 9


class TestDetectPulses:
    def test_square_wave_example(self):
        ts = TimeSeries(square_wave(22.5), FS, "tacho")
        track = detect_pulses(ts, threshold=0.5, hysteresis=0.1)
        assert len(track.pulse_times_s) == 22
        assert track.nominal_rpm == pytest.approx(1350.0, abs=1.0)

    def test_matches_direct_scan_oracle(self):
        ts = TimeSeries(square_wave(22.5), FS, "tacho")
        track = detect_pulses(ts, threshold=0.5, hysteresis=0.1)
        oracle = scan_crossings(ts.samples, 0.5)
        assert oracle.size == track.pulse_times_s.size
        assert np.allclose(track.pulse_times_s, oracle, atol=1e-12)

    def test_non_finite_sample_named(self):
        x = square_wave(22.5)
        x[1000] = np.nan
        with pytest.raises(InputError, match=r"'tacho' has 1 non-finite "
                           r"sample\(s\), the first at index 1000"):
            detect_pulses(TimeSeries(x, FS, "tacho"), 0.5, 0.1)

    def test_constant_signal_fails(self):
        with pytest.raises(PulseDetectionError):
            detect_pulses(TimeSeries(np.zeros(25000), FS, "tacho"), 0.5, 0.1)

    def test_dropped_pulse_names_gap(self):
        x = square_wave(22.5)
        period = FS / 22.5
        lo = int(9.75 * period)
        hi = int(10.6 * period)
        x[lo:hi] = 0.0
        with pytest.raises(PulseQualityError, match="2.00x median"):
            detect_pulses(TimeSeries(x, FS, "tacho"), 0.5, 0.1)

    @pytest.mark.parametrize("threshold, hysteresis", [
        (np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1),
        (0.5, np.nan), (0.5, np.inf)])
    def test_non_finite_level_is_range_error(self, threshold, hysteresis):
        ts = TimeSeries(square_wave(625.0)[:400], FS, "tacho")
        assert len(detect_pulses(ts, 0.5, 0.1).pulse_times_s) == 9
        with pytest.raises(RangeError, match="must be finite"):
            detect_pulses(ts, threshold, hysteresis)

    def test_hysteresis_rejects_chatter(self):
        # noisy plateau near the threshold must fire once, not many times
        x = square_wave(22.5)
        rng = np.random.default_rng(3)
        noisy = x + 0.04 * rng.standard_normal(x.size)
        track = detect_pulses(TimeSeries(noisy, FS, "tacho"), 0.5, 0.2)
        assert len(track.pulse_times_s) == 22

    def test_interpolated_timing_accuracy_on_ramps(self):
        # sawtooth ramps cross the threshold between samples
        f_saw = 22.5
        t = np.arange(int(FS)) / FS
        saw = (t * f_saw) % 1.0
        track = detect_pulses(TimeSeries(saw, FS, "tacho"), 0.5, 0.3)
        k = np.arange(track.pulse_times_s.size)
        true_times = (k + 0.5) / f_saw
        err_samples = np.abs(track.pulse_times_s - true_times) * FS
        assert err_samples.max() < 0.1


@st.composite
def tacho_cases(draw):
    """A tacho record of 2 to 2000 samples with a threshold and hysteresis.

    Noise and random walks chatter around any level; noisy squares and
    sines give evenly spaced pulses; rounding to 0.1 puts samples exactly
    on the threshold and on the re-arm level.
    """
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "walk", "square", "sine"]))
    period = draw(st.integers(2, max(2, n // 3)))
    phase = np.arange(n) % period / period
    x = {"noise": lambda: rng.standard_normal(n),
         "walk": lambda: np.cumsum(rng.standard_normal(n)) * 0.2,
         "square": lambda: (phase < 0.5).astype(float),
         "sine": lambda: 0.5 + 0.5 * np.sin(2.0 * np.pi * phase)}[kind]()
    x = x + draw(st.sampled_from([0.0, 0.02, 0.1, 0.3])) * rng.standard_normal(n)
    if draw(st.booleans()):
        x = np.round(x, 1)
    threshold = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7]) | st.floats(-2.0, 2.0))
    hysteresis = draw(st.sampled_from([0.1, 0.2, 0.4]) | st.floats(-0.05, 2.0))
    rate = draw(st.sampled_from([1.0, 1000.0, FS]))
    return TimeSeries(x, rate, "tacho"), threshold, hysteresis


def pulse_outcome(detect, case):
    """Pulse times as float64 bits, or the error class and message."""
    try:
        return detect(*case).pulse_times_s.view(np.int64).tolist()
    except Exception as err:
        return type(err), str(err)


class TestDetectPulsesMatchesEdgeWalk:
    @settings(max_examples=300, deadline=None)
    @given(tacho_cases())
    def test_same_bits_or_same_error(self, case):
        assert (pulse_outcome(detect_pulses, case)
                == pulse_outcome(reference_detect_pulses, case))


class TestSpeedProfile:
    def test_uniform_gaps(self):
        track = TachoTrack(np.arange(23) / 22.5)
        prof = speed_profile(track)
        assert prof.shape == (22, 2)
        assert np.allclose(prof[:, 1], 1350.0, rtol=1e-9)

    def test_shrinking_gaps_rpm_rises(self):
        gaps = np.linspace(0.05, 0.04, 40)
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        prof = speed_profile(TachoTrack(times))
        assert prof[0, 1] == pytest.approx(1200.0, rel=1e-9)
        assert prof[-1, 1] == pytest.approx(1500.0, rel=1e-9)
        assert np.all(np.diff(prof[:, 1]) > 0)

    def test_two_pulses_one_entry(self):
        prof = speed_profile(TachoTrack([0.0, 0.05]))
        assert prof.shape == (1, 2)
        assert prof[0, 0] == pytest.approx(0.025)


class TestResampleToAngle:
    def test_constant_speed_sixth_order_tone(self):
        f_rot = 1353.0 / 60.0
        t = np.arange(int(FS)) / FS
        x = np.cos(2 * np.pi * 6 * f_rot * t)
        pulses = np.arange(int(f_rot) + 1) / f_rot
        ang = resample_to_angle(TimeSeries(x, FS), TachoTrack(pulses), 1024)
        theta = 2 * np.pi * np.arange(1024) / 1024
        expected = np.tile(np.cos(6 * theta), len(ang))
        assert rms(ang.ravel() - expected) / rms(expected) <= 0.005

    def test_chirp_with_angle_domain_cosine(self):
        # ground truth generated in the angle domain, then mapped to time
        T = 2.0
        f0, f1 = 1200.0 / 60.0, 1500.0 / 60.0
        beta = (f1 - f0) / T
        t = np.arange(int(T * FS)) / FS
        revs = f0 * t + 0.5 * beta * t * t
        x = np.cos(2 * np.pi * revs)
        ks = np.arange(int(revs[-1]) + 1)
        pulses = (np.sqrt(f0 * f0 + 2 * beta * ks) - f0) / beta
        ang = resample_to_angle(TimeSeries(x, FS), TachoTrack(pulses), 1024)
        expected = np.tile(np.cos(2 * np.pi * np.arange(1024) / 1024), len(ang))
        assert rms(ang.ravel() - expected) / rms(expected) <= 0.01
        # angular spectrum: single order peak at order 1
        spec = np.abs(np.fft.rfft(ang.ravel()))
        peak = int(np.argmax(spec[1:])) + 1
        assert peak == len(ang)  # order 1 = one cycle per revolution
        rest = np.delete(spec[1:], peak - 1)
        assert rest.max() < 0.05 * spec[peak]

    def test_one_read_only_row_per_revolution(self):
        # 20 revolutions of 1250 samples inside a 25 001-sample record
        pulses = np.arange(21) / 20.0
        x = TimeSeries(np.arange(25001.0), FS)
        ang = resample_to_angle(x, TachoTrack(pulses), 100)
        assert ang.shape == (20, 100)
        assert not ang.flags.writeable
        # at constant speed sample j of revolution r lies at 1250 r + 12.5 j,
        # and the cubic interpolation of a ramp is the ramp
        expected = 1250.0 * np.arange(20)[:, None] + 12.5 * np.arange(100)
        np.testing.assert_allclose(ang, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("spr", [1024.0, 1024.5, "1024", None])
    def test_samples_per_rev_must_be_a_whole_number(self, spr):
        x = TimeSeries(np.zeros(25000), FS)
        with pytest.raises(RangeError, match=f"samples_per_rev must be a "
                                             f"whole number, got {spr!r}"):
            resample_to_angle(x, TachoTrack([0.0, 0.05]), spr)

    @pytest.mark.parametrize("flag", [True, False])
    def test_samples_per_rev_is_not_a_bool(self, flag):
        x = TimeSeries(np.zeros(25000), FS)
        with pytest.raises(RangeError, match=f"^samples_per_rev must be a "
                                             f"whole number, got {flag}$"):
            revolution_plan(x, TachoTrack([0.0, 0.05]), flag)

    def test_signal_shorter_than_one_rev(self):
        ts = TimeSeries(np.zeros(100), FS)
        with pytest.raises(CoverageError):
            resample_to_angle(ts, TachoTrack([0.0, 0.05]), 256)

    def test_matches_time_interpolation_at_constant_speed(self):
        rng = np.random.default_rng(21)
        bins = np.zeros(12501, dtype=complex)
        bins[10:400] = rng.normal(size=390) + 1j * rng.normal(size=390)
        x = np.fft.irfft(bins, 25000)
        f_rot = 20.0
        pulses = np.arange(21) / f_rot
        ang = resample_to_angle(TimeSeries(x, FS), TachoTrack(pulses), 1000)
        # at constant speed angular sampling is uniform time sampling
        t_target = (np.arange(ang.size) / 1000) / f_rot
        expected = np.interp(t_target, np.arange(x.size) / FS, x)
        assert rms(ang.ravel() - expected) / rms(expected) <= 0.005


class TestSynchronousAverage:
    def test_identical_pattern_recovered_exactly(self):
        pattern = np.sin(2 * np.pi * np.arange(256) / 256)
        a = resample_like(pattern, 10)
        assert np.allclose(synchronous_average(a), pattern, atol=1e-15)

    def test_noise_suppression_factor(self):
        rng = np.random.default_rng(42)
        pattern = np.sin(2 * np.pi * np.arange(256) / 256)
        noise = rng.normal(0.0, 0.5, (100, 256))
        a = make_angular(np.tile(pattern, 100) + noise.ravel(), 256)
        avg = synchronous_average(a)
        residual = rms(avg - pattern)
        assert residual == pytest.approx(0.5 / 10.0, rel=0.3)

    def test_single_rev_unchanged(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=128)
        a = make_angular(x, 128)
        assert np.array_equal(synchronous_average(a), x)

    def test_linearity_on_exact_values(self):
        rng = np.random.default_rng(2)
        x = rng.integers(-8, 8, 512).astype(float)
        y = rng.integers(-8, 8, 512).astype(float)
        ax = make_angular(x, 128)
        ay = make_angular(y, 128)
        axy = make_angular(x + y, 128)
        assert np.array_equal(synchronous_average(axy),
                              synchronous_average(ax) + synchronous_average(ay))

    @pytest.mark.parametrize("shape", [(128,), (0, 128), (2, 4, 16)])
    def test_rejects_other_than_rows_of_revolutions(self, shape):
        # a flat series of N revolutions would otherwise average as one
        with pytest.raises(SizeError, match=re.escape(f"got shape {shape}")):
            synchronous_average(np.zeros(shape))


def make_angular(values, spr):
    return np.reshape(values, (-1, spr))


def resample_like(pattern, n_revs):
    return make_angular(np.tile(pattern, n_revs), pattern.size)


class TestToothSegmentation:
    def test_constant_envelope_all_equal(self):
        profile = tooth_segmentation(np.full(1152, 2.5), 6)
        assert np.all(profile.mean_load == 2.5)
        assert np.all(profile.asymmetry_index == 0.0)

    def test_asymmetry_sums_to_zero(self):
        rng = np.random.default_rng(3)
        profile = tooth_segmentation(np.abs(rng.normal(1.0, 0.3, 1152)), 6)
        assert abs(profile.asymmetry_index.sum()) <= 1e-9

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(4)
        avg = np.abs(rng.normal(1.0, 0.3, 1152))
        base = tooth_segmentation(avg, 6)
        for k in range(1, 6):
            rolled = tooth_segmentation(np.roll(avg, -k * 192), 6)
            assert np.array_equal(rolled.mean_load, np.roll(base.mean_load, -k))

    def test_offset_shift_by_one_tooth_permutes(self):
        rng = np.random.default_rng(5)
        avg = np.abs(rng.normal(1.0, 0.3, 1152))
        base = tooth_segmentation(avg, 6, tooth0_offset_frac=0.0)
        shifted = tooth_segmentation(avg, 6, tooth0_offset_frac=1.0 / 6.0)
        assert np.array_equal(shifted.mean_load, np.roll(base.mean_load, -1))

    def test_scaling_leaves_asymmetry_unchanged(self):
        rng = np.random.default_rng(6)
        avg = np.abs(rng.normal(1.0, 0.3, 1152))
        base = tooth_segmentation(avg, 6)
        scaled = tooth_segmentation(3.7 * avg, 6)
        assert np.allclose(scaled.mean_load, 3.7 * base.mean_load, rtol=1e-12)
        assert np.allclose(scaled.asymmetry_index, base.asymmetry_index,
                           atol=1e-9)

    def test_indivisible_length_names_fix(self):
        with pytest.raises(SizeError, match="multiple of 6"):
            tooth_segmentation(np.zeros(1000), 6)

    def test_rejects_revolutions_not_averaged(self):
        # 6 rows of 192 samples would otherwise read as one 1152-sample
        # revolution
        with pytest.raises(SizeError, match="one-dimensional"):
            tooth_segmentation(np.ones((6, 192)), 6)

    @pytest.mark.parametrize("z", [6.0, 0])
    def test_tooth_count_is_a_whole_number_of_at_least_one(self, z):
        with pytest.raises(RangeError, match="tooth count must be"):
            tooth_segmentation(np.zeros(1152), z)

    def test_all_zero_envelope(self):
        profile = tooth_segmentation(np.zeros(1152), 6)
        assert np.all(profile.mean_load == 0.0)
        assert np.all(profile.asymmetry_index == 0.0)

    def test_bad_offset_rejected(self):
        with pytest.raises(RangeError):
            tooth_segmentation(np.zeros(1152), 6, tooth0_offset_frac=1.0)


class TestSectorPeaks:
    def test_finds_known_peaks(self):
        n = 1152
        avg = np.zeros(n)
        true = []
        for i in range(6):
            k = i * 192 + 40
            avg[k - 2:k + 3] = [0.2, 0.8, 1.0, 0.8, 0.2]
            true.append(float(k))
        peaks = sector_peaks(avg, 6)
        assert np.allclose(peaks, true, atol=0.01)

    def test_works_without_divisibility(self):
        avg = np.zeros(1024)
        avg[100] = 1.0
        peaks = sector_peaks(avg, 6)
        assert peaks.size == 6
