import sys
import threading
from functools import partial

import numpy as np
import pytest

import millenv.core
from millenv import (RangeError, SizeError, Spectrum, TimeSeries, detrend,
                     rms, slice_time)
from conftest import FS, tone


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(SizeError):
            TimeSeries([], FS)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(RangeError):
            TimeSeries([1.0, 2.0], rate)

    def test_samples_are_read_only(self):
        ts = TimeSeries([1.0, 2.0, 3.0], FS)
        with pytest.raises(ValueError):
            ts.samples[0] = 9.0

    def test_duration_consistent_under_slicing(self):
        ts = TimeSeries(np.zeros(25000), FS)
        part = slice_time(ts, 0.1, 0.7)
        assert part.duration_s == pytest.approx(len(part) / FS, abs=0)
        assert len(part) == 15000


class TestDetrend:
    def test_constant_maps_to_zero(self):
        ts = TimeSeries(np.full(1000, 5.0), FS)
        assert np.all(detrend(ts).samples == 0.0)

    def test_zero_mean_sine_unchanged(self):
        x = tone(100.0)  # whole periods at 25 kHz
        ts = TimeSeries(x, FS)
        out = detrend(ts)
        assert np.allclose(out.samples, x, atol=1e-12)

    def test_offset_sine(self):
        x = tone(100.0)
        out = detrend(TimeSeries(2.0 + x, FS))
        assert np.allclose(out.samples, x, atol=1e-12 * rms(x) * len(x) ** 0.5)
        assert abs(out.samples.mean()) <= 1e-12 * rms(x)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(rng.normal(3.0, 1.0, 4096), FS)
        once = detrend(ts)
        twice = detrend(once)
        assert np.array_equal(twice.samples, once.samples)

    def test_preserves_metadata(self):
        ts = TimeSeries([1.0, 2.0, 3.0], FS, "fy", "N")
        out = detrend(ts)
        assert (out.channel, out.unit, out.sample_rate_hz) == ("fy", "N", FS)
        assert len(out) == 3


class TestSliceTime:
    def test_half_second_sample_count(self):
        ts = TimeSeries(np.arange(25000, dtype=float), FS)
        assert len(slice_time(ts, 0.0, 0.5)) == 12500

    def test_full_slice_is_identity(self):
        ts = TimeSeries(np.arange(25000, dtype=float), FS)
        out = slice_time(ts, 0.0, ts.duration_s)
        assert np.array_equal(out.samples, ts.samples)

    def test_reversed_bounds_raise(self):
        ts = TimeSeries(np.zeros(25000), FS)
        with pytest.raises(RangeError):
            slice_time(ts, 0.2, 0.1)

    def test_out_of_range_names_interval(self):
        ts = TimeSeries(np.zeros(2500), FS)
        with pytest.raises(RangeError, match="0.1"):
            slice_time(ts, 0.0, 0.5)

    def test_negative_start_raises(self):
        ts = TimeSeries(np.zeros(2500), FS)
        with pytest.raises(RangeError):
            slice_time(ts, -0.01, 0.05)

    @pytest.mark.parametrize("a,c", [(0.1, 0.3), (0.2, 0.5), (0.04, 0.02)])
    def test_composition(self, a, c):
        rng = np.random.default_rng(1)
        ts = TimeSeries(rng.normal(size=25000), FS)
        via_two = slice_time(slice_time(ts, a, 0.9), 0.0, c)
        direct = slice_time(ts, a, a + c)
        assert np.array_equal(via_two.samples, direct.samples)


class TestRms:
    def test_zeros(self):
        assert rms(TimeSeries(np.zeros(100), FS)) == 0.0

    def test_sine_amplitude_two(self):
        x = tone(100.0, amp=2.0)
        assert rms(TimeSeries(x, FS)) == pytest.approx(1.4142, abs=1e-3)

    def test_constant(self):
        assert rms(TimeSeries(np.full(50, 3.0), FS)) == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [2.0, -3.5, 0.001, -1.0])
    def test_absolute_homogeneity(self, alpha):
        rng = np.random.default_rng(2)
        x = rng.normal(size=2048)
        assert rms(alpha * x) == pytest.approx(abs(alpha) * rms(x), rel=1e-12)


class TestSpectrumType:
    def test_rejects_negative_amplitudes(self):
        with pytest.raises(RangeError):
            Spectrum([1.0, -0.1, 0.0], 1.0, 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(SizeError):
            Spectrum([1.0, 0.0], 1.0, 8)

    def test_bin_frequencies(self):
        sp = Spectrum([0.0, 1.0, 0.0], 2.5, 4)
        assert np.array_equal(sp.frequencies_hz, [0.0, 2.5, 5.0])


def test_free_workers_run_each_task_once_at_a_short_switch_interval():
    # threads switch every microsecond, so a take of the next task that is
    # not atomic would run some task twice or never
    ran = []
    tasks = [partial(ran.append, i) for i in range(2000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        millenv.core._on_workers(tasks, 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(2000))


@pytest.mark.parametrize("n_tasks", [0, 1])
def test_workers_start_no_thread_beyond_the_tasks(n_tasks):
    # min(len(tasks), workers) workers: one task or none runs on the
    # calling thread alone
    ran = []
    tasks = [lambda: ran.append(threading.current_thread())] * n_tasks
    threads = threading.active_count()
    millenv.core._on_workers(tasks, 8)
    assert ran == [threading.current_thread()] * n_tasks
    assert threading.active_count() == threads


@pytest.mark.parametrize("value", [2.0, 2.5, float("nan"), "2", None])
def test_count_rejects_what_operator_index_does_not_take(value):
    with pytest.raises(RangeError, match="n must be a whole number"):
        millenv.core._count(value, "n", 1)


def test_count_takes_integers_at_or_above_the_least():
    assert millenv.core._count(np.int64(3), "n", 3) == 3
    assert type(millenv.core._count(np.int64(3), "n", 3)) is int
    with pytest.raises(RangeError, match="n must be >= 3, got 2"):
        millenv.core._count(2, "n", 3)
