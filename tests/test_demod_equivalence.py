"""The fused demodulation kernels against the reference chain.

`band_envelope` replaces band_filter -> analytic_signal -> abs and takes
the band's rfft bins from short row transforms, and `analyze_all_channels`
builds one interpolation plan per record length and sample rate for all
its channels and averages the revolutions block by block, in parts of the
angle columns; the straightforward forms are kept in `reference_dsp.py`,
and the band's bins are checked against the full rfft.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import millenv.dsp
import millenv.pipeline
from millenv import (Band, InputError, SizeError, TachoTrack, TimeSeries,
                     analyze, analyze_all_channels, analytic_signal,
                     band_filter, detrend, resample_to_angle,
                     synchronous_average)
from millenv.dsp import _band_bins, _band_rfft, band_envelope
from millenv.sync import _PLAN_BLOCK, revolution_plan
from conftest import BAND, FS, SAMPLES_PER_REV
from reference_dsp import (reference_analytic_signal, reference_band_envelope,
                           reference_band_filter, reference_band_mask,
                           reference_decimated_band_envelope,
                           reference_fused_band_envelope,
                           reference_resample_to_angle,
                           reference_rfft_analytic_signal)

LABELS = ("ax", "ay", "az", "fx", "fy", "fz")
TAPER_HZ = 50.0


def head(ts, n):
    return ts.with_samples(ts.samples[:n])


def rel_max_err(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


def rfft_slice(x, k0, width):
    """The band's bins sliced from the full rfft, in place of `_band_rfft`.

    The tests that pin the inverse to `reference_decimated_band_envelope`,
    whose bins are this slice, byte for byte, put it in place of the row
    transforms; `test_band_rfft_matches_full_rfft` bounds the difference.
    """
    return np.fft.rfft(x.samples)[k0:k0 + width]


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
# 24989 and 29989 are prime, 25001 = 23 * 1087
@pytest.mark.parametrize("n", [24989, 25001, 29989])
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


# on the 30 000-sample record: the reference band's 1 199 bins take rows of
# L = 1 200 points, and Band(1500, 1600)'s 120 bins, which rows of their
# own width would split into 250 rows, take 30 rows of L = 1 000 >= n/32
@pytest.mark.parametrize("band, rows, cols",
                         [(BAND, 25, 1200), (Band(1500.0, 1600.0), 30, 1000)],
                         ids=["D=25", "D=30"])
def test_band_envelope_inverse_groups_change_no_byte(asymmetric_run,
                                                    monkeypatch, band, rows,
                                                    cols):
    # the inverse FFT rows are taken a group at a time, and each group's
    # magnitudes overwrite block rows already read; groups of 1 row, of 7
    # rows, whose last group is partial, and of all rows give the bytes of
    # the B-wide rows with strided magnitudes
    out, _, _ = asymmetric_run
    x = out.channels["ax"]
    _, mask = _band_bins(x, band, TAPER_HZ)
    assert millenv.dsp._band_rows(len(x), mask.size) == rows
    assert len(x) == rows * cols
    ref = reference_decimated_band_envelope(x, band, TAPER_HZ)
    monkeypatch.setattr(millenv.dsp, "_band_rfft", rfft_slice)
    for group in (1, 7, rows):
        monkeypatch.setattr(millenv.dsp, "_INVERSE_GROUP", group * cols)
        buffer = np.empty(len(x))
        env = band_envelope(x, band, TAPER_HZ, out=buffer)
        assert env.samples is buffer and not buffer.flags.writeable
        assert buffer.tobytes() == ref.tobytes()


def frozen(n):
    buffer = np.empty(n)
    buffer.flags.writeable = False  # as an earlier call leaves its envelope
    return buffer


@pytest.mark.parametrize("make, error, message", [
    (lambda n: np.empty(n - 1), SizeError,
     "out must be one-dimensional with 30000 samples, got shape (29999,)"),
    (lambda n: np.empty(n + 1), SizeError, "got shape (30001,)"),
    (lambda n: np.empty((n, 1)), SizeError, "got shape (30000, 1)"),
    (lambda n: np.empty(n, dtype=np.int64), InputError,
     "out must be a float64 array, got int64"),
    (lambda n: np.empty(n, dtype=np.float32), InputError,
     "out must be a float64 array, got float32"),
    (frozen, InputError, "out must be a writeable array, got a read-only one"),
    (lambda n: [0.0] * n, InputError, "out must be a numpy array, got list"),
], ids=["short", "long", "2-D", "int", "float32", "read-only", "list"])
def test_band_envelope_checks_out_before_any_transform(monkeypatch, make,
                                                      error, message):
    # a short buffer gave a short envelope, an int one a truncated envelope,
    # and a read-only one failed only after both transforms had run
    x = TimeSeries(np.random.default_rng(28).normal(size=30_000), FS)

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran before out was checked")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(millenv.dsp, "_band_bins", no_transform)
    with pytest.raises(error, match=re.escape(message)):
        band_envelope(x, BAND, TAPER_HZ, out=make(len(x)))


def test_band_envelope_fills_a_strided_out_view():
    x = TimeSeries(np.random.default_rng(28).normal(size=30_000), FS)
    base = np.zeros(2 * len(x))
    env = band_envelope(x, BAND, TAPER_HZ, out=base[::2])
    assert env.samples.base is base and not base[1::2].any()
    assert (env.samples.tobytes()
            == band_envelope(x, BAND, TAPER_HZ).samples.tobytes())


def bins_band(n, k0, width):
    """A band whose untapered mask is nonzero on rfft bins [k0, k0 + width)."""
    df = 1.0 / (n * (1.0 / FS))  # _band_bins' bin spacing
    return Band(k0 * df, (k0 + width - 1) * df)


# (D, L, B), n = D * L: D = 1 at a prime n and for a band of more than half
# the bins; then L = B, and L = 101 > B = 95, where no divisor of n = D * 101
# lies in [95, 101). The rest are n = 33, 64, 65, 250 and 1 250 times 100
# or 101, which rows as long as the band would split into that many rows,
# more than 32: L is the smallest divisor of n at least n/32 and B
@pytest.mark.parametrize("rows, cols, width", [
    (1, 1009, 95), (1, 1000, 501),
    (25, 100, 100), (25, 101, 95), (32, 100, 100), (32, 101, 95),
    (30, 110, 100), (11, 303, 95),     # n = 33 * 100, 33 * 101
    (32, 200, 100), (32, 202, 95),     # 64 *
    (26, 250, 100), (13, 505, 95),     # 65 *
    (25, 1000, 100), (25, 1010, 95),   # 250 *
    (25, 5000, 100), (25, 5050, 95)])  # 1 250 *
def test_band_envelope_bytes_match_decimated_reference(monkeypatch, rows,
                                                      cols, width):
    n = rows * cols
    k0 = 0 if 2 * width > n else n // 5
    band = bins_band(n, k0, width)
    x = TimeSeries(np.random.default_rng(n).normal(size=n), FS)
    got_k0, mask = _band_bins(x, band, 0.0)
    assert (got_k0, mask.size) == (k0, width)
    assert millenv.dsp._band_rows(n, width) == rows
    monkeypatch.setattr(millenv.dsp, "_band_rfft", rfft_slice)
    env = band_envelope(x, band, 0.0).samples
    ref = reference_decimated_band_envelope(x, band, 0.0)
    assert env.tobytes() == ref.tobytes()


# one envelope into a given buffer. At 500 000 samples, the 16 B per
# sample of phase rows plus one inverse group: peaks under numpy 2.4 of
# 9.8 MB, and 10.9 MB with B-wide rows padded to L a group at a time. At
# the prime 499 979, one row each way, one rfft and one ifft of n points:
# 8.6 MB, and 16.8 MB with the one-row inverse taken as a block of one row
@pytest.mark.parametrize("n, bound", [(500_000, 10.4e6), (499_979, 9.1e6)],
                         ids=["n=500000", "prime"])
def test_band_envelope_working_memory(n, bound):
    x = TimeSeries(np.random.default_rng(5).normal(size=n), FS)
    buffer = np.empty(n)
    tracemalloc.start()
    try:
        band_envelope(x, BAND, TAPER_HZ, out=buffer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_analytic_signal_matches_reference_at_even_length():
    x = np.random.default_rng(4096).normal(size=4096)
    z = analytic_signal(TimeSeries(x, FS))
    assert rel_max_err(z, reference_analytic_signal(x)) <= 1e-12


def assert_plan_average_is_synchronous_average(xs, track, spr):
    # the block-wise running sums analyze_all_channels takes, every record
    # of xs in one call that computes each block's taps once, bit for bit;
    # and the whole row split into 1, 2, 3 and 7 column parts, each part
    # averaged on its own and the parts put side by side, byte for byte, as
    # plan.average does on the usable CPUs
    plan = revolution_plan(xs[0], track, spr)
    arrays = [x.samples for x in xs]
    averages = plan._average(arrays, (0, spr))
    assert averages.shape == (len(xs), spr)
    for x, avg in zip(xs, averages):
        np.testing.assert_array_equal(
            avg, synchronous_average(resample_to_angle(x, track, spr)))
    for n in (1, 2, 3, 7):
        edges = [k * spr // n for k in range(n + 1)]
        parts = [plan._average(arrays, cols)
                 for cols in zip(edges[:-1], edges[1:])]
        assert np.hstack(parts).tobytes() == averages.tobytes()
    assert plan.average(arrays).tobytes() == averages.tobytes()


@pytest.mark.parametrize("n", [30000, 24989, 19999])
def test_resample_plan_matches_per_call_interpolation(asymmetric_run, n):
    out, track, _ = asymmetric_run
    # a revolution longer than _PLAN_BLOCK is a block of its own
    for spr in (SAMPLES_PER_REV, 1026, _PLAN_BLOCK + 1000):
        xs = [head(out.channels[ch], n) for ch in ("ax", "fz")]
        for x in xs:
            got = resample_to_angle(x, track, spr).ravel()
            ref = reference_resample_to_angle(x, track.pulse_times_s, spr)
            assert rel_max_err(got, ref) <= 1e-12
        assert_plan_average_is_synchronous_average(xs, track, spr)


def test_resample_plan_clips_at_record_edges():
    # pulses on the first and the last sample: the taps before the first
    # and after the last sample fall back to the edge samples
    x = TimeSeries(np.sin(np.arange(101) * 0.3), FS)
    tacho = TachoTrack(np.array([0.0, 50.0, 100.0]) / FS)
    got = resample_to_angle(x, tacho, 8).ravel()
    ref = reference_resample_to_angle(x, tacho.pulse_times_s, 8)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
    y = x.with_samples(np.cos(np.arange(101) * 0.7) + 2.0)
    assert_plan_average_is_synchronous_average([x, y], tacho, 8)


def test_band_through_0_hz_is_detrended(asymmetric_run, cutter):
    # only a mask that is nonzero at 0 Hz passes the mean, so only such a
    # band is detrended before its envelope; the offset makes the mean large
    out, track, _ = asymmetric_run
    x = out.channels["ax"]
    x = x.with_samples(x.samples + 3.0)
    band = Band(0.0, 2500.0)
    res = analyze(x, track, cutter, band, taper_hz=0.0,
                  samples_per_rev=SAMPLES_PER_REV)
    ref = synchronous_average(resample_to_angle(
        band_envelope(detrend(x), band, 0.0), track, SAMPLES_PER_REV))
    assert rel_max_err(res.averaged_envelope, ref) <= 1e-12


def test_channels_of_one_shape_share_one_plan(asymmetric_run, cutter,
                                              monkeypatch):
    # one plan per channel was 4-10% slower on the 20 s reference record;
    # the second full-length channel takes the first one's plan, not a new
    # one after the cut channel
    out, track, _ = asymmetric_run
    full, ay = out.channels["ax"], out.channels["ay"]
    cut = head(full, 25001)
    # labels keep the results apart: full, cut, full again, then ay
    channels = [full, cut.with_samples(cut.samples, "az"),
                full.with_samples(full.samples, "fx"), ay]
    alone = [analyze(x, track, cutter, BAND, samples_per_rev=SAMPLES_PER_REV)
             for x in channels]
    calls = []

    def counted(*args):
        calls.append(args)
        return revolution_plan(*args)

    monkeypatch.setattr(millenv.pipeline, "revolution_plan", counted)
    results, errors = analyze_all_channels(channels, track, cutter, BAND,
                                           samples_per_rev=SAMPLES_PER_REV)
    assert not errors and len(calls) == 2
    for x, res in zip(channels, alone):
        shared = results[x.channel]
        assert shared.mean_rpm == res.mean_rpm
        assert shared.findings == res.findings
        assert shared.warnings == res.warnings
        assert shared.inconclusive == res.inconclusive
        np.testing.assert_array_equal(shared.averaged_envelope,
                                      res.averaged_envelope)
        np.testing.assert_array_equal(shared.tooth_profile.mean_load,
                                      res.tooth_profile.mean_load)
    calls.clear()
    analyze_all_channels([out.channels[ch] for ch in LABELS], track, cutter,
                         BAND, samples_per_rev=SAMPLES_PER_REV)
    assert len(calls) == 1


# n/D, the length of each row transform both ways, is the smallest divisor
# of n that holds the band and is at least n/32: lengths with few divisors
# (primes, 2 * prime, 2**k +- 1) and 5-smooth ones with many.
LENGTHS = (4, 5, 6, 7,
           11, 101, 1009, 24989, 25013,
           22, 202, 2018, 49978,
           25001,  # 23 * 1087: n/D = 1087 holds the reference band
           15, 17, 255, 257, 4095, 4097,
           8, 60, 1000, 1200, 24000, 30000)


@st.composite
def band_cases(draw):
    n = draw(st.sampled_from(LENGTHS))
    df, nyq = FS / n, FS / 2.0
    u = draw(st.floats(0.0, 1.0))
    v = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["dc", "nyquist", "sub-bin", "reference",
                                 "any"]))
    if kind == "dc":
        band = Band(0.0, nyq * (0.01 + 0.99 * u))
    elif kind == "nyquist":
        band = Band(0.99 * nyq * u, nyq)
    elif kind == "sub-bin":
        # narrower than a bin: holds bin k only when it starts on it
        k = min(int(u * (n // 2)), n // 2 - 1)
        f_lo = (k + 0.5 * v) * df
        band = Band(f_lo, f_lo + 0.4 * df)
    elif kind == "reference":
        band = BAND
    else:
        f_lo = 0.99 * nyq * u
        band = Band(f_lo, f_lo + (nyq - f_lo) * max(v, 0.01))
    taper_hz = draw(st.sampled_from([0.0, band.width_hz / 2.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    x = TimeSeries(np.random.default_rng(seed).normal(size=n), FS)
    return x, band, taper_hz


@settings(max_examples=300, deadline=None)
@given(band_cases())
def test_band_envelope_matches_fused_reference(case):
    x, band, taper_hz = case
    k0, mask = _band_bins(x, band, taper_hz)
    full = reference_band_mask(x, band, taper_hz)
    k1 = k0 + mask.size
    assert full[k0:k1].tobytes() == mask.tobytes()
    assert not full[:k0].any() and not full[k1:].any()
    assert mask.size == 0 or (mask[0] != 0.0 and mask[-1] != 0.0)

    env = band_envelope(x, band, taper_hz).samples
    ref = reference_fused_band_envelope(x, band, taper_hz)
    assert env.shape == ref.shape
    # an empty band gives all zeros on both sides
    assert np.abs(env - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(millenv.dsp, "_band_rfft", rfft_slice)
        env = band_envelope(x, band, taper_hz).samples
    assert env.tobytes() == reference_decimated_band_envelope(
        x, band, taper_hz).tobytes()


def assert_band_rfft_matches_full_rfft(x, k0, width):
    # within 1e-13 of the largest bin, and byte for byte when the record
    # is one row: L, the smallest divisor of n at least max(B, n/32), is n
    n = len(x)
    got = _band_rfft(x, k0, width)
    full = np.fft.rfft(x.samples)
    assert got.shape == (width,) and got.dtype == complex
    if width:
        assert np.abs(got - full[k0:k0 + width]).max() <= (
            1e-13 * np.abs(full).max())
    if millenv.dsp._band_rows(n, width) == 1:
        assert got.tobytes() == full[k0:k0 + width].tobytes()


@settings(max_examples=300, deadline=None)
@given(band_cases())
def test_band_rfft_matches_full_rfft_over_bands(case):
    x, band, taper_hz = case
    k0, mask = _band_bins(x, band, taper_hz)
    assert_band_rfft_matches_full_rfft(x, k0, mask.size)


# (n, k0, B) and the runs of bins whose row residues m = k mod L are
# contiguous: up to L/2 read as they are, above it mirrored
@pytest.mark.parametrize("n, k0, width", [
    (30000, 1000, 400),   # L = 1000: m 0-399, one run
    (30000, 1600, 300),   # m 600-899, mirrored
    (30000, 0, 938),      # m 0-500, then mirrored 501-937: crosses L/2
    (30000, 1800, 400),   # mirrored 800-999, then 0-199: wraps past L
    (30000, 2300, 1000),  # 300-500, mirrored 501-999, then 0-299
    (30000, 14500, 501),  # L/2 = 500, mirrored, then m 0: n's Nyquist bin
    (30000, 900, 1600),   # odd L = 1875: 900-937, mirrored 938-1874, 0-624
    (30000, 1000, 1700),  # L = 1875: mirrored 1000-1874, then 0-824
    (30000, 5000, 0),     # no bins: L = 1000, D = 30, none combined
    (8, 1, 2),            # L = 2, D = 4
    (4, 0, 3),            # L = 4 = n: one row
    (30000, 0, 15001),    # more than half the bins: one row
    (24989, 3000, 1200),  # prime: one row
    (25001, 3000, 1000),  # 23 * 1087: L = 1087, D = 23
])
def test_band_rfft_matches_full_rfft(n, k0, width):
    x = TimeSeries(np.random.default_rng(n + k0).normal(size=n), FS)
    assert_band_rfft_matches_full_rfft(x, k0, width)


def test_band_rows_is_the_most_rows_up_to_32():
    # D divides n into rows of at least B points, and no larger D <= 32 does
    for n in (*range(4, 300), *LENGTHS, 499_979, 500_000):
        for width in {*range(0, min(n // 2 + 2, 300)), n // 33, n // 32,
                      n // 31, n // 2, n // 2 + 1}:
            rows = millenv.dsp._band_rows(n, width)
            assert rows == max(d for d in range(1, 33)
                               if n % d == 0 and n // d >= width)


def test_band_rfft_takes_at_most_32_rows(monkeypatch):
    # a band narrower than a bin holds at most one bin (none here: the
    # taper zeroes it); rows as long as the band would be n transforms of
    # one point each way. Both transforms take at most 32 rows in all
    n = 500_000
    x = TimeSeries(np.random.default_rng(6).normal(size=n), FS)
    rows = {"rfft": 0, "ifft": 0}

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            rows[name] += math.prod(np.shape(a)[:-1])
            return fn(a, *args, **kwargs)
        return wrapper

    for name in rows:
        monkeypatch.setattr(np.fft, name, counted(name))
    band_envelope(x, Band(2000.0, 2000.01))
    assert rows == {"rfft": 32, "ifft": 32}


@settings(max_examples=300, deadline=None)
@given(band_cases())
def test_band_filter_matches_full_mask_reference(case):
    x, band, taper_hz = case
    np.testing.assert_array_equal(band_filter(x, band, taper_hz).samples,
                                  reference_band_filter(x, band, taper_hz))


@pytest.mark.parametrize("n", LENGTHS)
def test_analytic_signal_matches_single_ifft_reference(n):
    x = np.random.default_rng(n).normal(size=n)
    z = analytic_signal(TimeSeries(x, FS))
    assert rel_max_err(z, reference_rfft_analytic_signal(x)) <= 1e-12


def test_analyze_runs_one_rfft_and_one_band_limited_inverse_fft(
        asymmetric_run, cutter, monkeypatch):
    # band_envelope's forward transform is one batch of D rows of n/D
    # points and its inverse another: on the 30 000-sample record the
    # band's 1 199 bins give L = 1 200, D = 25 both ways. Each call is
    # counted by the shape of its output
    out, track, _ = asymmetric_run
    x = out.channels["ax"]
    assert len(x) == 30000
    shapes = []

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            result = fn(a, *args, **kwargs)
            shapes.append((name, result.shape))
            return result
        return wrapper

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    analyze(x, track, cutter, BAND, samples_per_rev=SAMPLES_PER_REV)
    assert sorted(shapes) == sorted([("rfft", (25, 601)), ("ifft", (25, 1200)),
                                     ("rfft", (SAMPLES_PER_REV // 2 + 1,))])
