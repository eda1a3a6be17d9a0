import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millenv import (Band, Frf, ImpactRecord, InputError, RangeError,
                     TimeSeries, estimate_frf, propose_bands, split_impacts)
from millenv.modal import _half_power_edges
from conftest import FS
from reference_modal import reference_half_power_edges


def force_pulse(n, at, width=12, amp=1.0):
    x = np.zeros(n)
    x[at:at + width] = amp * np.hanning(width + 2)[1:-1]
    return x


def receptance_impulse_response(fn_hz, zeta, fs, duration_s=0.2):
    wn = 2 * np.pi * fn_hz
    wd = wn * np.sqrt(1.0 - zeta * zeta)
    t = np.arange(int(duration_s * fs)) / fs
    return np.exp(-zeta * wn * t) * np.sin(wd * t) / wd


def receptance_magnitude(f_hz, fn_hz, zeta):
    """Closed-form 1-DOF receptance magnitude (unit modal mass)."""
    wn = 2 * np.pi * fn_hz
    w = 2 * np.pi * np.asarray(f_hz)
    return 1.0 / np.sqrt((wn * wn - w * w) ** 2 + (2 * zeta * wn * w) ** 2)


def sdof_impacts(fn_hz=800.0, zeta=0.05, n_impacts=10, n=25000,
                 noise_frac=0.02, seed=3):
    rng = np.random.default_rng(seed)
    h = receptance_impulse_response(fn_hz, zeta, FS)
    records = []
    for _ in range(n_impacts):
        force = force_pulse(n, at=int(0.10 * n),
                            amp=1.0 + 0.2 * rng.standard_normal())
        resp = np.convolve(force, h)[:n] / FS
        resp = resp + rng.normal(0.0, noise_frac * np.abs(resp).max(), n)
        records.append(ImpactRecord(TimeSeries(force, FS, "hammer", "N"),
                                    TimeSeries(resp, FS, "ax", "m")))
    return records


class TestImpactRecord:
    def test_mismatched_rates_rejected(self):
        f = TimeSeries(force_pulse(1000, 100), FS, "hammer")
        r = TimeSeries(np.zeros(1000), FS / 2, "ax")
        with pytest.raises(InputError):
            ImpactRecord(f, r)

    def test_mismatched_lengths_rejected(self):
        f = TimeSeries(force_pulse(1000, 100), FS, "hammer")
        r = TimeSeries(np.zeros(999), FS, "ax")
        with pytest.raises(InputError):
            ImpactRecord(f, r)

    def test_zero_force_rejected(self):
        with pytest.raises(InputError):
            ImpactRecord(TimeSeries(np.zeros(1000), FS, "hammer"),
                         TimeSeries(np.ones(1000), FS, "ax"))


class TestEstimateFrf:
    def test_pure_gain(self):
        # windows off: this exercises the bare H1 estimator
        force = force_pulse(4096, 400)
        rec = ImpactRecord(TimeSeries(force, FS, "hammer"),
                           TimeSeries(2.0 * force, FS, "ax"))
        frf = estimate_frf([rec, rec], force_gate_frac=None,
                           response_decay_end=None)
        spec_f = np.abs(np.fft.rfft(force))
        excited = spec_f > 1e-6 * spec_f.max()
        assert np.allclose(np.abs(frf.h1[excited]), 2.0, rtol=1e-9)
        assert np.allclose(frf.coherence[excited], 1.0, atol=1e-9)

    def test_pure_delay_unit_gain_and_phase_slope(self):
        d = 25
        force = force_pulse(4096, 400)
        resp = np.roll(force, d)
        rec = ImpactRecord(TimeSeries(force, FS, "hammer"),
                           TimeSeries(resp, FS, "ax"))
        frf = estimate_frf([rec], force_gate_frac=None, response_decay_end=None)
        spec_f = np.abs(np.fft.rfft(force))
        excited = np.flatnonzero(spec_f > 1e-3 * spec_f.max())[:200]
        assert np.allclose(np.abs(frf.h1[excited]), 1.0, rtol=1e-6)
        phase = np.unwrap(np.angle(frf.h1[excited]))
        freqs = frf.frequencies_hz[excited]
        slope = np.polyfit(freqs, phase, 1)[0]
        assert slope == pytest.approx(-2 * np.pi * d / FS, rel=1e-3)

    def test_single_impact_coherence_degenerate(self):
        frf = estimate_frf(sdof_impacts(n_impacts=1, noise_frac=0.0))
        assert frf.n_averages == 1
        mag = np.abs(frf.h1)
        strong = mag > 1e-3 * mag.max()
        assert np.allclose(frf.coherence[strong], 1.0, atol=1e-9)

    def test_sdof_oracle_peak_and_coherence(self):
        zeta = 0.05
        frf = estimate_frf(sdof_impacts(zeta=zeta))
        mag = np.where(frf.coherence >= 0.9, np.abs(frf.h1), 0.0)
        k = int(np.argmax(mag))
        f_peak = k * frf.df_hz
        f_expected = 800.0 * np.sqrt(1.0 - 2.0 * zeta * zeta)
        assert abs(f_peak - f_expected) <= 0.01 * f_expected
        assert frf.coherence[k] > 0.95
        # magnitude profile tracks the closed-form receptance near resonance
        ks = np.arange(k - 40, k + 41)
        ratio = np.abs(frf.h1[ks]) / receptance_magnitude(ks * frf.df_hz, 800.0, zeta)
        assert ratio.std() / ratio.mean() < 0.05

    def test_gain_linearity_exact(self):
        records = sdof_impacts(n_impacts=3)
        scaled = [ImpactRecord(r.force, r.response.with_samples(
            2.0 * r.response.samples)) for r in records]
        base = estimate_frf(records)
        big = estimate_frf(scaled)
        assert np.array_equal(np.abs(big.h1), 2.0 * np.abs(base.h1))
        assert np.allclose(big.coherence, base.coherence, atol=1e-12)

    def test_coherence_bounded_for_arbitrary_inputs(self):
        rng = np.random.default_rng(9)
        records = []
        for _ in range(4):
            f = rng.normal(size=2048)
            x = rng.normal(size=2048)
            records.append(ImpactRecord(TimeSeries(f, FS, "hammer"),
                                        TimeSeries(x, FS, "ax")))
        frf = estimate_frf(records, force_gate_frac=None,
                           response_decay_end=None)
        assert np.all(frf.coherence >= 0.0)
        assert np.all(frf.coherence <= 1.0)

    def test_mismatched_records_rejected(self):
        a = sdof_impacts(n_impacts=1, n=25000)
        b = sdof_impacts(n_impacts=1, n=20000)
        with pytest.raises(InputError):
            estimate_frf([a[0], b[0]])

    def test_exponential_window_metadata(self):
        frf = estimate_frf(sdof_impacts(n_impacts=2))
        assert frf.response_decay_per_s is not None
        assert frf.response_decay_per_s > 0.0
        assert frf.n_averages == 2


class TestProposeBands:
    def test_sdof_band_contains_mode_with_half_power_width(self):
        zeta = 0.05
        frf = estimate_frf(sdof_impacts(zeta=zeta))
        bands = propose_bands(frf, n_bands=1)
        assert len(bands) == 1
        band = bands[0]
        assert band.f_lo_hz < 800.0 < band.f_hi_hz
        expected_width = 2.0 * zeta * 800.0
        assert band.width_hz == pytest.approx(expected_width, rel=0.3)

    def test_flat_frf_yields_nothing(self):
        frf = Frf(np.full(1001, 2.0 + 0.0j), np.ones(1001), 1.0)
        assert propose_bands(frf, n_bands=3) == []

    def test_two_well_separated_modes(self):
        # closed-form sum of two receptances on a 1 Hz grid
        freqs = np.arange(5001.0)
        mag = (receptance_magnitude(freqs, 800.0, 0.04)
               + receptance_magnitude(freqs, 2000.0, 0.04))
        frf = Frf(mag.astype(complex), np.ones(freqs.size), 1.0)
        bands = propose_bands(frf, n_bands=2)
        assert len(bands) == 2
        covers = sorted((b.f_lo_hz, b.f_hi_hz) for b in bands)
        assert covers[0][0] < 800.0 < covers[0][1]
        assert covers[1][0] < 2000.0 < covers[1][1]
        assert covers[0][1] < covers[1][0]  # disjoint

    def test_low_coherence_peak_filtered_out(self):
        freqs = np.arange(3001.0)
        mag = receptance_magnitude(freqs, 800.0, 0.05)
        coh = np.ones(freqs.size)
        coh[750:850] = 0.2  # kill coherence around the only peak
        frf = Frf(mag.astype(complex), coh, 1.0)
        assert propose_bands(frf, n_bands=1) == []

    def test_bands_within_valid_range(self):
        frf = estimate_frf(sdof_impacts())
        for band in propose_bands(frf, n_bands=2):
            assert 0.0 < band.f_lo_hz < band.f_hi_hz <= FS / 2

    def test_bad_n_bands(self):
        frf = Frf(np.ones(10, dtype=complex), np.ones(10), 1.0)
        with pytest.raises(RangeError):
            propose_bands(frf, n_bands=0)


@st.composite
def magnitude_cases(draw):
    """|H1| of 2 to 2000 bins, a peak bin and a bin width.

    Resonances may peak at either end; small integers give ties and
    plateaus; some bins may sit exactly on the -3 dB level, and the chosen
    peak is the maximum, either end or any bin.
    """
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["resonance", "noise", "levels"]))
    if kind == "resonance":
        center = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
        width = draw(st.floats(0.5, 2.0 * n))
        mag = 1.0 / (1.0 + ((np.arange(n) - center) / width) ** 2)
        mag += draw(st.sampled_from([0.0, 0.01, 0.2])) * rng.random(n)
    else:
        mag = rng.random(n) if kind == "noise" else rng.integers(0, 4, n) * 1.0
    peak = draw(st.sampled_from(["max", "first", "last", "any"]))
    peak = {"max": int(np.argmax(mag)), "first": 0, "last": n - 1,
            "any": int(rng.integers(n))}[peak]
    if draw(st.booleans()):
        at_level = rng.integers(0, n, draw(st.integers(1, 8)))
        mag[at_level[at_level != peak]] = mag[peak] / np.sqrt(2.0)
    df = draw(st.sampled_from([1.0, 0.1, 2.5, FS / 2048]))
    return mag, peak, df


class TestHalfPowerEdgesMatchesBinWalk:
    @settings(max_examples=300, deadline=None)
    @given(magnitude_cases())
    def test_same_bits(self, case):
        edges = np.array(_half_power_edges(*case))
        expected = np.array(reference_half_power_edges(*case))
        assert edges.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestSplitImpacts:
    def test_splits_multi_hit_recording(self):
        n = 30000
        h = receptance_impulse_response(800.0, 0.05, FS)
        force = np.zeros(n)
        for at in (2000, 12000, 22000):
            force += force_pulse(n, at)
        resp = np.convolve(force, h)[:n] / FS
        records = split_impacts(TimeSeries(force, FS, "hammer"),
                                TimeSeries(resp, FS, "ax"))
        assert len(records) == 3
        lengths = {len(r.force) for r in records}
        assert len(lengths) == 1
        frf = estimate_frf(records)
        mag = np.where(frf.coherence >= 0.9, np.abs(frf.h1), 0.0)
        f_peak = int(np.argmax(mag)) * frf.df_hz
        assert f_peak == pytest.approx(800.0, rel=0.02)

    def test_no_impulses_rejected(self):
        with pytest.raises(InputError):
            split_impacts(TimeSeries(np.zeros(1000), FS, "hammer"),
                          TimeSeries(np.zeros(1000), FS, "ax"))
