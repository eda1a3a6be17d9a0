import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millenv import (HANN, RECTANGULAR, Band, InputError, RangeError,
                     SizeError, TimeSeries, Window, amplitude_spectrum,
                     analytic_signal, band_filter, detrend, envelope,
                     envelope_spectrum, rms)
from millenv.dsp import band_envelope
from conftest import FS, tone


def dft_amplitude(x, taps, f_hz, fs=FS):
    """Direct DFT summation at one frequency; independent of the FFT path."""
    n = np.arange(x.size)
    return 2.0 * abs(np.sum(x * taps * np.exp(-2j * np.pi * f_hz * n / fs))) / taps.sum()


class TestWindow:
    def test_hann_endpoints_zero(self):
        taps = HANN.taps(64)
        assert taps[0] == 0.0 and taps[-1] == 0.0
        assert len(taps) == 64

    def test_rectangular_all_ones(self):
        assert np.all(RECTANGULAR.taps(17) == 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError):
            Window("blackman")


class TestAmplitudeSpectrum:
    def test_bin_centered_tone(self):
        x = TimeSeries(2.0 * np.sin(2 * np.pi * 100.0 * np.arange(25000) / FS), FS)
        spec = amplitude_spectrum(x, RECTANGULAR)
        k = int(round(100.0 / spec.df_hz))
        assert spec.amplitudes[k] == pytest.approx(2.0, abs=1e-6)
        others = np.delete(spec.amplitudes, k)
        assert others.max() < 1e-9

    def test_all_zeros(self):
        spec = amplitude_spectrum(TimeSeries(np.zeros(1024), FS), RECTANGULAR)
        assert np.all(spec.amplitudes == 0.0)

    def test_single_sample_rejected(self):
        with pytest.raises(SizeError):
            amplitude_spectrum(TimeSeries([1.0], FS))

    def test_two_tone_hann_against_direct_dft(self):
        t = np.arange(int(2 * FS)) / FS
        x = 1.0 * np.sin(2 * np.pi * 135.3 * t) + 0.3 * np.sin(2 * np.pi * 22.55 * t)
        ts = TimeSeries(x, FS)
        spec = amplitude_spectrum(ts, HANN)
        taps = HANN.taps(x.size)
        # reading at the exact tone frequencies recovers the true amplitudes
        assert dft_amplitude(x, taps, 135.3) == pytest.approx(1.0, rel=0.02)
        assert dft_amplitude(x, taps, 22.55) == pytest.approx(0.3, rel=0.02)
        for f_target in (135.3, 22.55):
            k = int(round(f_target / spec.df_hz))
            window = spec.amplitudes[k - 3:k + 4]
            j = k - 3 + int(np.argmax(window))
            # a local maximum sits within one bin of the tone
            assert abs(j * spec.df_hz - f_target) <= spec.df_hz
            # and the FFT bin value matches the direct summation at that bin
            assert spec.amplitudes[j] == pytest.approx(
                dft_amplitude(x, taps, j * spec.df_hz), rel=1e-9)

    def test_parseval_rectangular(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4096)
        spec = amplitude_spectrum(TimeSeries(x, FS), RECTANGULAR)
        n = spec.n_fft
        amps = spec.amplitudes
        energy = (n * amps[0] ** 2 + 0.5 * n * np.sum(amps[1:-1] ** 2)
                  + n * amps[-1] ** 2)
        assert energy == pytest.approx(np.sum(x ** 2), rel=1e-9)

    def test_fft_round_trip_large(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=2 ** 18)
        back = np.fft.irfft(np.fft.rfft(x), x.size)
        assert rms(back - x) <= 1e-9 * rms(x)


class TestBand:
    @pytest.mark.parametrize("lo, hi", [
        (-1.0, 2500.0), (2500.0, 1500.0), (1500.0, 1500.0),
        (1500.0, np.inf), (np.nan, 2500.0), (1500.0, np.nan)])
    def test_edges_must_be_ordered_and_finite(self, lo, hi):
        with pytest.raises(RangeError):
            Band(lo, hi)


class TestBandFilter:
    def test_stopband_and_passband(self):
        t = np.arange(25000) / FS
        x = np.sin(2 * np.pi * 100.0 * t) + np.sin(2 * np.pi * 1000.0 * t)
        out = band_filter(TimeSeries(x, FS), Band(500.0, 1500.0), 50.0)
        spec_in = amplitude_spectrum(TimeSeries(x, FS), RECTANGULAR)
        spec_out = amplitude_spectrum(out, RECTANGULAR)
        k100 = int(round(100.0 / spec_out.df_hz))
        k1000 = int(round(1000.0 / spec_out.df_hz))
        attenuation = spec_out.amplitudes[k100] / spec_in.amplitudes[k100]
        assert attenuation < 10 ** (-60 / 20)
        assert spec_out.amplitudes[k1000] == pytest.approx(
            spec_in.amplitudes[k1000], rel=0.01)

    def test_near_all_pass_equals_detrended_input(self):
        # noise synthesized with empty DC and Nyquist bins: the band
        # (0, Nyquist) exclusive can keep every other bin
        rng = np.random.default_rng(11)
        n = 25000
        bins = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        bins[0] = 0.0
        bins[-1] = 0.0
        x = np.fft.irfft(bins, n)
        ts = TimeSeries(x, FS)
        out = band_filter(ts, Band(1.0, FS / 2 - 1.0), 0.0)
        ref = detrend(ts)
        assert rms(out.samples - ref.samples) <= 1e-9 * rms(ref.samples)

    def test_band_above_nyquist_rejected(self):
        ts = TimeSeries(np.zeros(100), FS)
        with pytest.raises(RangeError):
            band_filter(ts, Band(13000.0, 14000.0), 0.0)

    def test_taper_wider_than_half_band_rejected(self):
        ts = TimeSeries(np.zeros(100), FS)
        with pytest.raises(RangeError):
            band_filter(ts, Band(1000.0, 1100.0), 60.0)

    def test_idempotent_with_zero_taper(self):
        rng = np.random.default_rng(12)
        ts = TimeSeries(rng.normal(size=8192), FS)
        b = Band(800.0, 3200.0)
        once = band_filter(ts, b, 0.0)
        twice = band_filter(once, b, 0.0)
        assert rms(twice.samples - once.samples) <= 1e-9 * rms(once.samples)

    def test_zero_phase_no_delay(self):
        # a symmetric pulse stays symmetric about the same sample
        n = 8192
        x = np.zeros(n)
        x[n // 2] = 1.0
        out = band_filter(TimeSeries(x, FS), Band(1000.0, 4000.0), 100.0)
        assert int(np.argmax(out.samples)) == n // 2
        left = out.samples[n // 2 - 200:n // 2]
        right = out.samples[n // 2 + 1:n // 2 + 201][::-1]
        assert np.allclose(left, right, atol=1e-12)


class TestAnalyticSignal:
    def test_cosine_extends_to_complex_exponential(self):
        x = tone(2000.0)
        z = analytic_signal(TimeSeries(x, FS))
        t = np.arange(x.size) / FS
        expected = np.cos(2 * np.pi * 2000 * t) + 1j * np.sin(2 * np.pi * 2000 * t)
        n = x.size
        core = slice(n // 100, n - n // 100)
        err = np.sqrt(np.mean(np.abs(z[core] - expected[core]) ** 2))
        assert err <= 1e-6

    def test_zeros(self):
        z = analytic_signal(TimeSeries(np.zeros(64), FS))
        assert np.all(z == 0.0)

    def test_real_part_equals_input(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=4096)
        z = analytic_signal(TimeSeries(x, FS))
        assert rms(z.real - x) <= 1e-9 * rms(x)

    def test_no_negative_frequency_energy(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=4096)
        z = analytic_signal(TimeSeries(x, FS))
        spec = np.fft.fft(z)
        neg = np.sum(np.abs(spec[x.size // 2 + 1:]) ** 2)
        assert neg <= 1e-9 * np.sum(np.abs(spec) ** 2)

    def test_against_direct_convolution_oracle(self):
        # band-limited noise, synthesized in the frequency domain
        rng = np.random.default_rng(7)
        n = 4096
        bins = np.zeros(n // 2 + 1, dtype=complex)
        lo, hi = int(0.05 * n), int(0.20 * n)
        bins[lo:hi] = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
        x = np.fft.irfft(bins, n)
        z = analytic_signal(TimeSeries(x, FS))
        # discrete Hilbert kernel 2/(pi*m) on odd lags, truncated
        m = np.arange(-2047, 2048)
        kernel = np.where(m % 2 != 0, 2.0 / (np.pi * np.where(m == 0, 1, m)), 0.0)
        oracle = np.convolve(x, kernel, mode="same")
        mid = slice(n // 4, 3 * n // 4)
        err = rms(z.imag[mid] - oracle[mid]) / rms(oracle[mid])
        assert err <= 0.01

    def test_too_short_rejected(self):
        with pytest.raises(SizeError):
            analytic_signal(TimeSeries([1.0, 2.0, 3.0], FS))

    def test_odd_length_without_padding(self):
        x = tone(1000.0, duration_s=0.2)[:4999]
        z = analytic_signal(TimeSeries(x, FS))
        assert z.size == 4999
        assert rms(z.real - x) <= 1e-9 * rms(x)

    def test_linearity(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=2048)
        y = rng.normal(size=2048)
        a, b = 1.7, -0.4
        lhs = analytic_signal(TimeSeries(a * x + b * y, FS))
        rhs = a * analytic_signal(TimeSeries(x, FS)) + b * analytic_signal(TimeSeries(y, FS))
        assert rms(np.abs(lhs - rhs)) <= 1e-9 * rms(np.abs(rhs))


class TestEnvelope:
    def test_constant_amplitude_tone(self):
        x = tone(2000.0, amp=1.5)
        env = envelope(TimeSeries(x, FS))
        n = x.size
        core = env.samples[n // 100:n - n // 100]
        assert np.all(np.abs(core - 1.5) <= 0.015)

    def test_am_demodulation_identity(self):
        t = np.arange(int(FS)) / FS
        mod = 1.0 + 0.5 * np.cos(2 * np.pi * 20.0 * t)
        x = mod * np.cos(2 * np.pi * 2000.0 * t)
        env = envelope(TimeSeries(x, FS))
        n = t.size
        core = slice(n // 100, n - n // 100)
        err = rms(env.samples[core] - mod[core]) / rms(mod[core])
        assert err <= 0.01

    def test_channel_suffix(self):
        env = envelope(TimeSeries(tone(2000.0, 0.1), FS, "ay"))
        assert env.channel.endswith("env")
        assert len(env) == int(0.1 * FS)

    def test_non_negative(self):
        rng = np.random.default_rng(16)
        env = envelope(TimeSeries(rng.normal(size=1024), FS))
        assert np.all(env.samples >= 0.0)

    @pytest.mark.parametrize("alpha", [2.0, 0.125, 7.3])
    def test_positive_homogeneity(self, alpha):
        rng = np.random.default_rng(17)
        x = rng.normal(size=2048)
        e1 = envelope(TimeSeries(alpha * x, FS)).samples
        e0 = envelope(TimeSeries(x, FS)).samples
        assert np.allclose(e1, alpha * e0, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("phase", [0.3, 1.2, 2.9, -0.7])
    def test_carrier_phase_invariance(self, phase):
        t = np.arange(int(FS)) / FS
        mod = 1.0 + 0.4 * np.cos(2 * np.pi * 15.0 * t)
        ref = envelope(TimeSeries(mod * np.cos(2 * np.pi * 2000.0 * t), FS))
        shifted = envelope(TimeSeries(
            mod * np.cos(2 * np.pi * 2000.0 * t + phase), FS))
        n = t.size
        core = slice(n // 100, n - n // 100)
        err = rms(shifted.samples[core] - ref.samples[core]) / rms(ref.samples[core])
        assert err <= 0.01


class TestEnvelopeSpectrum:
    def test_am_tone_demodulates_to_20_hz(self):
        t = np.arange(int(2 * FS)) / FS
        x = (1.0 + 0.5 * np.cos(2 * np.pi * 20.0 * t)) * np.cos(2 * np.pi * 2000.0 * t)
        spec = envelope_spectrum(TimeSeries(x, FS), Band(1500.0, 2500.0), 50.0,
                                 RECTANGULAR)
        k = int(np.argmax(spec.amplitudes))
        assert k * spec.df_hz == pytest.approx(20.0, abs=spec.df_hz)
        assert spec.amplitudes[k] == pytest.approx(0.5, rel=0.05)

    def test_unmodulated_tone_has_flat_envelope(self):
        x = tone(2000.0, duration_s=2.0, amp=3.0)
        spec = envelope_spectrum(TimeSeries(x, FS), Band(1500.0, 2500.0), 50.0,
                                 RECTANGULAR)
        assert spec.amplitudes.max() < 0.01 * 3.0


REF_BAND = Band(1500.0, 2500.0)

#: every dsp entry point that takes a record, applied to one
ENTRY_POINTS = {
    "band_filter": lambda x: band_filter(x, REF_BAND),
    "analytic_signal": analytic_signal,
    "envelope": envelope,
    "band_envelope": lambda x: band_envelope(x, REF_BAND),
    "amplitude_spectrum": amplitude_spectrum,
    "envelope_spectrum": lambda x: envelope_spectrum(x, REF_BAND),
}


class TestNonFiniteRecord:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_names_channel_and_first_index(self, name, data):
        n = data.draw(st.integers(4, 2000), label="n")
        index = data.draw(st.integers(0, n - 1), label="index")
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        samples = np.cos(0.37 * np.arange(n))
        samples[index] = value
        with np.errstate(all="ignore"), pytest.raises(InputError, match=(
                rf"channel 'ax' has 1 non-finite sample\(s\), "
                rf"the first at index {index}$")):
            ENTRY_POINTS[name](TimeSeries(samples, FS, "ax"))

    @pytest.mark.parametrize("name", ["band_filter", "analytic_signal",
                                      "envelope", "band_envelope"])
    def test_finite_record_with_overflowing_sum_still_runs(self, name):
        # bin 0 is inf, yet every sample is finite: no InputError
        samples = np.zeros(64)
        samples[:40] = 1e308
        with np.errstate(all="ignore"):
            out = ENTRY_POINTS[name](TimeSeries(samples, FS, "ax"))
        assert len(out) == 64

    def test_overflowing_spectrum_is_still_a_range_error(self):
        samples = np.zeros(64)
        samples[:40] = 1e308
        with np.errstate(all="ignore"), pytest.raises(RangeError):
            amplitude_spectrum(TimeSeries(samples, FS, "ax"))
