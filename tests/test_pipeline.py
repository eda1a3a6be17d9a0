import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millenv import (Band, CoverageError, Cutter, InputError, RangeError,
                     SizeError, Spectrum, TachoTrack, Thresholds, ToothProfile,
                     analyze, analyze_all_channels, averaged_rev_spectrum,
                     classify, slice_time, tooth_segmentation)
from millenv.fileio import dump_report, report_document
from conftest import BAND, analyze_channel, run_simulation
from reference_pipeline import reference_classify


class TestCutter:
    def test_reference_cutter_speed(self, cutter):
        assert cutter.rpm == pytest.approx(1352.8, abs=0.05)
        assert cutter.tooth_passing_hz == pytest.approx(135.28, abs=0.005)

    def test_overspeed_rejected(self):
        with pytest.raises(RangeError):
            Cutter(z=6, diameter_mm=20.0, feed_per_tooth_mm=0.1,
                   cutting_speed_m_min=600.0)  # 9549 rpm

    def test_bad_tooth_count(self):
        with pytest.raises(RangeError):
            Cutter(z=0, diameter_mm=80.0, feed_per_tooth_mm=0.1,
                   cutting_speed_m_min=340.0)


def synthetic_spectrum(f_rot, z, order_amps, tile=8, spr=1152):
    """Spectrum with given amplitudes at integer orders, zeros elsewhere."""
    amps = np.zeros(tile * spr // 2 + 1)
    for order, amp in order_amps.items():
        amps[order * tile] = amp
    return Spectrum(amps, f_rot / tile, tile * spr)


def flat_profile(z=6):
    return tooth_segmentation(np.full(1152, 1.0), z)


class TestClassify:
    F_ROT = 22.55

    def test_single_tooth_order_peak_all_untriggered(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0})
        findings, inconclusive = classify(spec, flat_profile(), self.F_ROT)
        assert not inconclusive
        assert findings
        assert all(not f.triggered for f in findings)

    def test_equal_subharmonic_triggers_asymmetry_ratio_one(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 1.0})
        findings, _ = classify(spec, flat_profile(), self.F_ROT)
        asym = next(f for f in findings if f.kind == "tooth_asymmetry")
        assert asym.triggered
        assert asym.amplitude_ratio == pytest.approx(1.0)
        assert asym.evidence_freq_hz == pytest.approx(self.F_ROT, abs=spec.df_hz)

    def test_all_zero_spectrum_inconclusive(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {})
        findings, inconclusive = classify(spec, flat_profile(), self.F_ROT)
        assert inconclusive
        assert all(not f.triggered for f in findings)

    def test_misalignment_needs_second_harmonic_dominance(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.1, 2: 0.4})
        findings, _ = classify(spec, flat_profile(), self.F_ROT)
        mis = next(f for f in findings if f.kind == "misalignment")
        assert mis.triggered
        assert mis.amplitude_ratio == pytest.approx(0.4)
        # swap: 1/rev above 2/rev suppresses the misalignment verdict
        spec2 = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.5, 2: 0.4})
        findings2, _ = classify(spec2, flat_profile(), self.F_ROT)
        mis2 = next(f for f in findings2 if f.kind == "misalignment")
        assert not mis2.triggered

    def test_weak_tooth_gates_imbalance(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.5})
        weak = tooth_segmentation(
            np.concatenate([np.full(192, 1.0)] * 3
                           + [np.full(192, 0.2)] + [np.full(192, 1.0)] * 2), 6)
        findings, _ = classify(spec, weak, self.F_ROT)
        kinds = {f.kind: f for f in findings if f.triggered}
        assert "weak_tooth" in kinds
        assert kinds["weak_tooth"].tooth_index == 3
        assert "imbalance_or_eccentricity" not in kinds
        assert "tooth_asymmetry" in kinds

    def test_resolution_precondition(self):
        spec = Spectrum(np.zeros(33), 10.0, 64)
        with pytest.raises(RangeError):
            classify(spec, flat_profile(), 22.55)

    def test_triggered_iff_threshold_for_pure_ratio_kinds(self):
        for a1 in (0.05, 0.19, 0.2, 0.21, 0.9):
            spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: a1})
            findings, _ = classify(spec, flat_profile(), self.F_ROT)
            asym = next(f for f in findings if f.kind == "tooth_asymmetry")
            assert asym.triggered == (asym.amplitude_ratio >= asym.threshold)
            weak = next(f for f in findings if f.kind == "weak_tooth")
            assert weak.triggered == (weak.amplitude_ratio >= weak.threshold)


AMPLITUDES = st.sampled_from([0.0, 1e-300, 1e-12, 0.05, 0.2, 1.0, 3.0])


@st.composite
def sparse_spectra(draw):
    """A sparse spectrum, a tooth profile and f_rot for `classify`.

    Every order up to max(3z, 8) + 2 gets a peak of 0, 0.2 or 1 (so ties
    are common) on or next to its bin, and a few stray bins get one too.
    Then the carrier (order z) is set on its bin, possibly to zero, with
    its neighbours cleared. Bins per order is fractional, and the spectrum
    may end below order 3z.
    """
    z = draw(st.integers(1, 8))
    f_rot = draw(st.floats(5.0, 100.0))
    bins_per_order = draw(st.floats(3.0, 12.0))
    n_fft = draw(st.integers(2 * int(np.ceil((z + 1) * bins_per_order)), 800))
    amps = np.zeros(n_fft // 2 + 1)
    n_orders = max(3 * z, 8) + 2
    for k, (offset, amp) in enumerate(draw(st.lists(
            st.tuples(st.integers(-1, 1), st.sampled_from([0.0, 0.2, 1.0])),
            min_size=n_orders, max_size=n_orders)), start=1):
        amps[min(max(int(round(k * bins_per_order)) + offset, 0),
                 amps.size - 1)] = amp
    for i, amp in draw(st.lists(st.tuples(
            st.integers(0, amps.size - 1), AMPLITUDES), max_size=6)):
        amps[i] = amp
    k = int(round(z * bins_per_order))
    amps[max(k - 1, 0):k + 2] = 0.0
    amps[k] = draw(st.sampled_from([0.0, 1e-300, 1.0, 3.0, 10.0]))
    loads = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]),
                          min_size=z, max_size=z))
    spec = Spectrum(amps, f_rot / bins_per_order, n_fft)
    return spec, tooth_segmentation(np.repeat(loads, 16), z), f_rot


class TestClassifyMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(sparse_spectra(), st.sampled_from([0.5, 2.0, 10.0]),
           st.sampled_from([0.05, 0.2, 1.0]))
    def test_same_findings_and_flag(self, case, min_carrier, ratio):
        spec, profile, f_rot = case
        cfg = Thresholds(asym_ratio=ratio, ecc_ratio=ratio,
                         misalign_ratio=ratio, min_carrier=min_carrier)
        assert (classify(spec, profile, f_rot, cfg)
                == reference_classify(spec, profile, f_rot, cfg))

    @pytest.mark.parametrize("z", range(1, 9))
    def test_zero_carrier_inconclusive_like_reference(self, z):
        spec = synthetic_spectrum(
            22.55, z, {k: 1.0 / k for k in range(1, 3 * z + 1) if k != z})
        profile = ToothProfile(np.ones(z))
        got = classify(spec, profile, 22.55)
        assert got[1]
        assert got == reference_classify(spec, profile, 22.55)


class TestAnalyzeOnSimulator:
    def test_symmetric_run_clean(self, symmetric_run, cutter):
        _, _, res = symmetric_run
        assert not res.inconclusive
        assert all(not f.triggered for f in res.findings)
        spec = res.envelope_spectrum
        k = int(np.argmax(spec.amplitudes))
        assert k * spec.df_hz == pytest.approx(cutter.tooth_passing_hz,
                                               abs=spec.df_hz)
        # every sub-tooth order is tiny next to the tooth-passing line
        for order in range(1, 6):
            amp, _ = spec.amplitude_near(order * res.f_rot_hz)
            assert amp < 0.10 * spec.amplitudes[k]

    def test_asymmetric_run_flags_tooth_three(self, asymmetric_run):
        _, _, res = asymmetric_run
        triggered = {f.kind: f for f in res.findings if f.triggered}
        assert "tooth_asymmetry" in triggered
        asym = triggered["tooth_asymmetry"]
        assert asym.evidence_freq_hz == pytest.approx(
            res.f_rot_hz, abs=res.envelope_spectrum.df_hz)
        assert asym.amplitude_ratio >= 0.2
        weak = [f for f in res.findings if f.kind == "weak_tooth" and f.triggered]
        assert len(weak) == 1 and weak[0].tooth_index == 3
        assert res.tooth_profile.weakest_tooth == 3
        # 1/rev energy explained by the weak tooth, not reported as runout
        assert "imbalance_or_eccentricity" not in triggered

    def test_eccentric_run_reports_runout_not_weak_tooth(self, cutter):
        # light damping keeps the 1/rev modulation line strong
        out, track = run_simulation(cutter, [1.0] * 6, eccentricity=0.1,
                                    damping_ratio=0.01)
        res = analyze_channel(out, track, cutter)
        triggered = {f.kind for f in res.findings if f.triggered}
        assert "imbalance_or_eccentricity" in triggered
        assert "weak_tooth" not in triggered

    def test_f_tooth_is_exactly_z_times_f_rot(self, symmetric_run):
        res = symmetric_run[2]
        assert res.f_tooth_hz == res.tooth_profile.z * res.f_rot_hz

    def test_scale_invariance_of_decisions(self, asymmetric_run, cutter):
        out, track, base = asymmetric_run
        scaled = out.channels["ax"].with_samples(37.0 * out.channels["ax"].samples)
        res = analyze(scaled, track, cutter, BAND, Thresholds(),
                      samples_per_rev=1152)
        for fa, fb in zip(base.findings, res.findings):
            assert fa.kind == fb.kind
            assert fa.triggered == fb.triggered
            assert fb.amplitude_ratio == pytest.approx(fa.amplitude_ratio,
                                                       rel=1e-9, abs=1e-12)

    def test_weak_drop_monotone_in_gain_deficit(self, cutter):
        drops = []
        for deficit in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            gains = [1.0] * 6
            gains[3] = 1.0 - deficit
            out, track = run_simulation(cutter, gains, noise_rms=0.0,
                                        duration_s=1.0)
            profile = analyze_channel(out, track, cutter).tooth_profile
            drops.append(-profile.asymmetry_index[3])
        assert np.all(np.diff(drops) > 0.0)

    def test_determinism_bit_identical_reports(self, cutter):
        docs = []
        for _ in range(2):
            out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
            res = analyze_channel(out, track, cutter)
            docs.append(dump_report(report_document({"ax": res})))
        assert docs[0] == docs[1]

    def test_evidence_frequencies_on_rotation_harmonics(self, asymmetric_run):
        res = asymmetric_run[2]
        df = res.envelope_spectrum.df_hz
        for f in res.findings:
            if f.kind in ("tooth_asymmetry", "imbalance_or_eccentricity",
                          "misalignment") and f.triggered:
                order = f.evidence_freq_hz / res.f_rot_hz
                assert abs(order - round(order)) * res.f_rot_hz <= df

    def test_too_few_revolutions(self, cutter):
        out, track = run_simulation(cutter, [1.0] * 6, duration_s=0.5)
        with pytest.raises(CoverageError):
            analyze_channel(out, track, cutter)  # ~11 revs < 20

    def test_speed_read_from_averaged_revolutions(self, cutter):
        # a tacho that starts before the signal: its first revolutions are
        # not averaged, so they must not set the speed either
        out, track = run_simulation(cutter, [1.0] * 6, rpm=1200.0,
                                    rpm_end=1500.0, duration_s=1.2)
        x = slice_time(out.channels["ax"], 0.2, 1.2)
        p = track.pulse_times_s - 0.2
        early = analyze(x, TachoTrack(p), cutter, BAND, samples_per_rev=1152)
        trimmed = analyze(x, TachoTrack(p[p >= 0.0]), cutter, BAND,
                          samples_per_rev=1152)
        np.testing.assert_array_equal(early.averaged_envelope,
                                      trimmed.averaged_envelope)
        assert early.mean_rpm == trimmed.mean_rpm
        assert early.warnings == trimmed.warnings

    def test_speed_drift_warning_on_ramp(self, cutter):
        out, track = run_simulation(cutter, [1.0] * 6, rpm=1200.0,
                                    rpm_end=1500.0, duration_s=1.2)
        res = analyze_channel(out, track, cutter)
        assert any("drift" in w for w in res.warnings)

    def test_indivisible_samples_per_rev_names_fix(self, symmetric_run, cutter):
        out, track, _ = symmetric_run
        with pytest.raises(SizeError, match="multiple of 6"):
            analyze(out.channels["ax"], track, cutter, BAND,
                    samples_per_rev=1024)

    def test_default_samples_per_rev_from_tooth_count(self, symmetric_run,
                                                      cutter):
        out, track, _ = symmetric_run
        res = analyze(out.channels["ax"], track, cutter, BAND)
        assert res.samples_per_rev == 1026  # smallest multiple of 6 >= 1024

    def test_spectrum_tile_keeps_resolution_fine(self, symmetric_run):
        res = symmetric_run[2]
        assert res.f_rot_hz >= 3.0 * res.envelope_spectrum.df_hz


class TestAnalyzeAllChannels:
    def test_weak_tooth_consistent_across_channels(self, asymmetric_run, cutter):
        out, track, _ = asymmetric_run
        channels = [out.channels[c] for c in ("ax", "ay", "az", "fx", "fy", "fz")]
        results, errors = analyze_all_channels(channels, track, cutter, BAND,
                                               samples_per_rev=1152)
        assert not errors
        indices = set()
        for res in results.values():
            weak = [f.tooth_index for f in res.findings
                    if f.kind == "weak_tooth" and f.triggered]
            indices.add(tuple(weak))
        assert indices == {(3,)}

    def test_empty_channel_set(self, symmetric_run, cutter):
        _, track, _ = symmetric_run
        results, errors = analyze_all_channels([], track, cutter, BAND)
        assert results == {} and errors == {}

    def test_one_bad_channel_does_not_abort_others(self, symmetric_run, cutter):
        out, track, _ = symmetric_run
        channels = [out.channels[c] for c in ("ax", "ay", "az", "fx", "fy", "fz")]
        bands = {c: BAND for c in ("ax", "ay", "az", "fx", "fy")}
        bands["fz"] = Band(20000.0, 24000.0)  # beyond Nyquist
        results, errors = analyze_all_channels(channels, track, cutter, bands,
                                               samples_per_rev=1152)
        assert sorted(results) == ["ax", "ay", "az", "fx", "fy"]
        assert list(errors) == ["fz"]
        assert isinstance(errors["fz"], RangeError)

    def test_non_finite_sample_named_before_any_fft(self, symmetric_run,
                                                     cutter, monkeypatch):
        out, track, _ = symmetric_run
        labels = ("ax", "ay", "az", "fx", "fy", "fz")
        samples = out.channels["ay"].samples.copy()
        samples[1234] = np.nan
        channels = [out.channels[c] for c in labels]
        channels[1] = out.channels["ay"].with_samples(samples)
        results, errors = analyze_all_channels(channels, track, cutter, BAND,
                                               samples_per_rev=1152)
        assert sorted(results) == ["ax", "az", "fx", "fy", "fz"]
        assert list(errors) == ["ay"]
        assert isinstance(errors["ay"], InputError)
        assert "'ay'" in str(errors["ay"]) and "1234" in str(errors["ay"])

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT ran on a non-finite channel")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        with pytest.raises(InputError, match="1234"):
            analyze(channels[1], track, cutter, BAND, samples_per_rev=1152)

    def test_taper_mapping_reaches_each_channel(self, symmetric_run, cutter):
        out, track, _ = symmetric_run
        channels = [out.channels[c] for c in ("ax", "ay", "az")]
        tapers = {"ax": 0.0, "ay": 400.0}  # no entry for az
        results, errors = analyze_all_channels(
            channels, track, cutter, BAND, taper_hz=tapers,
            samples_per_rev=1152)
        for ch, taper in tapers.items():
            alone = analyze(out.channels[ch], track, cutter, BAND,
                            taper_hz=taper, samples_per_rev=1152)
            np.testing.assert_array_equal(results[ch].averaged_envelope,
                                          alone.averaged_envelope)
        swapped = analyze(out.channels["ax"], track, cutter, BAND,
                          taper_hz=400.0, samples_per_rev=1152)
        assert not np.array_equal(results["ax"].averaged_envelope,
                                  swapped.averaged_envelope)
        assert sorted(results) == ["ax", "ay"]
        assert isinstance(errors["az"], InputError)

    def test_missing_band_recorded_as_error(self, symmetric_run, cutter):
        out, track, _ = symmetric_run
        results, errors = analyze_all_channels(
            [out.channels["ax"]], track, cutter, {}, samples_per_rev=1152)
        assert not results
        assert isinstance(errors["ax"], InputError)


class TestAveragedRevSpectrum:
    def test_tone_amplitude_exact_on_order_bin(self):
        spr = 1152
        theta = 2 * np.pi * np.arange(spr) / spr
        avg = 3.0 + 0.8 * np.cos(6 * theta + 0.4)
        spec = averaged_rev_spectrum(avg, f_rot_hz=22.55)
        assert spec.amplitudes[6 * 8] == pytest.approx(0.8, rel=1e-9)
        assert spec.amplitudes[0] == pytest.approx(0.0, abs=1e-12)  # mean removed
        assert spec.df_hz == pytest.approx(22.55 / 8)

    def test_off_order_bins_empty(self):
        spr = 1152
        avg = np.cos(2 * np.pi * 6 * np.arange(spr) / spr)
        spec = averaged_rev_spectrum(avg, 22.55)
        mask = np.ones(spec.amplitudes.size, bool)
        mask[6 * 8] = False
        assert spec.amplitudes[mask].max() <= 1e-9
