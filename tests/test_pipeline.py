import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import millenv.pipeline
from millenv import (Band, CoverageError, Cutter, Gate, InputError,
                     RangeError, SizeError, Spectrum, TachoTrack, Thresholds,
                     ToothProfile, analyze, analyze_all_channels,
                     averaged_rev_spectrum, classify, slice_time,
                     tooth_segmentation)
from millenv.fileio import dump_report, report_document
from millenv.sync import RevolutionPlan, revolution_plan
from conftest import (BAND, SAMPLES_PER_REV, WAIT_S, analyze_channel,
                      run_simulation)
from reference_pipeline import (amplitude_near, reference_classify,
                                reference_rev_spectrum)


class TestCutter:
    def test_reference_cutter_speed(self, cutter):
        assert cutter.rpm == pytest.approx(1352.8, abs=0.05)
        assert cutter.tooth_passing_hz == pytest.approx(135.28, abs=0.005)

    def test_overspeed_rejected(self):
        with pytest.raises(RangeError):
            Cutter(z=6, diameter_mm=20.0, feed_per_tooth_mm=0.1,
                   cutting_speed_m_min=600.0)  # 9549 rpm

    @pytest.mark.parametrize("z", [0, 6.5, 6.0, "6"])
    def test_bad_tooth_count(self, z):
        with pytest.raises(RangeError, match="tooth count must be"):
            Cutter(z=z, diameter_mm=80.0, feed_per_tooth_mm=0.1,
                   cutting_speed_m_min=340.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["diameter_mm", "feed_per_tooth_mm",
                                      "cutting_speed_m_min"])
    def test_parameters_finite_and_positive(self, name, value):
        # a NaN diameter gave a NaN rpm, which passed the overspeed check
        kwargs = {"diameter_mm": 80.0, "feed_per_tooth_mm": 0.1,
                  "cutting_speed_m_min": 340.0, name: value}
        with pytest.raises(RangeError, match=f"{name} must be finite and "
                                             "positive"):
            Cutter(z=6, **kwargs)

    def test_tooth_count_stored_as_int(self):
        cutter = Cutter(z=np.int64(6), diameter_mm=80.0,
                        feed_per_tooth_mm=0.1, cutting_speed_m_min=340.0)
        assert type(cutter.z) is int and cutter.z == 6

    @pytest.mark.parametrize("flag", [True, False])
    def test_tooth_count_is_not_a_bool(self, flag):
        # Cutter(True, ...) built a one-tooth cutter
        with pytest.raises(RangeError, match=f"^tooth count must be a whole "
                                             f"number, got {flag}$"):
            Cutter(z=flag, diameter_mm=20.0, feed_per_tooth_mm=0.1,
                   cutting_speed_m_min=85.0)


class TestThresholds:
    @pytest.mark.parametrize("min_revs", [0, np.nan, 2.5, 20.0])
    def test_min_revs_whole_and_at_least_one(self, min_revs):
        # a NaN min_revs passed both revolution gates, and analyze died on
        # an unassigned mean speed
        with pytest.raises(RangeError, match="min_revs must be"):
            Thresholds(min_revs=min_revs)

    def test_min_revs_stored_as_int(self):
        assert type(Thresholds(min_revs=np.int32(5)).min_revs) is int

    @pytest.mark.parametrize("flag", [True, False])
    def test_min_revs_is_not_a_bool(self, flag):
        with pytest.raises(RangeError, match=f"^min_revs must be a whole "
                                             f"number, got {flag}$"):
            Thresholds(min_revs=flag)


def synthetic_spectrum(f_rot, z, order_amps, tile=1, spr=1152):
    """Spectrum with given amplitudes at integer orders, zeros elsewhere.

    With the default tile=1 bin k is order k, as `averaged_rev_spectrum`
    builds it; tile=8 gives the reference's tiled grid.
    """
    amps = np.zeros(tile * spr // 2 + 1)
    for order, amp in order_amps.items():
        amps[order * tile] = amp
    return Spectrum(amps, f_rot / tile, tile * spr)


def flat_profile(z=6):
    return tooth_segmentation(np.full(1152, 1.0), z)


def gate(gates, name):
    """The one gate called `name`."""
    (found,) = [g for g in gates if g.name == name]
    return found


class TestClassify:
    F_ROT = 22.55

    def test_single_tooth_order_peak_all_untriggered(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0})
        findings, gates = classify(spec, flat_profile())
        assert gate(gates, "min_carrier").passed is True
        assert findings
        assert all(not f.triggered for f in findings)

    def test_equal_subharmonic_triggers_asymmetry_ratio_one(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 1.0})
        findings, _ = classify(spec, flat_profile())
        asym = next(f for f in findings if f.kind == "tooth_asymmetry")
        assert asym.triggered
        assert asym.amplitude_ratio == pytest.approx(1.0)
        assert asym.evidence_freq_hz == pytest.approx(self.F_ROT,
                                                      abs=self.F_ROT / 8)

    def test_all_zero_spectrum_inconclusive(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {})
        findings, gates = classify(spec, flat_profile())
        assert gate(gates, "min_carrier").passed is False
        assert all(not f.triggered for f in findings)

    def test_misalignment_needs_second_harmonic_dominance(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.1, 2: 0.4})
        findings, _ = classify(spec, flat_profile())
        mis = next(f for f in findings if f.kind == "misalignment")
        assert mis.triggered
        assert mis.amplitude_ratio == pytest.approx(0.4)
        # swap: 1/rev above 2/rev suppresses the misalignment verdict
        spec2 = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.5, 2: 0.4})
        findings2, _ = classify(spec2, flat_profile())
        mis2 = next(f for f in findings2 if f.kind == "misalignment")
        assert not mis2.triggered

    def test_order_gate_fails_on_a_tie(self):
        # order 2 must exceed order 1, not equal it
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.4, 2: 0.4})
        findings, gates = classify(spec, flat_profile())
        assert gate(gates, "order_2_over_1") == Gate("order_2_over_1", 0.4,
                                                     0.4, False)
        mis = next(f for f in findings if f.kind == "misalignment")
        assert mis.amplitude_ratio >= mis.threshold and not mis.triggered

    def test_weak_tooth_gates_imbalance(self):
        spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: 0.5})
        weak = tooth_segmentation(
            np.concatenate([np.full(192, 1.0)] * 3
                           + [np.full(192, 0.2)] + [np.full(192, 1.0)] * 2), 6)
        findings, _ = classify(spec, weak)
        kinds = {f.kind: f for f in findings if f.triggered}
        assert "weak_tooth" in kinds
        assert kinds["weak_tooth"].tooth_index == 3
        assert "imbalance_or_eccentricity" not in kinds
        assert "tooth_asymmetry" in kinds

    def test_carrier_order_beyond_spectrum_is_range_error(self):
        # 11 samples per revolution reach order 5; the z=6 carrier is absent
        with pytest.raises(RangeError, match="carrier order 6"):
            classify(averaged_rev_spectrum(np.arange(11.0), 22.55),
                     flat_profile())
        # 12 samples reach order 6, the Nyquist bin
        classify(averaged_rev_spectrum(np.arange(12.0), 22.55), flat_profile())

    def test_triggered_iff_threshold_for_pure_ratio_kinds(self):
        for a1 in (0.05, 0.19, 0.2, 0.21, 0.9):
            spec = synthetic_spectrum(self.F_ROT, 6, {6: 1.0, 1: a1})
            findings, _ = classify(spec, flat_profile())
            asym = next(f for f in findings if f.kind == "tooth_asymmetry")
            assert asym.triggered == (asym.amplitude_ratio >= asym.threshold)
            weak = next(f for f in findings if f.kind == "weak_tooth")
            assert weak.triggered == (weak.amplitude_ratio >= weak.threshold)


#: Order amplitudes relative to the carrier's 1.0: zero, the ratio
#: thresholds drawn below, the carrier's own level and above it.
LEVELS = (0.0, 0.05, 0.2, 1.0, 3.0)
TIE_STEP = 1e-6


def order_table_size(spr, z):
    """The orders `classify` reads: max(min((spr - 1)//2, max(3z, 8)), z)."""
    return max(min((spr - 1) // 2, max(3 * z, 8)), z)


@st.composite
def averaged_revolutions(draw):
    """An averaged revolution, its f_rot, a tooth profile and thresholds.

    z is 1 .. 10 and the revolution holds 2z, 3z or 1152 samples. Each
    order up to the Nyquist order and max(3z, 8) + 2 is a cosine of random
    phase (zero phase on the Nyquist bin) whose amplitude comes from LEVELS;
    the carrier, order z, is 1.0. Order k != z is scaled by 1 + k*TIE_STEP,
    so equal levels, a level and an equal ratio threshold, or a carrier and
    min_carrier times the median sit TIE_STEP apart: far above FFT roundoff,
    which would otherwise break such ties differently in the two spectra.
    Orders 1 and 2 are nonzero wherever a finding reports them: a zero
    order reads as roundoff, and the tiled readout may then take a
    neighbouring bin. min_carrier is drawn, or set TIE_STEP below or above
    carrier / median of the order table, so the median gate sits on its
    threshold.
    """
    z = draw(st.integers(1, 10))
    spr = draw(st.sampled_from([2 * z, 3 * z, 1152]))
    f_rot = draw(st.floats(5.0, 100.0))
    orders = np.arange(1, min(spr // 2, max(3 * z, 8) + 2) + 1)
    levels = np.array([
        1.0 if k == z else draw(st.sampled_from(
            LEVELS[1:] if k <= 2 and k < z else LEVELS))
        for k in orders])
    amps = np.where(orders == z, 1.0, levels * (1.0 + orders * TIE_STEP))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = np.where(2 * orders == spr, 0.0,
                      rng.uniform(0.0, 2 * np.pi, orders.size))
    theta = 2 * np.pi * np.arange(spr) / spr
    avg = draw(st.sampled_from([0.0, 5.0])) + np.cos(
        np.outer(theta, orders) + phases) @ amps

    median = float(np.median(amps[:order_table_size(spr, z)]))
    gate = draw(st.sampled_from(["drawn", "below", "above"]))
    if gate == "drawn" or median == 0.0:
        min_carrier = draw(st.sampled_from([0.5, 2.0, 10.0]))
    else:
        side = -1.0 if gate == "below" else 1.0
        min_carrier = (1.0 + side * TIE_STEP) / median
    ratio = draw(st.sampled_from([0.05, 0.2, 1.0]))
    cfg = Thresholds(asym_ratio=ratio, ecc_ratio=ratio,
                     misalign_ratio=ratio, min_carrier=min_carrier)
    loads = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]),
                          min_size=z, max_size=z))
    return avg, f_rot, tooth_segmentation(np.repeat(loads, 16), z), cfg


def assert_same_verdicts(got, want):
    """Same findings, and the `min_carrier` gate fails exactly when the
    reference's inconclusive flag is set; evidence bit-equal, ratios to
    1e-12."""
    assert gate(got[1], "min_carrier").passed is (not want[1])
    assert len(got[0]) == len(want[0])
    for g, w in zip(got[0], want[0]):
        assert (g.kind, g.triggered, g.tooth_index, g.threshold,
                g.evidence_freq_hz) == (w.kind, w.triggered, w.tooth_index,
                                        w.threshold, w.evidence_freq_hz)
        assert g.amplitude_ratio == pytest.approx(w.amplitude_ratio,
                                                  rel=1e-12, abs=0.0)


class TestClassifyMatchesReference:
    """`classify` on the averaged revolution's own spectrum against the
    reference readout of the 8x tiled spectrum of the same revolution."""

    @settings(max_examples=400, deadline=None)
    @given(averaged_revolutions())
    def test_same_findings_and_flag(self, case):
        avg, f_rot, profile, cfg = case
        spec = averaged_rev_spectrum(avg, f_rot)
        got = classify(spec, profile, cfg)
        assert_same_verdicts(
            got, reference_classify(reference_rev_spectrum(avg, f_rot),
                                    profile, f_rot, cfg))
        # each gate holds the very values its comparison read
        findings, gates = got
        z, amps = profile.z, spec.amplitudes
        carrier = gate(gates, "min_carrier")
        assert carrier.value.hex() == float(amps[z]).hex()
        table = amps[1:order_table_size(spec.n_fft, z) + 1]
        assert carrier.threshold == cfg.min_carrier * float(np.median(table))
        assert carrier.passed is (carrier.value > carrier.threshold)
        if z >= 3:
            order = gate(gates, "order_2_over_1")
            assert (order.value, order.threshold) == (amps[2], amps[1])
            assert order.passed is bool(amps[2] > amps[1])
        assert [g.name for g in gates] == (
            ["min_carrier", "order_2_over_1"] if z >= 3 else ["min_carrier"])
        any_weak = any(f.triggered for f in findings if f.kind == "weak_tooth")
        for f in findings:
            if f.kind == "weak_tooth":
                continue
            want = carrier.passed and f.amplitude_ratio >= f.threshold
            if f.kind == "misalignment":
                want = want and order.passed
            if f.kind == "imbalance_or_eccentricity":
                want = want and not any_weak
            assert f.triggered is want, f.kind

    @pytest.mark.parametrize("z", range(1, 9))
    def test_zero_carrier_inconclusive_like_reference(self, z):
        orders = {k: 1.0 / k for k in range(1, 3 * z + 1) if k != z}
        profile = ToothProfile(np.ones(z))
        findings, gates = classify(synthetic_spectrum(22.55, z, orders),
                                   profile)
        assert gate(gates, "min_carrier").passed is False
        assert (findings, True) == reference_classify(
            synthetic_spectrum(22.55, z, orders, tile=8), profile, 22.55)

    @pytest.mark.parametrize("z", range(2, 11))
    def test_revolution_of_z_samples_is_range_error(self, z):
        avg = np.cos(2 * np.pi * np.arange(z) / z) + 2.0
        profile = ToothProfile(np.ones(z))
        with pytest.raises(RangeError):
            classify(averaged_rev_spectrum(avg, 22.55), profile)
        with pytest.raises(RangeError):
            reference_classify(reference_rev_spectrum(avg, 22.55), profile,
                               22.55)

    def test_reference_readout_picks_neighbour(self):
        sp = Spectrum([0.0, 0.0, 0.7, 0.1, 0.0], 1.0, 8)
        amp, freq = amplitude_near(sp, 3.0)
        assert (amp, freq) == (0.7, 2.0)


class TestAnalyzeOnSimulator:
    def test_symmetric_run_clean(self, symmetric_run, cutter):
        _, _, res = symmetric_run
        assert not res.inconclusive
        assert all(not f.triggered for f in res.findings)
        spec = res.envelope_spectrum
        k = int(np.argmax(spec.amplitudes))
        assert k * spec.df_hz == pytest.approx(cutter.tooth_passing_hz,
                                               abs=res.f_rot_hz / 8)
        # every sub-tooth order is tiny next to the tooth-passing line
        for order in range(1, 6):
            assert spec.amplitudes[order] < 0.10 * spec.amplitudes[k]

    def test_asymmetric_run_flags_tooth_three(self, asymmetric_run):
        _, _, res = asymmetric_run
        triggered = {f.kind: f for f in res.findings if f.triggered}
        assert "tooth_asymmetry" in triggered
        asym = triggered["tooth_asymmetry"]
        assert asym.evidence_freq_hz == pytest.approx(
            res.f_rot_hz, abs=res.f_rot_hz / 8)
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
        df = res.f_rot_hz / 8
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
        rpm = revolution_plan(out.channels["ax"], track, SAMPLES_PER_REV).rpm
        drift = float((rpm.max() - rpm.min()) / rpm.mean())
        limit = Thresholds().max_rpm_drift
        assert drift > limit
        assert gate(res.gates, "max_rpm_drift") == Gate(
            "max_rpm_drift", drift, limit, False)
        assert res.warnings == (
            f"spindle speed drifts {100 * drift:.1f}% across the record "
            f"(limit {100 * limit:.1f}%); order tracking absorbs the drift "
            "but Hz readings use the mean speed",)

    def test_constant_speed_passes_drift_gate(self, symmetric_run):
        res = symmetric_run[2]
        assert gate(res.gates, "max_rpm_drift").passed is True
        assert res.warnings == ()

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

    def test_spectrum_bins_are_rotation_orders(self, symmetric_run):
        res = symmetric_run[2]
        spec = res.envelope_spectrum
        assert spec.df_hz == res.f_rot_hz
        assert spec.amplitudes.size == res.samples_per_rev // 2 + 1


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

    def test_samples_per_rev_below_two_fails_before_any_fft(
            self, symmetric_run, cutter, monkeypatch):
        # the plan is built before the band envelope, so this check now
        # comes ahead of min_revs and of every FFT
        out, track, _ = symmetric_run
        short = out.channels["ax"].with_samples(out.channels["ax"].samples[:12500])

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT ran before the plan was built")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        with pytest.raises(RangeError, match="samples_per_rev must be >= 2"):
            analyze(short, track, cutter, BAND, samples_per_rev=0)

    @pytest.mark.parametrize("offset", [1.0, -0.1, float("nan")])
    def test_tooth0_offset_outside_0_1_fails_before_any_fft(
            self, symmetric_run, cutter, monkeypatch, offset):
        # checked with the channel, not after its envelope and average
        out, track, _ = symmetric_run
        channels = [out.channels[c] for c in ("ax", "ay")]

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT ran before the offset was checked")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        results, errors = analyze_all_channels(
            channels, track, cutter, BAND, samples_per_rev=1152,
            tooth0_offset_frac=offset)
        assert not results and sorted(errors) == ["ax", "ay"]
        for err in errors.values():
            assert isinstance(err, RangeError)
            assert str(err) == ("tooth0_offset_frac must be in [0, 1), "
                                f"got {offset}")

    def test_samples_per_rev_below_2z_fails_before_any_fft(
            self, symmetric_run, cutter, monkeypatch):
        # the carrier order z needs 2z angle samples per revolution; with
        # fewer, classify met it only after every envelope and average
        out, track, _ = symmetric_run
        channels = [out.channels[c] for c in ("ax", "ay")]

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT ran before samples_per_rev was checked")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        results, errors = analyze_all_channels(
            channels, track, cutter, BAND, samples_per_rev=6)
        assert not results and sorted(errors) == ["ax", "ay"]
        for err in errors.values():
            assert type(err) is RangeError
            assert str(err) == ("samples_per_rev=6 is below 2z=12, the angle "
                                "samples carrier order 6 needs per revolution")

    @pytest.mark.parametrize("spr", [1152.0, 1152.5])
    def test_float_samples_per_rev_is_a_range_error(self, symmetric_run,
                                                    cutter, spr):
        # revolution_plan's check comes before the test for divisibility
        # by z, so 1152.5 is not reported as indivisible
        out, track, _ = symmetric_run
        with pytest.raises(RangeError, match="samples_per_rev must be a "
                                             f"whole number, got {spr}"):
            analyze(out.channels["ax"], track, cutter, BAND,
                    samples_per_rev=spr)

    def test_channel_without_revolutions_does_not_reach_the_next(
            self, symmetric_run, cutter):
        out, track, full = symmetric_run
        x = out.channels["ax"]
        results, errors = analyze_all_channels(
            [x.with_samples(x.samples[:100], "ay"), x], track, cutter, BAND,
            samples_per_rev=1152)
        assert str(errors["ay"]) == ("signal covers 0 complete revolution(s); "
                                     "need at least 20")
        assert list(errors) == ["ay"]
        np.testing.assert_array_equal(results["ax"].averaged_envelope,
                                      full.averaged_envelope)


def _seven_channels(run):
    """Seven channels in a fixed order, with a non-finite sample in ay, a
    second record length in fx and a band above Nyquist for fy, which only
    the envelope on a worker meets; bands keyed by label."""
    out, _, _ = run
    channels = [out.channels[c] for c in ("ax", "ay", "az", "fx", "fy", "fz")]
    samples = channels[1].samples.copy()
    samples[1234] = np.nan
    channels[1] = channels[1].with_samples(samples)
    channels[3] = channels[3].with_samples(channels[3].samples[:25001])
    channels.append(out.channels["ax"].with_samples(out.channels["ax"].samples,
                                                    "ax2"))
    bands = {x.channel: BAND for x in channels}
    bands["fy"] = Band(20000.0, 24000.0)
    return channels, bands


def _outcome(results, errors):
    return ([(ch, r.averaged_envelope.tobytes(), r.findings, r.gates,
              r.warnings, r.inconclusive) for ch, r in results.items()],
            [(ch, type(e), str(e)) for ch, e in errors.items()])


def test_worker_count_changes_no_output(asymmetric_run, cutter, monkeypatch):
    # README: analysis runs on min(channels, usable CPUs) threads, and no
    # output depends on their number; keys keep the channels' order, which
    # the CLI's error lines keep in turn
    _, track, _ = asymmetric_run
    channels, bands = _seven_channels(asymmetric_run)
    outcomes = []
    for cpus in (1, 2, 8):
        # the envelopes read the count in pipeline, the average in sync
        for module in (millenv.pipeline, millenv.sync):
            monkeypatch.setattr(module, "_usable_cpus", lambda: cpus)
        results, errors = analyze_all_channels(channels, track, cutter, bands,
                                               samples_per_rev=1152)
        assert list(results) == ["ax", "az", "fx", "fz", "ax2"]
        assert list(errors) == ["ay", "fy"]
        outcomes.append(_outcome(results, errors))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("failing", ["ax", "ay", "columns"])
def test_worker_failure_propagates_and_no_thread_outlives_the_call(
        asymmetric_run, cutter, monkeypatch, failing):
    # 3 workers: the first envelope task and the second fail on whichever
    # workers take them; for "columns" the calling thread holds its first
    # column part until a started thread has failed one of the three
    out, track, _ = asymmetric_run
    channels = [out.channels[c] for c in ("ax", "ay", "az", "fx", "fy", "fz")]
    real = millenv.pipeline.band_envelope
    real_average = RevolutionPlan._average
    caller = threading.current_thread()
    failed = threading.Event()

    def band_envelope(x, *args, **kwargs):
        if x.channel == failing:
            raise RuntimeError(f"envelope of {x.channel} failed")
        return real(x, *args, **kwargs)

    def average(plan, arrays, cols):
        if failing == "columns" and threading.current_thread() is caller:
            assert failed.wait(WAIT_S)
        elif failing == "columns":
            failed.set()
            raise RuntimeError(f"average of columns {cols} failed")
        return real_average(plan, arrays, cols)

    for module in (millenv.pipeline, millenv.sync):
        monkeypatch.setattr(module, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(millenv.pipeline, "band_envelope", band_envelope)
    monkeypatch.setattr(RevolutionPlan, "_average", average)
    threads = threading.active_count()
    match = ("average of columns \\((0|384|768), (384|768|1152)\\) failed"
             if failing == "columns" else f"envelope of {failing} failed")
    with pytest.raises(RuntimeError, match=match):
        analyze_all_channels(channels, track, cutter, BAND,
                             samples_per_rev=1152)
    assert threading.active_count() == threads


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # taskset -c 0 leaves one CPU of several in the mask; a system without
    # affinity masks falls back to the CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert millenv.core._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert millenv.core._usable_cpus() == 8


def _set_nan(args):
    samples = args["x"].samples.copy()
    samples[1234] = np.nan
    args["x"] = args["x"].with_samples(samples)


def _cut_to_half_second(args):
    args["x"] = args["x"].with_samples(args["x"].samples[:12500])


#: One fault of channel ax each, in the order the analysis meets them: an
#: edit of the arguments, the error type and its message.
CHANNEL_FAULTS = (
    ("missing band", lambda args: args.update(band={}), InputError,
     "no band configured for channel 'ax'"),
    ("missing taper", lambda args: args.update(taper_hz={}), InputError,
     "no taper configured for channel 'ax'"),
    ("non-finite sample", _set_nan, InputError,
     "channel 'ax' has 1 non-finite sample(s), the first at index 1234"),
    ("samples_per_rev", lambda args: args.update(samples_per_rev=1024),
     SizeError, "samples_per_rev=1024 is not divisible by z=6; "
                "use a multiple of 6 (e.g. 1026)"),
    ("samples_per_rev below 2z", lambda args: args.update(samples_per_rev=6),
     RangeError, "samples_per_rev=6 is below 2z=12, the angle samples "
                 "carrier order 6 needs per revolution"),
    ("few revolutions", _cut_to_half_second, CoverageError,
     "signal covers 10 complete revolution(s); need at least 20"),
    ("band above Nyquist",
     lambda args: args.update(band=Band(20000.0, 24000.0)), RangeError,
     "band [20000.0, 24000.0] Hz exceeds the Nyquist frequency 12500.0 Hz; "
     "valid bands lie within (0, 12500.0]"),
)


@pytest.mark.parametrize("first, second", [
    pytest.param(i, j, id=CHANNEL_FAULTS[i][0] if i == j
                 else f"{CHANNEL_FAULTS[i][0]}, {CHANNEL_FAULTS[j][0]}")
    for i in range(len(CHANNEL_FAULTS)) for j in range(i, len(CHANNEL_FAULTS))])
def test_channel_error_parity_and_precedence(symmetric_run, cutter, first,
                                             second):
    # analyze raises what analyze_all_channels records for the channel, and
    # of two faults the earlier one in CHANNEL_FAULTS wins
    out, track, _ = symmetric_run
    args = dict(x=out.channels["ax"], band=BAND, taper_hz=None,
                samples_per_rev=1152)
    CHANNEL_FAULTS[second][1](args)
    CHANNEL_FAULTS[first][1](args)
    _, _, kind, message = CHANNEL_FAULTS[first]
    x, band = args.pop("x"), args.pop("band")
    results, errors = analyze_all_channels([x], track, cutter, band, **args)
    assert not results
    assert type(errors["ax"]) is kind and str(errors["ax"]) == message
    with pytest.raises(kind) as raised:
        analyze(x, track, cutter, band, **args)
    assert type(raised.value) is kind and str(raised.value) == message


class TestAveragedRevSpectrum:
    def test_tone_amplitude_exact_on_order_bin(self):
        spr = 1152
        theta = 2 * np.pi * np.arange(spr) / spr
        avg = 3.0 + 0.8 * np.cos(6 * theta + 0.4)
        spec = averaged_rev_spectrum(avg, f_rot_hz=22.55)
        assert spec.amplitudes[6] == pytest.approx(0.8, rel=1e-9)
        assert spec.amplitudes[0] == pytest.approx(0.0, abs=1e-12)  # mean removed
        assert spec.df_hz == 22.55

    def test_other_orders_empty(self):
        spr = 1152
        avg = np.cos(2 * np.pi * 6 * np.arange(spr) / spr)
        spec = averaged_rev_spectrum(avg, 22.55)
        mask = np.ones(spec.amplitudes.size, bool)
        mask[6] = False
        assert spec.amplitudes[mask].max() <= 1e-9
