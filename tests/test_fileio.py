import json

import numpy as np
import pytest

import millenv.fileio
import reference_fileio as ref
from millenv import (ConfigError, ParseError, SimConfig, TimeSeries, simulate,
                     slice_time)
from millenv.config import config_from_dict, load_config
from millenv.fileio import (Recording, dump_report, emit_plot_data,
                            read_recording, report_document, write_recording,
                            write_svg, write_xy)
from conftest import FS, RPM, analyze_channel, run_simulation


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


BASE_CONFIG = {
    "cutter": {"z": 6, "diameter_mm": 80.0, "feed_per_tooth_mm": 0.1,
               "cutting_speed_m_min": 340.0},
    "bands": {"default": {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0,
                          "taper_hz": 50.0}},
    "sync": {"samples_per_rev": 1152},
    "io": {"sample_rate_hz": 25000.0},
}


class TestReadRecording:
    def test_full_layout_yields_seven_series_plus_track(self, tmp_path, cutter):
        out = simulate(SimConfig(cutter, (1.0,) * 6, rpm=RPM, duration_s=0.4,
                                 seed=0))
        path = tmp_path / "rec.csv"
        write_recording(out.channels, path)
        rec = read_recording(path)
        assert sorted(rec.channels) == ["ax", "ay", "az", "fx", "fy", "fz",
                                        "tacho"]
        assert rec.tacho is not None
        assert rec.sample_rate_hz == pytest.approx(FS, rel=1e-9)

    def test_round_trip_values_exact(self, tmp_path, cutter):
        out = simulate(SimConfig(cutter, (1.0,) * 6, rpm=RPM, duration_s=0.2,
                                 noise_rms=0.02, seed=3))
        path = tmp_path / "rec.csv"
        write_recording(out.channels, path)
        rec = read_recording(path, sample_rate_hz=FS)
        for ch, ts in out.channels.items():
            assert np.array_equal(rec.channels[ch].samples, ts.samples)

    def test_nan_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [[i / FS, 0.5] for i in range(50)]
        rows[40][1] = "NaN"  # line 42 counting the header
        write_csv(path, "time_s,ax", rows)
        with pytest.raises(ParseError, match="line 42"):
            read_recording(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [[i / FS, 0.5] for i in range(10)]
        rows[4][1] = "oops"
        write_csv(path, "time_s,ax", rows)
        with pytest.raises(ParseError, match="line 6"):
            read_recording(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("time_s,ax\n0.0,1.0\n0.00004\n")
        with pytest.raises(ParseError, match="line 3"):
            read_recording(path)

    def test_missing_mapped_column(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,ax", [[0.0, 1.0], [4e-5, 2.0]])
        with pytest.raises(ParseError, match="vib_x"):
            read_recording(path, columns={"ay": "vib_x"})

    def test_unknown_channel_label_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,ax", [[0.0, 1.0], [4e-5, 2.0]])
        with pytest.raises(Exception, match="unknown channel"):
            read_recording(path, columns={"vibration": "ax"})

    def test_column_remapping(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,sensor_1", [[i / FS, float(i)] for i in range(8)])
        rec = read_recording(path, columns={"az": "sensor_1"})
        assert list(rec.channels) == ["az"]
        assert np.array_equal(rec.channels["az"].samples, np.arange(8.0))

    def test_no_rate_available_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "ax", [[1.0], [2.0]])
        with pytest.raises(ParseError, match="sample rate"):
            read_recording(path)

    def test_declared_rate_wins_with_warning(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,ax", [[i / 20000.0, 0.0] for i in range(10)])
        rec = read_recording(path, sample_rate_hz=25000.0)
        assert rec.sample_rate_hz == 25000.0
        assert any("0.1%" in w for w in rec.warnings)

    def test_agreeing_time_column_no_warning(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,ax", [[i / FS, 0.0] for i in range(10)])
        rec = read_recording(path, sample_rate_hz=FS)
        assert rec.warnings == []


def _body(rows=6):
    return [f"{i / FS!r},{0.25 * i!r},{-0.5 * i!r}" for i in range(rows)]


def _replace(lines, row, line):
    return lines[:row] + [line] + lines[row + 1:]


def _insert(lines, row, line):
    return lines[:row] + [line] + lines[row:]


#: Body variants that take the column parser off its fast path, or nearly
#: so; each is read by both readers and must give the same result.
PARSER_CASES = {
    "clean": _body(),
    "blank_line": _insert(_body(), 3, ""),
    "whitespace_only_line": _insert(_body(), 3, "   "),
    "comment_line": _insert(_body(), 2, "# comment"),
    "trailing_comma_one_row": _replace(_body(), 4, "0.00016,1.0,2.0,"),
    "trailing_comma_every_row": [line + "," for line in _body()],
    "underscore_digits": _replace(_body(), 2, "0.00008,1_0,2.0"),
    "padded_signed_exponent": _replace(_body(), 2, "0.00008, +1e3 ,2.0"),
    "inf_in_time": _replace(_body(), 1, "inf,1.0,2.0"),
    "nan_in_time": _replace(_body(), 1, "nan,1.0,2.0"),
    "inf_in_channel": _replace(_body(), 5, "0.0002,1.0,-inf"),
    "nan_in_channel": _replace(_body(), 5, "0.0002,NaN,2.0"),
    "extra_cell": _replace(_body(), 3, "0.00012,1.0,2.0,3.0"),
    "missing_cell": _replace(_body(), 3, "0.00012,1.0"),
    "no_rows": [],
}


def _read_both(path, **kwargs):
    """Run both readers; each gives a Recording or the ParseError message."""
    outcomes = []
    for reader in (read_recording, ref.read_recording):
        try:
            outcomes.append(reader(path, **kwargs))
        except ParseError as err:
            outcomes.append(str(err))
    return outcomes


def assert_same_recording(new, old):
    if isinstance(old, str):
        assert new == old
        return
    assert not isinstance(new, str), new
    assert list(new.channels) == list(old.channels)
    for ch, ts in old.channels.items():
        assert np.array_equal(new.channels[ch].samples, ts.samples)
        assert new.channels[ch].unit == ts.unit
    assert new.sample_rate_hz == old.sample_rate_hz
    assert new.warnings == old.warnings


class TestParserEquivalence:
    @pytest.mark.parametrize("case", sorted(PARSER_CASES))
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_matches_row_scan(self, tmp_path, case, newline):
        path = tmp_path / "rec.csv"
        lines = ["time_s,ax,ay"] + PARSER_CASES[case]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + newline for line in lines))
        new, old = _read_both(path)
        assert_same_recording(new, old)

    def test_unused_text_column_still_parses(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,ax,note",
                  [[i / FS, float(i), "ok"] for i in range(8)])
        new, old = _read_both(path)
        assert not isinstance(old, str)
        assert_same_recording(new, old)

    def test_remapped_single_column(self, tmp_path):
        path = tmp_path / "rec.csv"
        write_csv(path, "sensor", [[float(i)] for i in range(8)] + [["x"]])
        new, old = _read_both(path, columns={"az": "sensor"},
                              sample_rate_hz=FS)
        assert isinstance(old, str) and "line 10" in old
        assert_same_recording(new, old)

    def test_simulated_recording(self, tmp_path, cutter):
        out = simulate(SimConfig(cutter, (1.0, 1.0, 0.5, 1.0, 1.0, 1.0),
                                 rpm=RPM, duration_s=0.3, seed=5))
        path = tmp_path / "rec.csv"
        write_recording(out.channels, path)
        new, old = _read_both(path)
        assert_same_recording(new, old)
        assert np.array_equal(new.tacho.pulse_times_s, old.tacho.pulse_times_s)

    def test_well_formed_file_skips_row_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "rec.csv"
        write_csv(path, "time_s,ax", [[i / FS, 0.5 * i] for i in range(20)])

        def fail(*args, **kwargs):
            raise AssertionError("row scan used on a well-formed file")

        monkeypatch.setattr(millenv.fileio, "_scan_rows", fail)
        rec = read_recording(path)
        assert np.array_equal(rec.channels["ax"].samples, 0.5 * np.arange(20))


def _random_channels(n, rate):
    rng = np.random.default_rng(11)
    scales = [1.0, 1e-300, 1e300, 3.0e5, 1e-7, 7.0, 1.0]
    channels = {ch: TimeSeries(rng.standard_normal(n) * scale, rate, ch)
                for ch, scale in zip(("ax", "ay", "az", "fx", "fy", "fz",
                                      "tacho"), scales)}
    samples = channels["ax"].samples.copy()
    samples[:4] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
    channels["ax"] = TimeSeries(samples, rate, "ax")
    return channels


class TestWriteRecording:
    @pytest.mark.parametrize("include_time", [True, False])
    def test_bytes_match_per_cell_writer(self, tmp_path, include_time):
        n = 2 * millenv.fileio._WRITE_BLOCK_ROWS + 37
        channels = _random_channels(n, 3.0)
        write_recording(channels, tmp_path / "new.csv", include_time)
        ref.write_recording(channels, tmp_path / "old.csv", include_time)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == n + 1

    def test_simulated_recording_bytes(self, tmp_path, cutter):
        out = simulate(SimConfig(cutter, (1.0,) * 6, rpm=RPM, duration_s=0.1,
                                 noise_rms=0.02, seed=9))
        write_recording(out.channels, tmp_path / "new.csv")
        ref.write_recording(out.channels, tmp_path / "old.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())


class TestReportSerialization:
    def test_reserialization_byte_identical(self, cutter):
        out, track = run_simulation(cutter, [1.0, 1.0, 1.0, 0.5, 1.0, 1.0],
                                    duration_s=1.0)
        res = analyze_channel(out, track, cutter)
        doc = report_document({"ax": res}, config_echo={"seed": 42})
        text = dump_report(doc)
        again = dump_report(json.loads(text))
        assert text == again

    def test_document_structure(self, cutter):
        out, track = run_simulation(cutter, [1.0] * 6, duration_s=1.0)
        res = analyze_channel(out, track, cutter)
        doc = report_document({"ax": res}, errors={"fz": ValueError("boom")})
        ch = doc["channels"]["ax"]
        assert set(ch) >= {"f_rot_hz", "f_tooth_hz", "findings",
                           "tooth_profile", "warnings", "inconclusive"}
        assert ch["f_tooth_hz"] == pytest.approx(6 * ch["f_rot_hz"])
        assert doc["channel_errors"]["fz"] == "ValueError: boom"
        kinds = [f["kind"] for f in ch["findings"]]
        assert "tooth_asymmetry" in kinds and "weak_tooth" in kinds


class TestPlotData:
    def test_xy_and_svg_deterministic(self, tmp_path):
        x = np.linspace(0.0, 10.0, 50)
        y = np.sin(x)
        emit_plot_data(tmp_path / "a", x, y, "test", "x", "y")
        emit_plot_data(tmp_path / "b", x, y, "test", "x", "y")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        svg = (tmp_path / "a.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_xy_columns(self, tmp_path):
        write_xy(tmp_path / "d.txt", [1.0, 2.0], [3.0, 4.0], "f", "a")
        lines = (tmp_path / "d.txt").read_text().splitlines()
        assert lines[0] == "# f a"
        assert lines[1].split() == ["1", "3"]

    def test_xy_bytes_match_per_point_writer(self, tmp_path):
        rng = np.random.default_rng(2)
        x = np.linspace(0.0, 12500.0, 20001)
        y = rng.standard_normal(x.size) * 10.0 ** rng.integers(-300, 300, x.size)
        y[:5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
        write_xy(tmp_path / "new.txt", x, y, "f", "a")
        ref.write_xy(tmp_path / "old.txt", x, y, "f", "a")
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())


PLOT_WIDTH = 800 - 60 - 20  # write_svg's default width minus its margins


def _svg_pair(tmp_path, x, y):
    write_svg(tmp_path / "new.svg", x, y, "t", "x", "y")
    ref.write_svg(tmp_path / "old.svg", x, y, "t", "x", "y")
    return ((tmp_path / "new.svg").read_text(),
            (tmp_path / "old.svg").read_text())


def _polyline(svg):
    line = next(l for l in svg.splitlines() if l.startswith("<polyline"))
    return line.split('points="')[1].split('"')[0].split(" ")


def _pixel_columns(x):
    x = np.asarray(x, dtype=float)
    span = x.max() - x.min()
    scale = PLOT_WIDTH / span if span > 0 else 0.0
    return np.minimum(((x - x.min()) * scale).astype(int), PLOT_WIDTH - 1)


class TestSvgReduction:
    @pytest.mark.parametrize("kind", ["uniform", "plateaus", "constant_x"])
    def test_reduced_polyline_keeps_column_extremes(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        n = 15001
        x = {"uniform": np.linspace(0.0, 12500.0, n),
             "plateaus": np.sort(rng.integers(0, 1500, n)).astype(float),
             "constant_x": np.full(n, 3.0)}[kind]
        y = rng.standard_normal(n)
        new, old = _svg_pair(tmp_path, x, y)
        kept, full = _polyline(new), _polyline(old)
        assert len(kept) <= 4 * PLOT_WIDTH
        # the kept points are a subsequence of the full polyline
        idx, j = [], 0
        for point in kept:
            while full[j] != point:
                j += 1
            idx.append(j)
            j += 1
        idx = np.array(idx)
        col = _pixel_columns(x)
        full_y = np.array([float(p.split(",")[1]) for p in full])
        expected = set()
        for c in np.unique(col):
            members = np.flatnonzero(col == c)
            kept_here = idx[col[idx] == c]
            assert kept_here[0] == members[0] and kept_here[-1] == members[-1]
            assert full_y[kept_here].min() == full_y[members].min()
            assert full_y[kept_here].max() == full_y[members].max()
            expected |= {members[0], members[-1], members[np.argmin(y[members])],
                         members[np.argmax(y[members])]}
        assert idx.tolist() == sorted(expected)
        # everything but the polyline is unchanged
        strip = [l for l in old.splitlines() if not l.startswith("<polyline")]
        assert [l for l in new.splitlines()
                if not l.startswith("<polyline")] == strip

    @pytest.mark.parametrize("case", ["at_threshold", "non_monotonic",
                                      "non_finite_y", "short"])
    def test_unreduced_inputs_match_per_point_writer(self, tmp_path, case):
        rng = np.random.default_rng(6)
        n = {"at_threshold": 4 * PLOT_WIDTH, "short": 50}.get(case, 15001)
        x = np.linspace(-1.0, 1.0, n)
        y = rng.standard_normal(n)
        if case == "non_monotonic":
            x[[100, 101]] = x[[101, 100]]
        if case == "non_finite_y":
            y[7] = np.nan
        new, old = _svg_pair(tmp_path, x, y)
        assert new == old
        assert len(_polyline(new)) == n


class TestRecordingSlice:
    @pytest.fixture()
    def recording(self, symmetric_run):
        out, track, _ = symmetric_run
        return Recording(dict(out.channels), track, FS, ["kept"])

    # at 25 kHz samples lie 40 us apart: 0.10002 s falls between samples
    # 2500 and 2501, so the first kept sample is 2501, as for 0.10004 s
    @pytest.mark.parametrize("t0, first", [(0.1, 2500), (0.10002, 2501),
                                           (0.10004, 2501)])
    def test_pulses_rebased_to_first_kept_sample(self, recording, t0, first):
        part = recording.slice(t0, 1.1)
        start = first / FS
        pulses = recording.tacho.pulse_times_s
        kept = pulses[(pulses >= start) & (pulses <= 1.1)]
        np.testing.assert_array_equal(part.tacho.pulse_times_s, kept - start)
        for ch, ts in recording.channels.items():
            assert part.channels[ch].samples[0] == ts.samples[first]
            np.testing.assert_array_equal(part.channels[ch].samples,
                                          slice_time(ts, t0, 1.1).samples)
        assert part.warnings == ["kept"]

    def test_default_bounds_keep_everything(self, recording):
        part = recording.slice()
        np.testing.assert_array_equal(part.tacho.pulse_times_s,
                                      recording.tacho.pulse_times_s)
        for ch, ts in recording.channels.items():
            np.testing.assert_array_equal(part.channels[ch].samples, ts.samples)


class TestConfig:
    def test_minimal_config(self):
        cfg = config_from_dict(BASE_CONFIG)
        assert cfg.cutter.z == 6
        assert cfg.samples_per_rev == 1152
        assert cfg.band_settings("ax").band.f_lo_hz == 1500.0
        assert cfg.thresholds.asym_ratio == 0.2

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_dict({**BASE_CONFIG, "extras": {}})

    def test_missing_cutter_rejected(self):
        with pytest.raises(ConfigError, match="cutter"):
            config_from_dict({"io": {}})

    def test_indivisible_samples_per_rev_rejected(self):
        bad = {**BASE_CONFIG, "sync": {"samples_per_rev": 1000}}
        with pytest.raises(ConfigError, match="divisible"):
            config_from_dict(bad)

    def test_band_for_unknown_channel_rejected(self):
        bad = {**BASE_CONFIG,
               "bands": {"vibration": {"f_lo_hz": 1.0, "f_hi_hz": 2.0}}}
        with pytest.raises(ConfigError, match="unknown channel"):
            config_from_dict(bad)

    def test_metadata_section_is_free_form(self):
        doc = {**BASE_CONFIG, "metadata": {"depth_of_cut_mm": 0.5,
                                           "material": {"grade": "E24-2"}}}
        before = json.dumps(doc, sort_keys=True)
        cfg = config_from_dict(doc)
        assert cfg.metadata["depth_of_cut_mm"] == 0.5
        # the config owns its copy: editing it leaves the caller's dict alone
        cfg.metadata["b"] = 2
        cfg.metadata["material"]["grade"] = "S355"
        assert json.dumps(doc, sort_keys=True) == before

    def test_sim_section_builds_simconfig(self):
        doc = {**BASE_CONFIG,
               "sim": {"per_tooth_gain": [1, 1, 1, 0.5, 1, 1], "rpm": 1352.8,
                       "duration_s": 1.2, "noise_rms": 0.01, "seed": 42}}
        cfg = config_from_dict(doc)
        assert cfg.sim is not None
        assert cfg.sim.per_tooth_gain[3] == 0.5
        assert cfg.sim.cutter.z == 6

    def test_sim_section_not_mutated(self):
        doc = {**BASE_CONFIG,
               "sim": {"per_tooth_gain": [1, 1, 1, 0.5, 1, 1], "rpm": 1352.8}}
        before = json.dumps(doc, sort_keys=True)
        for _ in range(2):
            assert config_from_dict(doc).sim.per_tooth_gain[3] == 0.5
        assert json.dumps(doc, sort_keys=True) == before

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        cfg = load_config(path)
        assert cfg.sample_rate_hz == 25000.0
