import json
from pathlib import Path

import numpy as np
import pytest

from millenv import Band, Cutter, Thresholds, TimeSeries, analyze_all_channels
from millenv.cli import main
from millenv.fileio import (_x_lines, dump_report, read_recording,
                            report_document, write_recording)
from conftest import FS

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


def write_config(path, **overrides):
    doc = {
        "cutter": {"z": 6, "diameter_mm": 80.0, "feed_per_tooth_mm": 0.1,
                   "cutting_speed_m_min": 340.0},
        "bands": {"default": {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0,
                              "taper_hz": 50.0}},
        "sync": {"samples_per_rev": 1152},
        "io": {"sample_rate_hz": 25000.0},
        "sim": {"per_tooth_gain": [1.0, 1.0, 1.0, 0.5, 1.0, 1.0],
                "rpm": 1352.8, "duration_s": 1.2, "noise_rms": 0.01,
                "seed": 42},
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc, indent=2))
    return path


def config_with(tmp_path, section, key, value):
    """The test config with one key of one section set to value."""
    path = write_config(tmp_path / "c.json")
    doc = json.loads(path.read_text())
    doc.setdefault(section, {})[key] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "run.json")


class TestSimulateCommand:
    def test_writes_recording_and_truth(self, tmp_path, config_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert (out / "recording.csv").is_file()
        truth = json.loads((out / "truth.json").read_text())
        assert truth["per_tooth_gain"][3] == 0.5
        assert truth["rpm"] == pytest.approx(1352.8)
        header = (out / "recording.csv").read_text().splitlines()[0]
        assert header == "time_s,ax,ay,az,fx,fy,fz,tacho"

    def test_missing_sim_section_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", sim=None)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("section, key, value", [
        ("sync", "samples_per_rev", "abc"),
        ("sync", "samples_per_rev", 1152.5),
        ("sync", "tooth0_offset_frac", "x"),
        ("io", "sample_rate_hz", "fast"),
        ("cutter", "z", 6.5),
        ("thresholds", "min_revs", 20.5),
        ("sim", "seed", 1.5),
        ("sim", "duration_s", float("nan")),
        # a number must be a JSON number, not a numeric string
        ("sim", "rpm", "1352.8"),
        ("sync", "samples_per_rev", "1152"),
        ("thresholds", "min_revs", "20"),
        ("cutter", "z", "6"),
        ("sim", "rpm", 10 ** 400),  # an int no float can hold
        ("sim", "per_tooth_gain", [1, 1, 1, float("nan"), 1, 1]),
        ("sim", "per_tooth_gain", ["1", "1", "1", "0.5", "1", "1"]),
        ("sim", "per_tooth_gain", "111111"),
        # the threshold ratios are kept as written, but must be numbers
        ("thresholds", "asym_ratio", True),
        ("thresholds", "asym_ratio", "0.2"),
        ("thresholds", "weak_tooth_drop", False),
        ("thresholds", "ecc_ratio", "0.2"),
        ("thresholds", "misalign_ratio", [0.2]),
        ("thresholds", "min_carrier", "10"),
        ("thresholds", "max_rpm_drift", 10 ** 400),
        # null is "unset" only where the default is unset
        ("cutter", "z", None),
        ("cutter", "diameter_mm", None),
        ("thresholds", "asym_ratio", None),
        ("thresholds", "min_revs", None),
        ("sim", "resonance_hz", None),
        ("sim", "seed", None),
    ])
    def test_bad_number_is_config_error_naming_key(self, tmp_path, capsys,
                                                    section, key, value):
        cfg = config_with(tmp_path, section, key, value)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("channel", ["default", "fz"])
    @pytest.mark.parametrize("key, value", [
        ("f_lo_hz", False),
        ("f_lo_hz", "1500"),
        ("f_hi_hz", True),
        ("f_hi_hz", "2500"),
        ("f_hi_hz", 10 ** 400),
        ("taper_hz", True),
        ("taper_hz", "50"),
        ("f_lo_hz", None),
        ("f_hi_hz", None),
    ])
    def test_bad_band_number_is_config_error_naming_key(
            self, tmp_path, capsys, channel, key, value):
        band = {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0, "taper_hz": 50.0}
        cfg = config_with(tmp_path, "bands", channel, {**band, key: value})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        assert f"bands.{channel}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("sync", "samples_per_revs"), ("io", "sample_rate")])
    def test_unknown_sync_or_io_key_is_config_error(self, tmp_path, capsys,
                                                    section, key):
        cfg = config_with(tmp_path, section, key, 1152)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"unknown {section} key" in err and key in err

    def test_whole_numbers_written_as_ints_give_same_outputs(self, tmp_path):
        # numbers are kept as written, so cutter, io and sim numbers may
        # reach the simulator and the reader as ints; no output may differ
        with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["sim"].update(rpm=1352.0, duration_s=2.0)

        def as_ints(value):
            if isinstance(value, dict):
                return {k: as_ints(v) for k, v in value.items()}
            if isinstance(value, list):
                return [as_ints(v) for v in value]
            if isinstance(value, float) and value.is_integer():
                return int(value)
            return value

        int_doc = {**doc, **{s: as_ints(doc[s]) for s in ("cutter", "io", "sim")}}
        assert type(int_doc["sim"]["duration_s"]) is int
        outputs = []
        for name, d in (("float", doc), ("int", int_doc)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(d))
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            assert main(["analyze", "--config", str(cfg),
                         "--in", str(tmp_path / name / "recording.csv"),
                         "--out", str(tmp_path / name / "out")]) == 0
            report = json.loads((tmp_path / name / "out" / "report.json")
                                .read_text())
            outputs.append(((tmp_path / name / "truth.json").read_bytes(),
                            report["channels"]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("section, key, value", [
        ("cutter", "z", 0),
        ("thresholds", "asym_ratio", -1),
        ("thresholds", "asym_ratio", float("nan")),
        ("thresholds", "asym_ratio", float("inf")),
        ("thresholds", "min_carrier", float("inf")),
        ("sim", "seed", -1),
        # a quarter of one sample at 25 kHz
        ("sim", "duration_s", 1e-5),
        # the cutter comes from the "cutter" section only
        ("sim", "cutter", {"z": 6}),
        ("io", "sample_rate_hz", 0),
        ("bands", "default", {"f_lo_hz": 3000.0, "f_hi_hz": 2500.0}),
        ("bands", "default", {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0,
                              "taper_hz": 900.0}),
        ("bands", "default", {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0,
                              "taper_hz": float("nan")}),
        # above io.sample_rate_hz / 2 = 12 500 Hz
        ("bands", "default", {"f_lo_hz": 1500.0, "f_hi_hz": 20000.0}),
    ])
    def test_out_of_range_value_is_config_error_naming_section(
            self, tmp_path, capsys, command, section, key, value):
        cfg = config_with(tmp_path, section, key, value)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
        if command == "analyze":  # the config fails before the input is read
            argv += ["--in", str(tmp_path / "missing.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"invalid {section}" in err

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("metadata, path", [
        ({"note": float("nan")}, "metadata.note"),
        ({"depth_of_cut_mm": float("inf")}, "metadata.depth_of_cut_mm"),
        ({"tool": {"wear_mm": [0.1, float("-inf")]}},
         "metadata.tool.wear_mm[1]"),
    ])
    def test_non_finite_metadata_is_config_error_naming_path(
            self, tmp_path, capsys, command, metadata, path):
        # the report echoes metadata, and strict JSON has no NaN or Infinity
        cfg = write_config(tmp_path / "c.json", metadata=metadata)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
        if command == "analyze":  # the config fails before the input is read
            argv += ["--in", str(tmp_path / "missing.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and path in err

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_one_sample_per_rev_is_config_error(self, tmp_path, capsys,
                                                command):
        # 1 is divisible by z = 1, but a revolution needs 2 angle samples;
        # loaded, every channel's analysis failed and analyze exited 1
        cfg = write_config(
            tmp_path / "c.json",
            cutter={"z": 1, "diameter_mm": 80.0, "feed_per_tooth_mm": 0.1,
                    "cutting_speed_m_min": 340.0},
            sync={"samples_per_rev": 1},
            sim={"per_tooth_gain": [1.0], "rpm": 1352.8, "duration_s": 1.2})
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
        if command == "analyze":  # the config fails before the input is read
            argv += ["--in", str(tmp_path / "missing.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "sync.samples_per_rev" in err


class TestAnalyzeCommand:
    def test_end_to_end_and_deterministic(self, tmp_path, config_path):
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        reports = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(["analyze", "--config", str(config_path),
                         "--in", str(sim_dir / "recording.csv"),
                         "--out", str(out)])
            assert code == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        doc = json.loads(reports[0])
        assert doc["channel_errors"] == {}
        ax = doc["channels"]["ax"]
        weak = [f for f in ax["findings"]
                if f["kind"] == "weak_tooth" and f["triggered"]]
        assert weak and weak[0]["tooth_index"] == 3
        for stem in ("spectrum_ax", "envelope_ax", "envelope_spectrum_ax",
                     "tooth_profile_ax"):
            assert (tmp_path / "r1" / f"{stem}.txt").is_file()
            assert (tmp_path / "r1" / f"{stem}.svg").is_file()

    def test_time_slicing_flags(self, tmp_path, config_path):
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        code = main(["analyze", "--config", str(config_path),
                     "--in", str(sim_dir / "recording.csv"),
                     "--out", str(tmp_path / "sliced"),
                     "--t0", "0.05", "--t1", "1.15"])
        assert code == 0

    def test_fractional_t0_rebases_tacho_to_first_kept_sample(
            self, tmp_path, config_path):
        # samples lie 40 us apart: both starts keep the same samples (from
        # 0.10004 s on), so the tacho must be re-based by the same time
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        reports = []
        for name, t0 in (("a", "0.10002"), ("b", "0.10004")):
            out = tmp_path / name
            assert main(["analyze", "--config", str(config_path),
                         "--in", str(sim_dir / "recording.csv"),
                         "--out", str(out), "--t0", t0, "--t1", "1.1"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_window_short_of_min_revs_reports_coverage_errors(
            self, tmp_path, config_path, capsys):
        # 0.1 s holds 2 revolutions at 1352.8 rpm, 0.02 s not one pulse pair
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        for name, t1 in (("a", "0.2"), ("b", "0.12")):
            out = tmp_path / name
            assert main(["analyze", "--config", str(config_path),
                         "--in", str(sim_dir / "recording.csv"),
                         "--out", str(out), "--t0", "0.1", "--t1", t1]) == 1
            doc = json.loads((out / "report.json").read_text())
            assert doc["channels"] == {}
            assert sorted(doc["channel_errors"]) == ["ax", "ay", "az", "fx",
                                                     "fy", "fz"]
            assert all(err.startswith("CoverageError: signal covers ")
                       and err.endswith("need at least 20")
                       for err in doc["channel_errors"].values())
        assert "analyzed 0/6 channel(s)" in capsys.readouterr().out

    def test_report_matches_library_path(self, tmp_path):
        bands = {"default": {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0,
                             "taper_hz": 50.0},
                 "ay": {"f_lo_hz": 1500.0, "f_hi_hz": 2500.0,
                        "taper_hz": 200.0}}
        config_path = write_config(tmp_path / "run.json", bands=bands)
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        csv = sim_dir / "recording.csv"
        assert main(["analyze", "--config", str(config_path), "--in", str(csv),
                     "--out", str(tmp_path / "run")]) == 0

        rec = read_recording(csv, sample_rate_hz=25000.0)
        labels = ("ax", "ay", "az", "fx", "fy", "fz")
        results, errors = analyze_all_channels(
            [rec.channels[ch] for ch in labels], rec.tacho,
            Cutter(z=6, diameter_mm=80.0, feed_per_tooth_mm=0.1,
                   cutting_speed_m_min=340.0),
            Band(1500.0, 2500.0), Thresholds(),
            taper_hz={ch: 200.0 if ch == "ay" else 50.0 for ch in labels},
            samples_per_rev=1152)
        expected = dump_report(report_document(
            results, errors, config_echo=json.loads(config_path.read_text())))
        assert (tmp_path / "run" / "report.json").read_text() == expected

    def test_report_echoes_metadata(self, tmp_path):
        metadata = {"depth_of_cut_mm": 0.5, "material": {"grade": "E24-2"}}
        config_path = write_config(tmp_path / "run.json", metadata=metadata)
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        assert main(["analyze", "--config", str(config_path),
                     "--in", str(sim_dir / "recording.csv"),
                     "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["metadata"] == metadata

    def test_reads_config_once(self, tmp_path, config_path, monkeypatch):
        # the report echoes the very document the run config was built from
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(config_path), "--out", str(sim_dir)])
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(config_path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert main(["analyze", "--config", str(config_path),
                     "--in", str(sim_dir / "recording.csv"),
                     "--out", str(tmp_path / "run")]) == 0
        assert len(opened) == 1

    def test_formats_each_shared_x_axis_once(self, tmp_path):
        # the six channels of a plot family share one x axis; the four
        # families are written in turn, so each call formats 4 x columns
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(REFERENCE_CONFIG),
              "--out", str(sim_dir)])
        _x_lines.cache_clear()
        for calls, name in enumerate(("a", "b"), start=1):
            assert main(["analyze", "--config", str(REFERENCE_CONFIG),
                         "--in", str(sim_dir / "recording.csv"),
                         "--out", str(tmp_path / name),
                         "--t0", "0.1", "--t1", "1.1"]) == 0
            assert len(list((tmp_path / name).glob("*.txt"))) == 24
            info = _x_lines.cache_info()
            assert (info.misses, info.hits) == (4 * calls, 20 * calls)

    def test_missing_input_file(self, tmp_path, config_path):
        assert main(["analyze", "--config", str(config_path),
                     "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_invalid_config_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cutter": {"z": 6}}')
        assert main(["analyze", "--config", str(bad),
                     "--in", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("columns", ["ax", ["ax"], {"ax": 1}])
    def test_columns_must_be_object_of_names(self, tmp_path, capsys, columns):
        cfg = config_with(tmp_path, "io", "columns", columns)
        assert main(["analyze", "--config", str(cfg),
                     "--in", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path / "o")]) == 3
        assert "io.columns must be an object" in capsys.readouterr().err

    def test_infinite_band_edge_without_io_rate(self, tmp_path, capsys):
        # with io.sample_rate_hz the Nyquist check would catch it
        cfg = write_config(tmp_path / "c.json", io=None, bands={
            "default": {"f_lo_hz": 1500.0, "f_hi_hz": float("inf")}})
        assert main(["analyze", "--config", str(cfg),
                     "--in", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path / "o")]) == 3
        assert "invalid bands.default" in capsys.readouterr().err

    def test_inconclusive_exits_2(self, tmp_path):
        # nearly silent cutter: envelope spectrum never rises above noise
        cfg = write_config(tmp_path / "c.json",
                           sim={"per_tooth_gain": [0.0] * 6, "rpm": 1352.8,
                                "duration_s": 1.2, "noise_rms": 0.02,
                                "seed": 5})
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(sim_dir)])
        code = main(["analyze", "--config", str(cfg),
                     "--in", str(sim_dir / "recording.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert all(ch["inconclusive"] for ch in doc["channels"].values())


class TestImpactCommand:
    def make_impact_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 30000
        fn, zeta = 800.0, 0.05
        wn = 2 * np.pi * fn
        wd = wn * np.sqrt(1 - zeta * zeta)
        t = np.arange(int(0.2 * FS)) / FS
        h = np.exp(-zeta * wn * t) * np.sin(wd * t) / wd
        force = np.zeros(n)
        for at in (3000, 13000, 23000):
            force[at:at + 12] += np.hanning(14)[1:-1] * (1 + 0.1 * rng.standard_normal())
        resp = np.convolve(force, h)[:n] / FS
        resp += rng.normal(0, 0.01 * np.abs(resp).max(), n)
        path = tmp_path / "impacts.csv"
        write_recording({"ax": TimeSeries(resp, FS, "ax", "m/s^2"),
                         "hammer": TimeSeries(force, FS, "hammer", "N")}, path)
        return path

    def test_proposes_band_around_resonance(self, tmp_path, config_path):
        csv = self.make_impact_csv(tmp_path)
        out = tmp_path / "frf"
        code = main(["impact", "--config", str(config_path), "--in", str(csv),
                     "--out", str(out), "--response", "ax", "--n-bands", "1"])
        assert code == 0
        doc = json.loads((out / "bands.json").read_text())
        assert doc["n_impacts"] == 3
        band = doc["bands"][0]
        assert band["f_lo_hz"] < 800.0 < band["f_hi_hz"]
        assert (out / "frf_magnitude.svg").is_file()
        assert (out / "frf_coherence.txt").is_file()

    def test_flat_response_inconclusive(self, tmp_path, config_path):
        n = 20000
        force = np.zeros(n)
        for at in (4000, 12000):
            force[at:at + 12] += np.hanning(14)[1:-1]
        path = tmp_path / "flat.csv"
        write_recording({"ax": TimeSeries(2.0 * force, FS, "ax"),
                         "hammer": TimeSeries(force, FS, "hammer")}, path)
        code = main(["impact", "--config", str(config_path), "--in", str(path),
                     "--out", str(tmp_path / "o"), "--response", "ax"])
        assert code == 2


class TestSpectrumCommand:
    def test_prints_peak(self, tmp_path, capsys):
        t = np.arange(25000) / FS
        x = 2.0 * np.sin(2 * np.pi * 100.0 * t)
        path = tmp_path / "tone.csv"
        write_recording({"ax": TimeSeries(x, FS, "ax")}, path)
        code = main(["spectrum", "--in", str(path), "--channel", "ax",
                     "--window", "rectangular"])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.000 Hz" in out

    def test_peaks_listed_by_falling_amplitude(self, tmp_path, capsys):
        t = np.arange(25000) / FS
        x = sum(a * np.sin(2 * np.pi * f * t)
                for f, a in ((100.0, 2.0), (200.0, 1.0), (300.0, 3.0)))
        path = tmp_path / "tones.csv"
        write_recording({"ax": TimeSeries(x, FS, "ax")}, path)
        assert main(["spectrum", "--in", str(path), "--channel", "ax",
                     "--window", "rectangular", "--peaks", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in lines] == ["300.000", "100.000",
                                                       "200.000"]

    def test_peak_count_must_not_be_negative(self, tmp_path, capsys):
        path = tmp_path / "tone.csv"
        write_recording({"ax": TimeSeries(np.ones(100), FS, "ax")}, path)
        argv = ["spectrum", "--in", str(path), "--channel", "ax", "--peaks"]
        assert main(argv + ["-1"]) == 1
        assert "--peaks" in capsys.readouterr().err
        assert main(argv + ["0"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_out_files_match_analyze_raw_spectrum(self, tmp_path):
        config = str(REFERENCE_CONFIG)
        recording = str(tmp_path / "sim" / "recording.csv")
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "sim")]) == 0
        assert main(["analyze", "--config", config, "--in", recording,
                     "--out", str(tmp_path / "analyze")]) == 0
        assert main(["spectrum", "--in", recording, "--channel", "ax",
                     "--out", str(tmp_path / "spectrum")]) == 0
        for name in ("spectrum_ax.txt", "spectrum_ax.svg"):
            assert ((tmp_path / "spectrum" / name).read_bytes()
                    == (tmp_path / "analyze" / name).read_bytes())

    def test_declared_rate_against_time_column_warns(self, tmp_path, capsys):
        # the declared rate wins, as before, and the reader's warning is shown
        t = np.arange(25000) / FS
        x = TimeSeries(np.sin(2 * np.pi * 100.0 * t), FS, "ax")
        timed, untimed = tmp_path / "timed.csv", tmp_path / "untimed.csv"
        write_recording({"ax": x}, timed)
        untimed.write_text("\n".join(line.split(",")[1] for line in
                                     timed.read_text().splitlines()) + "\n")
        outputs = []
        for path in (timed, untimed):
            assert main(["spectrum", "--in", str(path), "--channel", "ax",
                         "--rate", "20000"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out == outputs[1].out
        assert outputs[0].out.startswith("ax: 25000 samples @ 20000 Hz")
        assert outputs[0].err == (
            "warning: declared sample rate 20000.0 Hz differs from the time "
            "column (25000 Hz) by more than 0.1%; using the declared rate\n")
        assert outputs[1].err == ""

    def test_unknown_channel(self, tmp_path):
        path = tmp_path / "tone.csv"
        write_recording({"ax": TimeSeries(np.zeros(100), FS, "ax")}, path)
        assert main(["spectrum", "--in", str(path), "--channel", "fz"]) == 1
