import json

import numpy as np
import pytest

from millenv import Band, Cutter, Thresholds, TimeSeries, analyze_all_channels
from millenv.cli import main
from millenv.fileio import (dump_report, read_recording, report_document,
                            write_recording)
from conftest import FS


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

    def test_unknown_channel(self, tmp_path):
        path = tmp_path / "tone.csv"
        write_recording({"ax": TimeSeries(np.zeros(100), FS, "ax")}, path)
        assert main(["spectrum", "--in", str(path), "--channel", "fz"]) == 1
