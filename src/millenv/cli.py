"""Command-line interface.

Commands:
  simulate   run the cutter simulator, write CSV recording + truth file
  analyze    full envelope analysis of a recording, write report + plot data
  impact     frequency response from hammer impacts, propose bands
  spectrum   plain amplitude spectrum of one channel

Exit codes: 0 success, 1 input/parse error, 2 analysis inconclusive,
3 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import _read_document, config_from_dict, load_config
from .dsp import HANN, RECTANGULAR, amplitude_spectrum
from .errors import AnalysisError, ConfigError, RangeError
from .fileio import (Recording, emit_plot_data, read_recording,
                     report_document, write_recording, write_report)
from .millsim import simulate
from .modal import estimate_frf, propose_bands, split_impacts
# `analyze` is not called here; bench/spans.py patches it by this name
from .pipeline import analyze, analyze_all_channels

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3

ANALYSIS_CHANNELS = ("ax", "ay", "az", "fx", "fy", "fz")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.sim is None:
        raise ConfigError(f"{args.config}: no 'sim' section configured")
    out = _out_dir(args.out)
    result = simulate(cfg.sim)
    write_recording(result.channels, out / "recording.csv")
    truth = {
        "rpm": result.truth.rpm,
        "per_tooth_gain": list(result.truth.per_tooth_gain),
        "pulse_times_s": [float(t) for t in result.truth.pulse_times_s],
        "impacts": [{"time_s": float(t), "tooth": int(i)}
                    for t, i in zip(result.truth.impact_times_s,
                                    result.truth.impact_tooth)],
    }
    write_report(truth, out / "truth.json")
    print(f"wrote {out / 'recording.csv'} "
          f"({len(result.truth.pulse_times_s)} revolutions, "
          f"{result.truth.rpm:.1f} rpm) and {out / 'truth.json'}")
    return EXIT_OK


def _load_recording(path, **options) -> Recording:
    """`read_recording(path, **options)`, its warnings printed to stderr."""
    rec = read_recording(path, **options)
    for msg in rec.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return rec


def _cmd_analyze(args) -> int:
    # one read: the report echoes the document the config was built from
    config_doc = _read_document(args.config)
    cfg = config_from_dict(config_doc)
    rec = _load_recording(args.in_path, columns=cfg.columns or None,
                          sample_rate_hz=cfg.sample_rate_hz)
    if rec.tacho is None:
        raise AnalysisError("recording has no usable tacho channel; "
                            "envelope analysis needs a 1/rev reference")
    out = _out_dir(args.out)

    if args.t0 is not None or args.t1 is not None:
        rec = rec.slice(args.t0, args.t1)
    channels = {ch: ts for ch, ts in rec.channels.items()
                if ch in ANALYSIS_CHANNELS}
    if not channels:
        raise AnalysisError("recording has no vibration or force channels")

    settings = {ch: cfg.band_settings(ch) for ch in channels}
    results, errors = analyze_all_channels(
        channels.values(), rec.tacho, cfg.cutter,
        {ch: bs.band for ch, bs in settings.items()}, cfg.thresholds,
        taper_hz={ch: bs.taper_hz for ch, bs in settings.items()},
        samples_per_rev=cfg.samples_per_rev,
        tooth0_offset_frac=cfg.tooth0_offset_frac)

    doc = report_document(results, errors, config_echo=config_doc)
    write_report(doc, out / "report.json")

    # one plot family at a time: the family's channels share one x axis,
    # which write_xy then formats once
    for ch, ts in channels.items():
        _emit_spectrum(out, ch, ts, amplitude_spectrum(ts, HANN))
    for ch, res in results.items():
        angle = np.arange(res.samples_per_rev) * (360.0 / res.samples_per_rev)
        emit_plot_data(out / f"envelope_{ch}", angle, res.averaged_envelope,
                       f"Averaged envelope over one revolution [{ch}]",
                       "angle_deg", "envelope")
    for ch, res in results.items():
        spec = res.envelope_spectrum
        emit_plot_data(out / f"envelope_spectrum_{ch}", spec.frequencies_hz,
                       spec.amplitudes, f"Envelope spectrum [{ch}]",
                       "frequency_hz", "amplitude")
    for ch, res in results.items():
        profile = res.tooth_profile
        emit_plot_data(out / f"tooth_profile_{ch}",
                       np.arange(profile.z, dtype=float), profile.mean_load,
                       f"Per-tooth load [{ch}]", "tooth_index", "mean_load")

    for ch, err in errors.items():
        print(f"channel {ch}: {type(err).__name__}: {err}", file=sys.stderr)
    n_ok = sum(1 for r in results.values() if not r.inconclusive)
    print(f"analyzed {len(results)}/{len(channels)} channel(s), "
          f"{n_ok} conclusive; report at {out / 'report.json'}")
    if results and n_ok == 0:
        return EXIT_INCONCLUSIVE
    if not results:
        return EXIT_INPUT
    return EXIT_OK


def _cmd_impact(args) -> int:
    cfg = load_config(args.config)
    rec = _load_recording(args.in_path, columns=cfg.columns or None,
                          sample_rate_hz=cfg.sample_rate_hz)
    if "hammer" not in rec.channels:
        raise AnalysisError("impact recording needs a 'hammer' force channel")
    response_ch = args.response
    if response_ch not in rec.channels:
        raise AnalysisError(f"response channel {response_ch!r} not in recording")
    out = _out_dir(args.out)

    records = split_impacts(rec.channels["hammer"], rec.channels[response_ch])
    frf = estimate_frf(records)
    bands = propose_bands(frf, n_bands=args.n_bands)

    emit_plot_data(out / "frf_magnitude", frf.frequencies_hz, np.abs(frf.h1),
                   f"|H1| from {len(records)} impact(s)", "frequency_hz",
                   "magnitude")
    emit_plot_data(out / "frf_coherence", frf.frequencies_hz, frf.coherence,
                   "Coherence", "frequency_hz", "coherence")
    doc = {
        "n_impacts": len(records),
        "response_channel": response_ch,
        "bands": [{"f_lo_hz": b.f_lo_hz, "f_hi_hz": b.f_hi_hz} for b in bands],
    }
    write_report(doc, out / "bands.json")
    if not bands:
        print("no resonance peaks qualify (coherence gate or flat response); "
              "no bands proposed")
        return EXIT_INCONCLUSIVE
    for i, b in enumerate(bands):
        print(f"band {i}: {b.f_lo_hz:.1f} .. {b.f_hi_hz:.1f} Hz")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    if args.peaks < 0:
        raise RangeError(f"--peaks must be >= 0, got {args.peaks}")
    rec = _load_recording(args.in_path, sample_rate_hz=args.rate,
                          detect_tacho=False)
    if args.channel not in rec.channels:
        raise AnalysisError(
            f"channel {args.channel!r} not in recording "
            f"(has {sorted(rec.channels)})")
    ts = rec.channels[args.channel]
    w = RECTANGULAR if args.window == "rectangular" else HANN
    spec = amplitude_spectrum(ts, w)
    top = np.argsort(spec.amplitudes)[::-1][:args.peaks]
    top = top[spec.amplitudes[top] > 0]
    print(f"{args.channel}: {len(ts)} samples @ {ts.sample_rate_hz:.6g} Hz, "
          f"df = {spec.df_hz:.6g} Hz")
    for k in top:
        print(f"  {k * spec.df_hz:10.3f} Hz  {spec.amplitudes[k]:.6g}")
    if args.out:
        _emit_spectrum(_out_dir(args.out), args.channel, ts, spec)
    return EXIT_OK


def _emit_spectrum(out: Path, ch: str, ts, spec) -> None:
    """Plot files `spectrum_<ch>` of channel ch's raw amplitude spectrum."""
    emit_plot_data(out / f"spectrum_{ch}", spec.frequencies_hz, spec.amplitudes,
                   f"Amplitude spectrum [{ch}]", "frequency_hz",
                   f"amplitude_{ts.unit or 'au'}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="millenv",
        description="Envelope analysis of milling vibration/force recordings")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic recording")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="run the envelope pipeline")
    ana.add_argument("--config", required=True)
    ana.add_argument("--in", dest="in_path", required=True)
    ana.add_argument("--out", required=True)
    ana.add_argument("--t0", type=float, default=None,
                     help="start of the analysis interval in seconds; tacho "
                          "pulse times are re-based to the first sample kept")
    ana.add_argument("--t1", type=float, default=None,
                     help="end of the analysis interval in seconds")
    ana.set_defaults(func=_cmd_analyze)

    imp = sub.add_parser("impact", help="FRF + band proposal from hammer hits")
    imp.add_argument("--config", required=True)
    imp.add_argument("--in", dest="in_path", required=True)
    imp.add_argument("--out", required=True)
    imp.add_argument("--response", default="ax",
                     help="response channel label (default ax)")
    imp.add_argument("--n-bands", type=int, default=2)
    imp.set_defaults(func=_cmd_impact)

    spc = sub.add_parser("spectrum", help="plain FFT of one channel")
    spc.add_argument("--in", dest="in_path", required=True)
    spc.add_argument("--channel", required=True)
    spc.add_argument("--rate", type=float, default=None,
                     help="sample rate if the file has no time_s column")
    spc.add_argument("--window", choices=("hann", "rectangular"),
                     default="hann")
    spc.add_argument("--peaks", type=int, default=5)
    spc.add_argument("--out", default=None)
    spc.set_defaults(func=_cmd_spectrum)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnalysisError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
