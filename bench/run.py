#!/usr/bin/env python3
"""millenv benchmark: end-to-end timings plus an outside-in per-layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload ref-1s-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke                 # every workload once, small
    python3 bench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Each workload is a closed loop of one caller in one process on one thread.
An operation is checked against the simulator's ground truth right after it
ran; a failed check counts the operation as failed. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import os

# one thread everywhere; must be set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from probe import SpeedProbe
from spans import Tracer, median_of, op_summary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "reference.json"
WORK = BENCH_DIR / "_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

ANALYSIS_CHANNELS = ("ax", "ay", "az", "fx", "fy", "fz")
ASYM_CHANNELS = ("ax", "ay", "az")
SMALL_DURATION_S = 1.2      # record length of the smoke run and the warm-up op
SETUP_REPEATS = 15          # fresh processes timed per run for setup_s
TUNING_SEED = 1
HOLDOUT_SEED = 424242       # never used while the benchmark was tuned
RUN_SECONDS = 45


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                                 # "cli" or "lib"
    duration_s: float | None = None           # None keeps the config's 1.2 s
    window: tuple[float, float] | None = None  # analyze --t0/--t1
    gated: bool = True                        # listed in BENCHMARK.json
    probe: str = "text"                       # host speed probe, probe.py


WORKLOADS = {w.name: w for w in (
    Workload("ref-1s-cli",
             "paper reference cut via the CLI: simulate then analyze --t0 0.1 "
             "--t1 1.1 of a 1.2 s record; fixed per-call cost, plots and CSV "
             "read dominate",
             "cli", None, (0.1, 1.1)),
    Workload("long-20s-cli",
             "20 s record (500k samples per column) via the CLI: simulate "
             "then unsliced analyze; CSV write, CSV read and plot emission "
             "dominate",
             "cli", 20.0, gated=False),
    Workload("long-20s-lib",
             "same 20 s channels simulated in memory; analyze_all_channels "
             "with a shared tacho and no file I/O, so DSP does all the work",
             "lib", 20.0, probe="fft"),
)}

# (name, unit, better, bound). Timings get the widest bound the contract
# allows: on the shared 2-core host, run medians drift by 10-35% over
# minutes with neighbour load (see README.md, "Steadiness").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("analyze_s", "s", "lower", 0.25),
    ("record_s_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("artefact_mb", "MB", "lower", 0.05),
)

_S = "s"
PER_LAYER = (
    ("fileio.read_recording.self_s", _S), ("fileio.read_recording.bytes", "B"),
    ("fileio.write_recording.s", _S), ("fileio.write_recording.bytes", "B"),
    ("fileio.emit_plot_data.s", _S), ("fileio.emit_plot_data.calls", "count"),
    ("fileio.emit_plot_data.bytes", "B"), ("fileio.write_report.s", _S),
    ("dsp.band_filter.s", _S), ("dsp.envelope.s", _S),
    ("dsp.amplitude_spectrum.s", _S),
    ("fft.s", _S), ("fft.calls", "count"), ("fft.points", "count"),
    ("fft.bytes_computed", "B"),
    ("sync.resample_to_angle.s", _S),
    ("sync.resample_to_angle.samples_out", "count"),
    ("sync.detect_pulses.s", _S), ("sync.synchronous_average.s", _S),
    ("sync.tooth_segmentation.s", _S),
    ("pipeline.analyze.self_s", _S), ("pipeline.analyze.calls", "count"),
    ("pipeline.analyze.failed", "count"),
    ("pipeline.averaged_rev_spectrum.s", _S), ("pipeline.classify.s", _S),
    ("core.detrend.s", _S),
    ("millsim.simulate.s", _S),
    ("config.load_config.s", _S), ("cli.main.self_s", _S),
    ("trace.untraced_s", _S), ("trace.untraced_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values() if w.gated],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in PER_LAYER],
    }


class BenchError(Exception):
    """The benchmark cannot run here (missing source tree or config)."""


def import_millenv():
    """Import millenv from this checkout's src/, never from elsewhere."""
    if not (SRC / "millenv" / "__init__.py").is_file():
        raise BenchError(f"no millenv source tree under {SRC}")
    if not CONFIG.is_file():
        raise BenchError(f"missing {CONFIG}")
    sys.path.insert(0, str(SRC))
    import millenv
    import millenv.cli
    where = Path(millenv.__file__).resolve().parent
    if where != (SRC / "millenv").resolve():
        raise BenchError(f"imported millenv from {where}, not from {SRC}")
    return millenv


@dataclass
class OpResult:
    simulate_s: float
    analyze_s: float
    problems: list[str]
    sha256: str = ""
    artefact_bytes: int = 0
    csv_bytes: int = 0
    summary: dict | None = field(default=None, repr=False)
    # host speed probe times: before simulate, between the steps, after
    probes: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # the step times at reference speed (see probe.py)
    simulate_ref_s: float = 0.0
    analyze_ref_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.simulate_s + self.analyze_s

    @property
    def ref_s(self) -> float:
        return self.simulate_ref_s + self.analyze_ref_s


def report_problems(doc: dict, weak_tooth: int) -> list[str]:
    """Correctness gate on one report document against simulator truth."""
    problems = []
    chans = doc.get("channels", {})
    if sorted(chans) != sorted(ANALYSIS_CHANNELS):
        problems.append(f"channels analyzed: {sorted(chans)}")
    if doc.get("channel_errors"):
        problems.append(f"channel errors: {doc['channel_errors']}")
    for ch, c in sorted(chans.items()):
        if c["inconclusive"]:
            problems.append(f"{ch}: inconclusive")
        triggered = [f for f in c["findings"] if f["triggered"]]
        weak = [f.get("tooth_index") for f in triggered
                if f["kind"] == "weak_tooth"]
        if weak != [weak_tooth]:
            problems.append(f"{ch}: weak teeth {weak}, expected [{weak_tooth}]")
        if ch in ASYM_CHANNELS and not any(
                f["kind"] == "tooth_asymmetry" for f in triggered):
            problems.append(f"{ch}: tooth_asymmetry not triggered")
    return problems


def _dir_bytes(path: Path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Setup:
    """Per-run inputs: the seeded config file and what it describes."""

    def __init__(self, millenv, wl: Workload, seed: int, workdir: Path,
                 small: bool):
        doc = json.loads(CONFIG.read_text(encoding="utf-8"))
        doc["sim"]["seed"] = seed
        if small:
            doc["sim"]["duration_s"] = SMALL_DURATION_S
        elif wl.duration_s is not None:
            doc["sim"]["duration_s"] = wl.duration_s
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(doc, indent=2) + "\n",
                                    encoding="utf-8")
        self.config_doc = doc
        self.cfg = millenv.cli.load_config(self.config_path)
        gains = self.cfg.sim.per_tooth_gain
        self.weak_tooth = gains.index(min(gains))
        fs = self.cfg.sim.sample_rate_hz
        self.record_samples = int(round(self.cfg.sim.duration_s * fs))
        probe = millenv.TimeSeries([0.0] * self.record_samples, fs, "ax")
        if wl.window is not None:
            probe = millenv.slice_time(probe, *wl.window)
        self.analyzed_samples = len(probe)
        self.channel_s = len(ANALYSIS_CHANNELS) * self.analyzed_samples / fs


def make_cli_op(millenv, wl: Workload, setup: Setup, workdir: Path):
    sim_dir, ana_dir = workdir / "sim", workdir / "run"
    window = []
    if wl.window is not None:
        window = ["--t0", repr(wl.window[0]), "--t1", repr(wl.window[1])]
    simulate_argv = ["simulate", "--config", str(setup.config_path),
                     "--out", str(sim_dir)]
    analyze_argv = ["analyze", "--config", str(setup.config_path),
                    "--in", str(sim_dir / "recording.csv"),
                    "--out", str(ana_dir)] + window

    def op(between) -> OpResult:
        for d in (sim_dir, ana_dir):
            shutil.rmtree(d, ignore_errors=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            rc_sim = millenv.cli.main(simulate_argv)
            t1 = time.perf_counter()
            between()
            t1b = time.perf_counter()
            rc_ana = millenv.cli.main(analyze_argv) if rc_sim == 0 else None
            t2 = time.perf_counter()
        problems = []
        if rc_sim != 0 or rc_ana != 0:
            problems.append(f"exit codes simulate={rc_sim} analyze={rc_ana}: "
                            f"{log.getvalue().strip()}")
            return OpResult(t1 - t0, t2 - t1b, problems)
        raw = (ana_dir / "report.json").read_bytes()
        problems += report_problems(json.loads(raw), setup.weak_tooth)
        return OpResult(t1 - t0, t2 - t1b, problems,
                        hashlib.sha256(raw).hexdigest(),
                        _dir_bytes(ana_dir),
                        (sim_dir / "recording.csv").stat().st_size)

    return op


def make_lib_op(millenv, wl: Workload, setup: Setup, workdir: Path):
    from millenv.fileio import dump_report, report_document
    cfg = setup.cfg
    bands = {ch: cfg.band_settings(ch).band for ch in ANALYSIS_CHANNELS}
    tapers = {cfg.band_settings(ch).taper_hz for ch in ANALYSIS_CHANNELS}
    if len(tapers) != 1:
        raise BenchError(f"{wl.name} needs one band taper for all channels")
    kwargs = {"taper_hz": tapers.pop(), "samples_per_rev": cfg.samples_per_rev,
              "tooth0_offset_frac": cfg.tooth0_offset_frac}

    def op(between) -> OpResult:
        t0 = time.perf_counter()
        sim = millenv.millsim.simulate(cfg.sim)
        t1 = time.perf_counter()
        between()
        t1b = time.perf_counter()
        # the tacho detection read_recording applies to a CSV recording
        tacho_ts = sim.channels["tacho"]
        lo, hi = float(tacho_ts.samples.min()), float(tacho_ts.samples.max())
        tacho = millenv.sync.detect_pulses(tacho_ts,
                                           threshold=lo + 0.5 * (hi - lo),
                                           hysteresis=0.2 * (hi - lo))
        results, errors = millenv.pipeline.analyze_all_channels(
            [sim.channels[ch] for ch in ANALYSIS_CHANNELS], tacho,
            cfg.cutter, bands, cfg.thresholds, **kwargs)
        t2 = time.perf_counter()
        doc = report_document(results, errors, config_echo=setup.config_doc)
        raw = dump_report(doc).encode("utf-8")
        return OpResult(t1 - t0, t2 - t1b,
                        report_problems(doc, setup.weak_tooth),
                        hashlib.sha256(raw).hexdigest(), len(raw))

    return op


def make_op(millenv, wl: Workload, seed: int, workdir: Path, small: bool):
    setup = Setup(millenv, wl, seed, workdir, small)
    maker = make_cli_op if wl.kind == "cli" else make_lib_op
    return setup, maker(millenv, wl, setup, workdir)


def guarded(op, between=lambda: 0.0):
    """Run one op; an exception is a failed op, not a crashed benchmark.

    `between` runs between the op's simulate and analyze steps, untimed.
    """
    try:
        return op(between)
    except Exception:
        traceback.print_exc()
        return OpResult(0.0, 0.0, ["raised " + traceback.format_exc(limit=1)])


# The child probes its own CPU's speed around the import: a child may run
# on the other core, whose speed the parent's probe does not see.
SETUP_CHILD = (
    "import sys, time\n"
    "from probe import SpeedProbe\n"
    "probe = SpeedProbe('text', sys.argv[2])\n"
    "before = probe()\n"
    "t = time.perf_counter()\n"
    "import millenv.cli\n"
    "millenv.cli.load_config(sys.argv[1])\n"
    "wall = time.perf_counter() - t\n"
    "print(wall, 0.5 * (before + probe()))\n")


def measure_setup_s(workdir: Path) -> list[tuple[float, float]]:
    """Import millenv and load the config in fresh processes.

    Returns (wall, probe) seconds per process; the text probe runs in the
    child right before and after the import, which is interpreter work
    whatever the workload.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC),
                                                       str(BENCH_DIR))))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD,
                              str(CONFIG), str(workdir)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        wall, probe_s = map(float, out.stdout.split())
        times.append((wall, probe_s))
    return times


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least 10 samples beyond it.

    Returns (percentile, value) or None when fewer than 11 samples exist.
    """
    n = len(samples)
    if n < 11:
        return None
    k = n - 10                      # the k-th smallest has 10 samples above
    return 100 * k // n, sorted(samples)[k - 1]


def largest_prime_factor(n: int) -> int:
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_ops(op, probe: SpeedProbe, seconds: float,
            tracer: Tracer | None) -> list[OpResult]:
    """Closed loop: start ops until the next one would end after `seconds`.

    The host speed probe runs before, between and after the two steps of
    each op; a step is scaled by the mean of the probes on either side of
    it. With a tracer, ops alternate untraced and traced, and at least one
    of each runs.
    """
    ops: list[OpResult] = []
    start = time.perf_counter()
    before = probe()
    while True:
        mid = []

        def between():
            mid.append(probe())
        if tracer is not None and len(ops) % 2 == 1:
            with tracer:
                first = tracer.mark()
                result = guarded(op, between)
            result.summary = op_summary(tracer.spans, first, result.wall_s)
        else:
            result = guarded(op, between)
        after = probe()
        if mid:
            result.probes = (before, mid[0], after)
            result.simulate_ref_s = probe.scale(result.simulate_s,
                                                0.5 * (before + mid[0]))
            result.analyze_ref_s = probe.scale(result.analyze_s,
                                               0.5 * (mid[0] + after))
        before = after
        ops.append(result)
        elapsed = time.perf_counter() - start
        if len(ops) >= (1 if tracer is None else 2) and \
                elapsed + result.wall_s > seconds:
            return ops


def end_to_end_metrics(setup: Setup, setup_s: float,
                       plain: list[OpResult]) -> dict:
    analyze = median(r.analyze_ref_s for r in plain)
    values = {
        "setup_s": setup_s,
        "simulate_s": median(r.simulate_ref_s for r in plain),
        "analyze_s": analyze,
        "record_s_per_s": setup.channel_s / analyze,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "artefact_mb": median(r.artefact_bytes for r in plain) / 1e6,
    }
    return {n: (values[n], u) for n, u, _, _ in END_TO_END}


def per_layer_metrics(good: list[OpResult]) -> dict:
    summaries = [r.summary for r in good if r.summary is not None]
    traced = [r.ref_s for r in good if r.summary is not None]
    untraced = [r.ref_s for r in good if r.summary is None]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = (median(traced) / median(untraced) - 1.0
                     if traced and untraced else 0.0)
        else:
            layer, key = name.rsplit(".", 1)
            value = median_of(summaries, layer, key) if summaries else 0.0
        metrics[name] = (value, unit)
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Measure one workload; returns metadata, metrics and op outcomes."""
    millenv = import_millenv()
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        workdir.mkdir(parents=True)
        setup_samples = measure_setup_s(workdir)
        setup_s = median(SpeedProbe("text", workdir).scale(wall, probe_s)
                         for wall, probe_s in setup_samples)
        # warm-up: one small op so imports and first-call paths are done
        guarded(make_op(millenv, wl, seed, workdir / "warm", small=True)[1])
        setup, op = make_op(millenv, wl, seed, workdir / "ops", small)
        probe = SpeedProbe(wl.probe, workdir)
        ops = run_ops(op, probe, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference_sha = next((r.sha256 for r in ops if r.sha256), "")
    for r in ops:
        if r.sha256 and r.sha256 != reference_sha:
            r.problems.append(f"report sha256 {r.sha256} differs from "
                              f"{reference_sha}")
    good = [r for r in ops if not r.problems]
    plain = [r for r in good if r.summary is None]
    failed = len(ops) - len(good)
    analyze = [r.analyze_ref_s for r in plain]
    meta = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "small": small, "seconds": seconds,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "millenv_path": str(Path(millenv.__file__).resolve().parent),
        "record_samples_per_channel": setup.record_samples,
        "analyzed_samples_per_channel": setup.analyzed_samples,
        "largest_prime_factor": largest_prime_factor(setup.analyzed_samples),
        "csv_bytes": max((r.csv_bytes for r in ops), default=0),
        "artefact_bytes": max((r.artefact_bytes for r in ops), default=0),
        "report_sha256": reference_sha,
        "ops": len(ops), "ops_failed": failed,
        "problems": sorted({p for r in ops for p in r.problems})[:20],
        "setup_s": setup_s,
        "setup_wall_s_samples": [wall for wall, _ in setup_samples],
        "setup_probe_s_samples": [probe_s for _, probe_s in setup_samples],
        "probe": wl.probe, "probe_ref_s": probe.ref_s,
        "probe_s_samples": [r.probes for r in plain],
        "simulate_wall_s_samples": [r.simulate_s for r in plain],
        "analyze_wall_s_samples": [r.analyze_s for r in plain],
    }
    extra = {"ops_failed_frac": (failed / len(ops), "ratio")}
    metrics = {}
    if trace and good:
        metrics = per_layer_metrics(good)
    elif not trace and plain:
        metrics = end_to_end_metrics(setup, setup_s, plain)
        extra["simulate_wall_s"] = (median(r.simulate_s for r in plain), "s")
        extra["analyze_wall_s"] = (median(r.analyze_s for r in plain), "s")
        tail = tail_percentile(analyze)
        if tail is not None:
            meta["analyze_tail_percentile"] = tail[0]
            extra["analyze_tail_s"] = (tail[1], "s")
        meta["analyze_tail_samples"] = len(analyze)
    return {"meta": meta, "metrics": metrics, "extra": extra,
            "attempted": len(ops), "failed": failed,
            "spans": tracer.spans if tracer else [],
            "summaries": [r.summary for r in ops if r.summary is not None]}


def print_result(out: dict) -> None:
    print("# meta " + json.dumps(out["meta"], sort_keys=True))
    for name, (value, unit) in {**out["metrics"], **out["extra"]}.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": out["failed"] == 0 and bool(out["metrics"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in out["metrics"].items()},
    }))


def write_trace_file(wl: Workload, out: dict) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"trace-{wl.name}.json"
    spans = [[s.name, s.start, s.end, s.parent, s.failed, s.counts]
             for s in out["spans"]]
    path.write_text(json.dumps({"meta": out["meta"],
                                "per_op": out["summaries"],
                                "span_fields": ["name", "start", "end",
                                                "parent", "failed", "counts"],
                                "spans": spans}) + "\n", encoding="utf-8")


def smoke() -> int:
    """Each workload once at reduced size, both seeds, traced and not."""
    spec = benchmark_spec()
    on_disk = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    errors = []
    if on_disk != spec:
        errors.append("BENCHMARK.json differs from benchmark_spec(); "
                      "run --write-benchmark-json")
    names = {0: {m["name"] for m in on_disk["end_to_end"]},
             1: {m["name"] for m in on_disk["per_layer"]}}
    for seed in (TUNING_SEED, HOLDOUT_SEED):
        for wl in WORKLOADS.values():
            for trace in (0, 1):
                out = run_workload(wl, seed, 0.0, bool(trace), small=True)
                got = set(out["metrics"])
                status = "ok"
                if got != names[trace]:
                    status = f"metric names differ: {sorted(got ^ names[trace])}"
                elif out["failed"]:
                    status = f"failed: {out['meta']['problems']}"
                if status != "ok":
                    errors.append(f"{wl.name} seed={seed} trace={trace}: {status}")
                print(f"smoke {wl.name} seed={seed} trace={trace}: {status}",
                      flush=True)
    for e in errors:
        print("error: " + e, file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=TUNING_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.write_benchmark_json:
            BENCHMARK_JSON.write_text(
                json.dumps(benchmark_spec(), indent=2) + "\n", encoding="utf-8")
            return 0
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        wl = WORKLOADS[args.workload]
        out = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"bench error: {err}", file=sys.stderr)
        return 2
    if args.trace:
        write_trace_file(wl, out)
    print_result(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
