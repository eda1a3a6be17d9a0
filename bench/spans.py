"""Outside-in span tracer for the millenv benchmark.

The tracer replaces public functions of millenv (and the numpy FFT entry
points) with wrappers that record one span per call: name, start, end and
the span that was open when the call began. Each name is patched where the
calling module looks it up (for example ``millenv.cli.read_recording``,
not ``millenv.fileio.read_recording``), because a ``from x import f`` copy
would otherwise bypass the wrapper. Nothing under ``src/`` is modified;
patches are undone when the ``Tracer`` context exits.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_read(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_write_recording(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _count_plot(args, kwargs, result):
    base = str(_arg(args, kwargs, 0, "path_base"))
    return {"bytes": os.path.getsize(base + ".txt")
            + os.path.getsize(base + ".svg")}


def _count_resample(args, kwargs, result):
    return {"samples_out": int(result.samples.size)}


def _fft_counts(args, result, points):
    # computed from array shapes, not measured: one read of the input and
    # one write of the output
    return {"points": int(points),
            "bytes_computed": int(np.asarray(args[0]).nbytes + result.nbytes)}


def _count_rfft(args, kwargs, result):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return _fft_counts(args, result, n if n is not None else len(args[0]))


def _count_fft(args, kwargs, result):
    return _fft_counts(args, result, result.shape[-1])


#: (module, attribute, span name, counter). Entries are patched in order.
TARGETS = (
    ("millenv.cli", "main", "cli.main", None),
    ("millenv.cli", "load_config", "config.load_config", None),
    ("millenv.cli", "simulate", "millsim.simulate", None),
    ("millenv.cli", "write_recording", "fileio.write_recording",
     _count_write_recording),
    ("millenv.cli", "read_recording", "fileio.read_recording", _count_read),
    ("millenv.cli", "analyze", "pipeline.analyze", None),
    ("millenv.cli", "write_report", "fileio.write_report", None),
    ("millenv.cli", "amplitude_spectrum", "dsp.amplitude_spectrum", None),
    ("millenv.cli", "emit_plot_data", "fileio.emit_plot_data", _count_plot),
    ("millenv.fileio", "detect_pulses", "sync.detect_pulses", None),
    ("millenv.millsim", "simulate", "millsim.simulate", None),
    ("millenv.sync", "detect_pulses", "sync.detect_pulses", None),
    ("millenv.pipeline", "analyze_all_channels",
     "pipeline.analyze_all_channels", None),
    ("millenv.pipeline", "analyze", "pipeline.analyze", None),
    ("millenv.pipeline", "detrend", "core.detrend", None),
    ("millenv.pipeline", "band_filter", "dsp.band_filter", None),
    ("millenv.pipeline", "envelope", "dsp.envelope", None),
    ("millenv.pipeline", "resample_to_angle", "sync.resample_to_angle",
     _count_resample),
    ("millenv.pipeline", "synchronous_average", "sync.synchronous_average",
     None),
    ("millenv.pipeline", "tooth_segmentation", "sync.tooth_segmentation", None),
    ("millenv.pipeline", "averaged_rev_spectrum",
     "pipeline.averaged_rev_spectrum", None),
    ("millenv.pipeline", "classify", "pipeline.classify", None),
    ("numpy.fft", "rfft", "fft", _count_rfft),
    ("numpy.fft", "irfft", "fft", _count_fft),
    ("numpy.fft", "fft", "fft", _count_fft),
    ("numpy.fft", "ifft", "fft", _count_fft),
)

#: Spans that only dispatch to the layers below them. Operation time not
#: covered by a span beneath these is reported as untraced.
ENTRY_SPANS = ("cli.main", "pipeline.analyze_all_channels")


class Tracer:
    """Records spans in memory while active; a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for module_name, attr, name, counter in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def mark(self) -> int:
        """Index of the next span; spans from a mark on belong to one op."""
        return len(self.spans)


def op_summary(spans: list[Span], first: int, wall_s: float) -> dict:
    """Per-name totals for the spans of one operation.

    For each span name: ``s`` (inclusive seconds), ``self_s`` (duration
    minus the time covered by child spans), ``calls``, ``failed`` and the
    sum of each counter. ``trace.untraced_s`` is the op wall time not
    covered by any span below an entry span.
    """
    ops = spans[first:]
    child_time = [0.0] * len(ops)
    covered = 0.0
    for span in ops:
        parent = span.parent
        if parent is not None and parent >= first:
            child_time[parent - first] += span.duration
        top = parent is None or parent < first or spans[parent].name in ENTRY_SPANS
        if top and span.name not in ENTRY_SPANS:
            covered += span.duration
    out: dict[str, dict] = {}
    for span, child in zip(ops, child_time):
        agg = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0,
                                         "calls": 0, "failed": 0})
        agg["s"] += span.duration
        agg["self_s"] += span.duration - child
        agg["calls"] += 1
        agg["failed"] += int(span.failed)
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value
    out["trace"] = {"untraced_s": wall_s - covered,
                    "untraced_frac": (wall_s - covered) / wall_s}
    return out


def median_of(summaries: list[dict], name: str, key: str) -> float:
    """Median over ops of one per-op value; an absent name counts as 0."""
    return float(median(s.get(name, {}).get(key, 0) for s in summaries))
