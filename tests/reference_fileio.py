"""Reference implementations of the CSV reader, the CSV writer and the plot
writers as they were before they were vectorized: one Python `float()` per
cell on read, one `repr()` per cell on write and one formatted string per
plotted point. `m4_indices` picks the points a reduced SVG keeps, one pixel
column at a time. `slice_recording` is the time cut as it was when it kept
only the tacho pulses inside the cut. Tests compare `millenv.fileio`
against them for equal arrays, equal error messages, byte-identical files
and bit-identical analyses.
"""

from __future__ import annotations

import math

import numpy as np

from millenv.core import CHANNELS, TimeSeries, first_sample_index, slice_time
from millenv.errors import InputError, ParseError, PulseDetectionError
from millenv.fileio import Recording
from millenv.sync import TachoTrack, detect_pulses

_COLUMN_ORDER = ("time_s",) + CHANNELS

PLOT_WIDTH = 800 - 60 - 20  # write_svg's default width minus its margins


def _parse_float(cell: str, lineno: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"non-numeric value {cell!r} in column {column!r} at line {lineno}") from None
    if not math.isfinite(value):
        raise ParseError(
            f"non-finite value {cell!r} in column {column!r} at line {lineno}")
    return value


def read_recording(path, *, columns: dict[str, str] | None = None,
                   sample_rate_hz: float | None = None) -> Recording:
    """Read a multi-channel CSV recording.

    `columns` maps channel labels to CSV column names; by default every
    header matching a known channel label is taken as-is. The time_s
    column's rate is (n - 1) over its span unless that differs from the
    median gap's rate by more than 0.1%; then the median's. A declared
    `sample_rate_hz` wins over the time_s column; if both are present and
    disagree by more than 0.1% a warning is recorded. A tacho column that
    is read is run through pulse detection (threshold at mid-swing).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError(f"{path}: empty file")
        header = [h.strip() for h in header_line.rstrip("\n").split(",")]
        if columns:
            for ch in columns:
                if ch not in CHANNELS and ch != "time_s":
                    raise InputError(f"unknown channel label {ch!r}; "
                                     f"expected one of {CHANNELS}")
            col_map = dict(columns)
            if "time_s" not in col_map and "time_s" in header:
                col_map["time_s"] = "time_s"
        else:
            col_map = {name: name for name in header if name in _COLUMN_ORDER}
        missing = [c for c in col_map.values() if c not in header]
        if missing:
            raise ParseError(f"{path}: column(s) {missing} not in header {header}")
        if not col_map or set(col_map) == {"time_s"}:
            raise ParseError(f"{path}: no known channel columns in header {header}")

        index = {ch: header.index(col) for ch, col in col_map.items()}
        data: dict[str, list[float]] = {ch: [] for ch in index}
        n_cols = len(header)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != n_cols:
                raise ParseError(
                    f"{path}: line {lineno} has {len(cells)} cells, header has {n_cols}")
            for ch, col_idx in index.items():
                data[ch].append(_parse_float(cells[col_idx], lineno, header[col_idx]))

    if not data or not next(iter(data.values())):
        raise ParseError(f"{path}: no data rows")

    warnings: list[str] = []
    time_values = data.pop("time_s", None)
    rate = sample_rate_hz
    if time_values is not None and len(time_values) >= 2:
        dt = np.median(np.diff(np.asarray(time_values)))
        if dt <= 0:
            raise ParseError(f"{path}: time_s column is not increasing")
        derived = 1.0 / float(dt)
        span_s = time_values[-1] - time_values[0]
        span_rate = (len(time_values) - 1) / span_s if span_s > 0 else math.nan
        if abs(span_rate - derived) <= 1e-3 * derived:
            derived = span_rate
        if rate is None:
            rate = derived
        elif abs(derived - rate) > 1e-3 * rate:
            warnings.append(
                f"declared sample rate {rate} Hz differs from the time column "
                f"({derived:.6g} Hz) by more than 0.1%; using the declared rate")
    if rate is None:
        raise ParseError(
            f"{path}: no time_s column and no declared sample rate")

    units = {"ax": "m/s^2", "ay": "m/s^2", "az": "m/s^2",
             "fx": "N", "fy": "N", "fz": "N", "tacho": "V", "hammer": "N"}
    channels = {ch: TimeSeries(values, rate, ch, units.get(ch, ""))
                for ch, values in data.items()}

    tacho_track = None
    if "tacho" in channels:
        sig = channels["tacho"].samples
        lo, hi = float(sig.min()), float(sig.max())
        swing = hi - lo
        if swing > 0:
            try:
                tacho_track = detect_pulses(channels["tacho"],
                                            threshold=lo + 0.5 * swing,
                                            hysteresis=0.2 * swing)
            except PulseDetectionError as err:
                warnings.append(f"tacho channel present but unusable: {err}")
        else:
            warnings.append("tacho channel is constant; no pulses detected")

    return Recording(channels, tacho_track, warnings)


def slice_recording(rec: Recording, t0_s: float | None = None,
                    t1_s: float | None = None) -> Recording:
    """`rec` restricted to [t0_s, t1_s), with a tacho track of its own.

    Only the pulses from the first kept sample (the first at or after t0_s)
    to t1_s are kept, re-based to that sample and validated again as a new
    track: fewer than 2 of them is a PulseDetectionError.
    """
    t0_s = t0_s or 0.0
    if t1_s is None:
        t1_s = min(ts.duration_s for ts in rec.channels.values())
    channels = {ch: slice_time(ts, t0_s, t1_s)
                for ch, ts in rec.channels.items()}
    tacho = rec.tacho
    if tacho is not None:
        start_s = first_sample_index(t0_s, rec.sample_rate_hz) / rec.sample_rate_hz
        pulses = tacho.pulse_times_s[tacho.pulse_times_s >= start_s]
        tacho = TachoTrack(pulses[pulses <= t1_s] - start_s)
    return Recording(channels, tacho, list(rec.warnings))


def write_recording(channels: dict[str, TimeSeries], path,
                    include_time: bool = True) -> None:
    """Write channels as CSV in canonical column order."""
    order = [ch for ch in CHANNELS if ch in channels]
    if not order:
        raise InputError("no channels to write")
    n = len(channels[order[0]])
    rate = channels[order[0]].sample_rate_hz
    for ch in order:
        if len(channels[ch]) != n or channels[ch].sample_rate_hz != rate:
            raise InputError("all channels must share one length and rate")
    arrays = [channels[ch].samples for ch in order]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = (["time_s"] if include_time else []) + order
        fh.write(",".join(header) + "\n")
        for i in range(n):
            row = [repr(i / rate)] if include_time else []
            row += [repr(float(a[i])) for a in arrays]
            fh.write(",".join(row) + "\n")


def write_xy(path, x, y, x_label: str, y_label: str) -> None:
    """Two-column plot-data text file with a one-line header."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise InputError("x and y must have the same length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {x_label} {y_label}\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.9g} {yi:.9g}\n")


def write_svg(path, x, y, title: str, x_label: str, y_label: str,
              width: int = 800, height: int = 400) -> None:
    """Minimal deterministic SVG line plot of y over x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size == 0:
        raise InputError("x and y must be non-empty and the same length")
    ml, mr, mt, mb = 60, 20, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xs = pw / (x1 - x0) if x1 > x0 else 0.0
    ys = ph / (y1 - y0) if y1 > y0 else 0.0
    px = ml + (x - x0) * xs
    py = mt + ph - (y - y0) * ys
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#888" stroke-width="1"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_label}</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {height // 2})">{y_label}</text>',
        f'<text x="{ml}" y="{height - 28}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{x0:.6g}</text>',
        f'<text x="{ml + pw}" y="{height - 28}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{x1:.6g}</text>',
        f'<text x="{ml - 5}" y="{mt + ph}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y0:.6g}</text>',
        f'<text x="{ml - 5}" y="{mt + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y1:.6g}</text>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
        'stroke-width="1"/>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def m4_indices(x, y) -> list[int] | None:
    """Sorted indices of the points `millenv.fileio.write_svg` draws.

    None means every point: x is not non-decreasing, a value or the pixel
    span of x is not finite, or there are at most 4 points per pixel column.
    Otherwise each pixel column keeps its first and last point and the first
    of its smallest and of its largest y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size <= 4 * PLOT_WIDTH or not (np.isfinite(x).all()
                                        and np.isfinite(y).all()):
        return None
    if any(b < a for a, b in zip(x.tolist(), x[1:].tolist())):
        return None
    x0, x1 = float(x.min()), float(x.max())
    xs = PLOT_WIDTH / (x1 - x0) if x1 > x0 else 0.0
    if not math.isfinite((x1 - x0) * xs):
        return None
    columns: dict[int, list[int]] = {}
    for i, xi in enumerate(x.tolist()):
        col = min(int((xi - x0) * xs), PLOT_WIDTH - 1)
        columns.setdefault(col, []).append(i)
    keep = set()
    for members in columns.values():
        ys = [y[i] for i in members]
        keep |= {members[0], members[-1], members[ys.index(min(ys))],
                 members[ys.index(max(ys))]}
    return sorted(keep)
