"""CSV ingestion, report serialization and plot-data emission.

Recordings travel as plain CSV: header row, comma separator, LF line
endings, one column per channel plus an optional leading time_s column.
Floats are written with Python's shortest round-trip representation, so a
write/read cycle reproduces sample values exactly. A recording is written a
block of rows at a time, each block by one `%` over a row template of `%r`
cells, which is `repr` of each float. Reports are JSON with sorted keys;
re-serializing a report is byte-identical.

Plot data goes out twice: a two-column `.txt` file with every point, each
value formatted with `%.9g`, and an SVG rendering whose polyline points are
pixel coordinates formatted with `%.2f`. A long SVG line over sorted x keeps
only the first, last, min-y and max-y point of each pixel column, which
draws the same line (M4 aggregation). CSVs and `.txt` plot data keep every
sample. The points of a plot file are formatted by one `%` over all their
values, not by one call per point. The six plots of a family (raw spectra,
averaged envelopes, envelope spectra, tooth profiles) share one x axis, so
`write_xy` keeps the `%.9g` text of the last x column it formatted and a
family written in a row formats its axis once, to the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from warnings import catch_warnings, simplefilter

import numpy as np

from .core import (CHANNEL_UNITS, CHANNELS, TimeSeries, first_sample_index,
                   slice_time)
from .errors import InputError, ParseError, PulseDetectionError
from .pipeline import SIGNATURE_MAP, AnalysisResult
from .sync import TachoTrack, detect_pulses

_COLUMN_ORDER = ("time_s",) + CHANNELS

#: Rows formatted per write in `write_recording`; bounds the memory held by
#: the Python strings of one block.
_WRITE_BLOCK_ROWS = 4096

#: XML's escapes for the text of an SVG title or axis label.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


@dataclass
class Recording:
    """Everything read from one CSV: channels, tacho track, warnings."""

    channels: dict[str, TimeSeries]
    tacho: TachoTrack | None
    warnings: list[str] = field(default_factory=list)

    @property
    def sample_rate_hz(self) -> float:
        """The rate the channels share."""
        return next(iter(self.channels.values())).sample_rate_hz

    def slice(self, t0_s: float | None = None,
              t1_s: float | None = None) -> "Recording":
        """The recording restricted to [t0_s, t1_s), by default all of it.

        Channels are cut with `slice_time`. The whole tacho pulse train is
        shifted to the first kept sample, the first at or after t0_s, so
        that it stays aligned with the samples when t0_s is off the sample
        grid; the analysis then uses the revolutions the cut holds.
        """
        t0_s = t0_s or 0.0
        if t1_s is None:
            t1_s = min(ts.duration_s for ts in self.channels.values())
        channels = {ch: slice_time(ts, t0_s, t1_s)
                    for ch, ts in self.channels.items()}
        tacho = self.tacho
        if tacho is not None:
            start_s = first_sample_index(t0_s, self.sample_rate_hz) / self.sample_rate_hz
            tacho = TachoTrack(tacho.pulse_times_s - start_s)
        return replace(self, channels=channels, tacho=tacho,
                       warnings=list(self.warnings))


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


def _load_table(fh, **kwargs) -> np.ndarray:
    with catch_warnings():
        simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, **kwargs)


def _parse_columns(fh, n_cols: int,
                   index: dict[str, int]) -> dict[str, np.ndarray] | None:
    """Parse the body as one numeric table; None if any row needs a closer look.

    The table parser accepts a subset of what `float()` accepts and gives the
    same value for it, and skips only empty lines, as the row scan does. So a
    table with the header's column count and no non-finite value is exactly
    what the row scan would return. A column nothing reads may hold text:
    then only the used columns are parsed, once every line is known to have
    the header's cell count, which `usecols` does not check.
    """
    start = fh.tell()
    try:
        table = _load_table(fh)
    except ValueError:
        fh.seek(start)
        if any(line.count(",") != n_cols - 1 for line in fh if line != "\n"):
            return None
        fh.seek(start)
        used = sorted(set(index.values()))
        try:
            table = _load_table(fh, usecols=used)
        except ValueError:
            return None
        index = {ch: used.index(col) for ch, col in index.items()}
        n_cols = len(used)
    if table.shape[1] != n_cols or not np.isfinite(table).all():
        return None
    return {ch: table[:, col_idx] for ch, col_idx in index.items()}


def _scan_rows(fh, path, header: list[str],
               index: dict[str, int]) -> dict[str, np.ndarray]:
    """Parse the body row by row, raising ParseError at the first bad line."""
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
    return {ch: np.array(values, dtype=float) for ch, values in data.items()}


def read_recording(path, *, columns: dict[str, str] | None = None,
                   sample_rate_hz: float | None = None,
                   detect_tacho: bool = True) -> Recording:
    """Read a multi-channel CSV recording.

    `columns` maps channel labels to CSV column names; by default every
    header matching a known channel label is taken as-is. A column that is
    read, time_s included, must appear once in the header. A declared
    `sample_rate_hz` wins over the time_s column; if both are present and
    disagree by more than 0.1% a warning is recorded. A tacho column, when
    present, is run through pulse detection (threshold at mid-swing). One
    leading byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError(f"{path}: empty file")
        header_line = header_line.removeprefix("\ufeff")
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
        for col in col_map.values():
            at = [i + 1 for i, name in enumerate(header) if name == col]
            if len(at) > 1:
                raise ParseError(f"{path}: column {col!r} appears more than "
                                 f"once in the header, at columns {at[0]} "
                                 f"and {at[1]}")

        index = {ch: header.index(col) for ch, col in col_map.items()}
        body_start = fh.tell()
        data = _parse_columns(fh, len(header), index)
        if data is None:
            fh.seek(body_start)
            data = _scan_rows(fh, path, header, index)

    if not data or next(iter(data.values())).size == 0:
        raise ParseError(f"{path}: no data rows")

    warnings: list[str] = []
    time_values = data.pop("time_s", None)
    rate = sample_rate_hz
    if time_values is not None and time_values.size >= 2:
        dt = np.median(np.diff(time_values))
        if dt <= 0:
            raise ParseError(f"{path}: time_s column is not increasing")
        derived = 1.0 / float(dt)
        if rate is None:
            rate = derived
        elif abs(derived - rate) > 1e-3 * rate:
            warnings.append(
                f"declared sample rate {rate} Hz differs from the time column "
                f"({derived:.6g} Hz) by more than 0.1%; using the declared rate")
    if rate is None:
        raise ParseError(
            f"{path}: no time_s column and no declared sample rate")

    channels = {ch: TimeSeries(values, rate, ch, CHANNEL_UNITS[ch])
                for ch, values in data.items()}

    tacho_track = None
    if detect_tacho and "tacho" in channels:
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


def write_recording(channels: dict[str, TimeSeries], path) -> None:
    """Write channels as CSV in canonical column order, after a time_s column.

    Each block of `_WRITE_BLOCK_ROWS` rows is one `%` over the row template
    `"%r,...,%r\\n"` repeated once a row, so every cell is the `repr` of its
    float, as one `repr` per cell would write it.
    """
    order = [ch for ch in CHANNELS if ch in channels]
    if not order:
        raise InputError("no channels to write")
    n = len(channels[order[0]])
    rate = channels[order[0]].sample_rate_hz
    for ch in order:
        if len(channels[ch]) != n or channels[ch].sample_rate_hz != rate:
            raise InputError("all channels must share one length and rate")
    arrays = [channels[ch].samples for ch in order]
    row = ",".join(["%r"] * (1 + len(order))) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["time_s"] + order) + "\n")
        for start in range(0, n, _WRITE_BLOCK_ROWS):
            stop = min(start + _WRITE_BLOCK_ROWS, n)
            # np.arange(start, stop) / rate is bit-identical to i / rate
            block = [np.arange(start, stop) / rate] + [a[start:stop] for a in arrays]
            fh.write(row * (stop - start)
                     % tuple(np.column_stack(block).ravel().tolist()))


def report_document(results: dict[str, AnalysisResult],
                    errors: dict[str, Exception] | None = None,
                    config_echo: dict | None = None) -> dict:
    """JSON-serializable report tree for a set of per-channel analyses."""
    doc: dict = {"channels": {}, "channel_errors": {},
                 "signature_map": dict(SIGNATURE_MAP)}
    if config_echo is not None:
        doc["config"] = config_echo
    for ch, res in results.items():
        doc["channels"][ch] = {
            "f_rot_hz": res.f_rot_hz,
            "f_tooth_hz": res.f_tooth_hz,
            "mean_rpm": res.mean_rpm,
            "samples_per_rev": res.samples_per_rev,
            "inconclusive": res.inconclusive,
            "warnings": list(res.warnings),
            # tooth_index is None except on weak-tooth findings
            "findings": [{k: v for k, v in asdict(f).items() if v is not None}
                         for f in res.findings],
            "tooth_profile": {
                "z": res.tooth_profile.z,
                "mean_load": [float(v) for v in res.tooth_profile.mean_load],
                "asymmetry_index": [float(v) for v in
                                    res.tooth_profile.asymmetry_index],
            },
        }
    for ch, err in (errors or {}).items():
        doc["channel_errors"][ch] = f"{type(err).__name__}: {err}"
    return doc


def dump_report(doc: dict) -> str:
    """Deterministic serialization: sorted keys, repr floats, LF endings."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_report(doc))


def _format_pairs(fmt: str, a: np.ndarray, b: np.ndarray) -> str:
    """fmt, a template for two floats, filled with each (a[i], b[i]) in turn."""
    return (fmt * a.size) % tuple(np.column_stack((a, b)).ravel().tolist())


@lru_cache(maxsize=1)
def _x_lines(x_bytes: bytes) -> str:
    """Line template `"<x[i] as %.9g> %.9g\\n"` per point of a float64 column.

    Keyed by the column's bytes, so the one cached template is that of the
    last x column written; a hit is exactly the text the column formats to.
    """
    return ("%.9g %%.9g\n" * (len(x_bytes) // 8)) % tuple(
        np.frombuffer(x_bytes).tolist())


def write_xy(path, x, y, x_label: str, y_label: str) -> None:
    """Two-column plot-data text file with a one-line header."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise InputError("x and y must have the same length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {x_label} {y_label}\n")
        fh.write(_x_lines(x.tobytes()) % tuple(y.tolist()))


def _m4_indices(x: np.ndarray, y: np.ndarray, x0: float, xs: float,
                n_px: int) -> np.ndarray | None:
    """Indices of the first, last, min-y and max-y point of each pixel column.

    M4 aggregation (Jugel et al., VLDB 2014): a line through these points
    rasterizes like the line through all of them. Returns None, meaning
    draw every point, unless x is non-decreasing, x, y and the pixel span of
    x are finite and there are more than 4 points per pixel column on average.
    """
    if (x.size <= 4 * n_px or not np.isfinite(x).all()
            or not np.isfinite(y).all() or np.any(x[1:] < x[:-1])
            or not math.isfinite((x[-1] - x0) * xs)):
        return None
    col = np.minimum(((x - x0) * xs).astype(np.int64), n_px - 1)
    # x is sorted, so each pixel column is one run of consecutive points
    starts = np.concatenate(([True], col[1:] != col[:-1]))
    first = np.flatnonzero(starts)
    run = np.cumsum(starts) - 1
    last = np.append(first[1:] - 1, x.size - 1)

    def first_hit(hit):
        idx = np.flatnonzero(hit)
        return idx[np.flatnonzero(np.diff(run[idx], prepend=-1))]

    lo = first_hit(y == np.minimum.reduceat(y, first)[run])
    hi = first_hit(y == np.maximum.reduceat(y, first)[run])
    keep = np.zeros(x.size, dtype=bool)
    keep[np.concatenate((first, last, lo, hi))] = True
    return np.flatnonzero(keep)


def write_svg(path, x, y, title: str, x_label: str, y_label: str) -> None:
    """Minimal deterministic SVG line plot of y over x.

    Above 4 points per pixel column of sorted x, only each column's first,
    last, min-y and max-y points are drawn.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size == 0:
        raise InputError("x and y must be non-empty and the same length")
    width, height = 800, 400
    ml, mr, mt, mb = 60, 20, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xs = pw / (x1 - x0) if x1 > x0 else 0.0
    ys = ph / (y1 - y0) if y1 > y0 else 0.0
    keep = _m4_indices(x, y, x0, xs, pw)
    if keep is not None:
        x, y = x[keep], y[keep]
    px = ml + (x - x0) * xs
    py = mt + ph - (y - y0) * ys
    points = _format_pairs("%.2f,%.2f ", px, py)[:-1]
    title, x_label, y_label = (s.translate(_XML_TEXT) for s in (title, x_label, y_label))
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


def emit_plot_data(path_base, x, y, title: str, x_label: str, y_label: str) -> None:
    """Write both the two-column text file and the SVG rendering."""
    write_xy(str(path_base) + ".txt", x, y, x_label, y_label)
    write_svg(str(path_base) + ".svg", x, y, title, x_label, y_label)
