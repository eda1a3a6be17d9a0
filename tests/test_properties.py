"""Property tests for values stored once and derived everywhere else, and
for plot files that keep the bytes of the per-point writers."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_fileio as ref
from millenv import (AnalysisResult, SizeError, ToothProfile,
                     averaged_rev_spectrum, synchronous_average)
from millenv.fileio import write_svg, write_xy

TEETH = st.integers(1, 16)


@given(st.lists(st.floats(0.0, 1e6, allow_subnormal=False),
                min_size=1, max_size=16))
def test_asymmetry_index_sums_to_zero(loads):
    profile = ToothProfile(loads)
    assert abs(float(profile.asymmetry_index.sum())) <= 1e-9


@given(TEETH)
def test_asymmetry_index_zero_without_load(z):
    assert np.all(ToothProfile(np.zeros(z)).asymmetry_index == 0.0)


@given(st.lists(st.integers(0, 4), max_size=3))
def test_synchronous_average_takes_only_rows_of_revolutions(shape):
    # one row per revolution: a 1-D series or a 3-D stack is not averaged
    # as if it were one
    revolutions = np.zeros(shape)
    if len(shape) == 2 and shape[0] >= 1:
        assert synchronous_average(revolutions).shape == (shape[1],)
    else:
        with pytest.raises(SizeError):
            synchronous_average(revolutions)


@given(st.floats(1.0, 1e5), TEETH,
       st.lists(st.floats(0.0, 1e3), min_size=2, max_size=64))
def test_report_frequencies_follow_mean_rpm(mean_rpm, z, avg):
    result = AnalysisResult("ax", mean_rpm, (), ToothProfile(np.ones(z)), avg)
    assert result.f_rot_hz == mean_rpm / 60.0
    assert result.f_tooth_hz == z * result.f_rot_hz
    assert result.samples_per_rev == len(avg)
    # the envelope spectrum is the averaged revolution's, one bin per order
    spec = result.envelope_spectrum
    assert (spec.df_hz, spec.n_fft) == (result.f_rot_hz, len(avg))
    assert (spec.amplitudes.tobytes()
            == averaged_rev_spectrum(avg, result.f_rot_hz).amplitudes.tobytes())


EXTREMES = (np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, 1e308, -1e308)
M4_EDGE = 4 * ref.PLOT_WIDTH  # write_svg reduces only above this many points


@st.composite
def plot_arrays(draw, sizes):
    """x and y of one plot: bulk values from a seeded generator, with a few
    arbitrary floats and extremes written over them at drawn positions."""
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sorted", "plateaus", "constant", "unsorted"]))
    # spans of 1e-320 and 2e308 leave no finite pixel scale
    x = {"sorted": lambda: np.sort(rng.uniform(-1.0, 1.0, n)) * draw(
             st.sampled_from([1e-320, 1e-300, 1.0, 1e300, 1e308])),
         "plateaus": lambda: np.sort(rng.integers(0, max(n // 8, 1), n)) * 0.5,
         "constant": lambda: np.full(n, draw(st.floats(-1e300, 1e300))),
         "unsorted": lambda: rng.standard_normal(n)}[kind]()
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 307, n)
    special = st.floats() | st.sampled_from(EXTREMES)
    for arr, sort_after in ((x, kind in ("sorted", "plateaus")), (y, False)):
        if n and draw(st.booleans()):
            for value in draw(st.lists(special, min_size=1, max_size=4)):
                arr[draw(st.integers(0, n - 1))] = value
            if sort_after:
                arr.sort()
    if kind != "unsorted":
        # x.min() may return -0.0 or 0.0 when both are present, and not the
        # same one for a kept subset as for the whole plot
        x += 0.0
    return x, y


@settings(max_examples=150, deadline=None)
@given(plot_arrays(sizes=(0, 1, 2, 3, 17, M4_EDGE - 1, M4_EDGE, M4_EDGE + 1)))
def test_write_xy_matches_per_point_writer(xy):
    x, y = xy
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.txt"), Path(tmp, "old.txt")
        write_xy(new, x, y, "f", "a")
        ref.write_xy(old, x, y, "f", "a")
        assert new.read_bytes() == old.read_bytes()


@settings(max_examples=150, deadline=None)
@given(plot_arrays(sizes=(1, 2, 3, 17, M4_EDGE - 1, M4_EDGE, M4_EDGE + 1,
                          2 * M4_EDGE + 3)))
def test_write_svg_matches_per_point_writer(xy):
    """A reduced SVG is the per-point SVG of the points `m4_indices` keeps:
    those include the first and last x and the extreme y values, so the
    axis labels and scales are the same."""
    x, y = xy
    keep = ref.m4_indices(x, y)
    if keep is not None:
        x_ref, y_ref = x[keep], y[keep]
    else:
        x_ref, y_ref = x, y
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        new, old = Path(tmp, "new.svg"), Path(tmp, "old.svg")
        write_svg(new, x, y, "t", "x", "y")
        ref.write_svg(old, x_ref, y_ref, "t", "x", "y")
        assert new.read_bytes() == old.read_bytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_write_xy_shared_axis_matches_per_point_writer(data):
    """One x written with 1-4 y columns in turn, some writes preceded by a
    second x: independent, or x with one value negated, which turns a 0.0
    into -0.0. Each file keeps the per-point writer's bytes."""
    sizes = (1, 2, 3, 17, M4_EDGE + 1)
    x, y = data.draw(plot_arrays(sizes=sizes))
    ys = [y] + [data.draw(plot_arrays(sizes=(x.size,)))[1]
                for _ in range(data.draw(st.integers(0, 3)))]
    with tempfile.TemporaryDirectory() as tmp:
        for i, y_i in enumerate(ys):
            writes = [(x, y_i)]
            if data.draw(st.booleans()):
                if data.draw(st.booleans()):
                    x2, y2 = data.draw(plot_arrays(sizes=sizes))
                else:
                    x2, y2 = x.copy(), y_i
                    x2[data.draw(st.integers(0, x.size - 1))] *= -1.0
                writes.insert(0, (x2, y2))
            for j, (xw, yw) in enumerate(writes):
                new, old = Path(tmp, f"new{i}{j}.txt"), Path(tmp, f"old{i}{j}.txt")
                write_xy(new, xw, yw, "f", "a")
                ref.write_xy(old, xw, yw, "f", "a")
                assert new.read_bytes() == old.read_bytes()
