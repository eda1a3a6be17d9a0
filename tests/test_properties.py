"""Property tests for values stored once and derived everywhere else."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from millenv import AngularSeries, DefectReport, SizeError, ToothProfile

TEETH = st.integers(1, 16)


@given(st.lists(st.floats(0.0, 1e6, allow_subnormal=False),
                min_size=1, max_size=16))
def test_asymmetry_index_sums_to_zero(loads):
    profile = ToothProfile(loads)
    assert abs(float(profile.asymmetry_index.sum())) <= 1e-9


@given(TEETH)
def test_asymmetry_index_zero_without_load(z):
    assert np.all(ToothProfile(np.zeros(z)).asymmetry_index == 0.0)


@given(st.integers(0, 64), st.integers(1, 16))
def test_angular_series_holds_whole_revolutions(size, samples_per_rev):
    if size > 0 and size % samples_per_rev == 0:
        a = AngularSeries(np.zeros(size), samples_per_rev)
        assert a.n_revs * a.samples_per_rev == size
    else:
        with pytest.raises(SizeError):
            AngularSeries(np.zeros(size), samples_per_rev)


@given(st.floats(1.0, 1e5), TEETH)
def test_report_frequencies_follow_mean_rpm(mean_rpm, z):
    report = DefectReport("ax", mean_rpm, (), ToothProfile(np.ones(z)))
    assert report.f_rot_hz == mean_rpm / 60.0
    assert report.f_tooth_hz == z * report.f_rot_hz
