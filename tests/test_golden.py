"""The reference run's outputs against the committed golden set.

tests/golden/regen.py writes the set; this test writes it again in a
temporary directory and compares the two with regen.py's `compare`, the
walk behind ``regen.py --diff``. Keys, strings, booleans and integers
(tooth indices, counts) must match exactly and floats to REL_TOL (1e-12)
relative, since numpy releases may round an FFT differently. Under the
numpy version that wrote the set, every report and the truth file must be
byte-identical and the sha256 manifest of the simulated recording and the
plot files must match; under any other the file names must still match.
"""

from golden.regen import DOCUMENTS, GOLDEN, compare, generate, within_tolerance


def test_reference_run_matches_golden_set(tmp_path):
    generate(tmp_path)
    values, plots, same_numpy = compare(tmp_path, GOLDEN)
    assert [diff for diff in values if not within_tolerance(*diff[1:])] == []
    if same_numpy:
        assert plots == []
        assert [name for name in DOCUMENTS if (tmp_path / name).read_bytes()
                != (GOLDEN / name).read_bytes()] == []
    else:
        assert [name for name, got, want in plots
                if got is None or want is None] == []
