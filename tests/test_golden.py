"""The reference run's outputs against the committed golden set.

tests/golden/regen.py writes the set; this test writes it again in a
temporary directory. Keys, strings, booleans and integers (tooth indices,
counts) must match exactly and floats to 1e-12 relative, since numpy
releases may round an FFT differently. The plot manifest is compared byte
for byte only under the numpy version that wrote it; under any other the
file names must still match.
"""

import json
import math

from golden.regen import GOLDEN, MANIFEST, RUNS, generate


def assert_matches(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_reference_run_matches_golden_set(tmp_path):
    generate(tmp_path)
    names = ["truth.json"] + [f"report_{run}.json" for run in RUNS]
    for name in names:
        assert_matches(read_json(tmp_path / name), read_json(GOLDEN / name),
                       name)
    got, want = read_json(tmp_path / MANIFEST), read_json(GOLDEN / MANIFEST)
    if got["numpy"] == want["numpy"]:
        assert got == want
    else:
        assert sorted(got["files"]) == sorted(want["files"])
