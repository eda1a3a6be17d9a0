"""Write the golden outputs of the reference run.

`generate` runs ``millenv simulate`` on configs/reference.json, then
``millenv analyze`` of the whole recording, of the cut
``--t0 0.1 --t1 1.1`` and of the cut ``--t0 0.10002 --t1 1.1``, whose start
falls between samples. It keeps the truth file, every report and a sha256
manifest of the simulated recording and of every plot file, stamped with
the numpy version that wrote them. tests/test_golden.py regenerates the set
in a temporary directory and compares it with the committed one through
`compare`.

From the repository root, compare a regenerated set with the committed one
(it prints every report float that moved, with its relative change, and
every file whose sha256 changed, and exits 1 if a float moved by more
than REL_TOL or any other report value changed)::

    python tests/golden/regen.py --diff

Rewrite the committed set with::

    python tests/golden/regen.py

and list every number that moved in CHANGES.md.
"""

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
REFERENCE_CONFIG = GOLDEN.parents[1] / "configs" / "reference.json"
#: one analyze run per entry: its name and its extra arguments
RUNS = {"full": [], "cut": ["--t0", "0.1", "--t1", "1.1"],
        "cut_frac": ["--t0", "0.10002", "--t1", "1.1"]}
MANIFEST = "plots.sha256.json"
#: the report documents of a set, in the order they are compared
DOCUMENTS = ("truth.json",) + tuple(f"report_{run}.json" for run in RUNS)
#: a report float may move by this much, relative, as numpy releases may
#: round an FFT differently; every other report value must match exactly
REL_TOL = 1e-12


def _run(argv) -> None:
    from millenv.cli import main
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"millenv {' '.join(argv)} exited with {code}")


def generate(out: Path) -> None:
    """Write truth.json, report_<run>.json and the sha256 manifest to out."""
    out.mkdir(parents=True, exist_ok=True)
    config = str(REFERENCE_CONFIG)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _run(["simulate", "--config", config, "--out", str(work / "sim")])
        (out / "truth.json").write_bytes((work / "sim" / "truth.json").read_bytes())
        files["sim/recording.csv"] = hashlib.sha256(
            (work / "sim" / "recording.csv").read_bytes()).hexdigest()
        for name, extra in RUNS.items():
            run_dir = work / name
            _run(["analyze", "--config", config,
                  "--in", str(work / "sim" / "recording.csv"),
                  "--out", str(run_dir), *extra])
            (out / f"report_{name}.json").write_bytes(
                (run_dir / "report.json").read_bytes())
            for path in sorted(run_dir.iterdir()):
                if path.name != "report.json":
                    files[f"{name}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
    manifest = {"numpy": np.__version__, "files": files}
    (out / MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def walk(got, want, path="$"):
    """Yield (path, got, want) for every value where two JSON documents differ.

    Dicts with other keys, lists of another length and values of another
    type are yielded whole, at their own path.
    """
    if type(got) is not type(want):
        yield path, got, want
    elif isinstance(want, dict):
        if sorted(got) != sorted(want):
            yield path, got, want
            return
        for key in want:
            yield from walk(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        if len(got) != len(want):
            yield path, got, want
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from walk(g, w, f"{path}[{i}]")
    elif got != want:
        yield path, got, want


def within_tolerance(got, want) -> bool:
    """Whether a differing report value is two floats within REL_TOL."""
    return (isinstance(got, float) and isinstance(want, float)
            and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0))


def compare(got_dir: Path, want_dir: Path):
    """How the set in got_dir differs from the one in want_dir.

    Returns ``(values, plots, same_numpy)``: `walk`'s (path, got, want) of
    every report value that differs, paths starting at the document's name;
    (name, got sha256, want sha256) of every file whose hash differs,
    None for a file missing from one set; and whether the same numpy
    version wrote both manifests.
    """
    values = [diff for name in DOCUMENTS
              for diff in walk(read_json(got_dir / name),
                               read_json(want_dir / name), name)]
    got, want = read_json(got_dir / MANIFEST), read_json(want_dir / MANIFEST)
    plots = [(name, got["files"].get(name), want["files"].get(name))
             for name in sorted(set(got["files"]) | set(want["files"]))
             if got["files"].get(name) != want["files"].get(name)]
    return values, plots, got["numpy"] == want["numpy"]


def print_diff(values, plots, same_numpy) -> bool:
    """Print compare's result; True when every value is within REL_TOL."""
    moved = 0
    for path, got, want in values:
        if isinstance(got, float) and isinstance(want, float):
            moved += 1
            rel = abs(got - want) / max(abs(got), abs(want))
            flag = "" if within_tolerance(got, want) else "  ABOVE REL_TOL"
            print(f"{path}: {want!r} -> {got!r} (relative {rel:.2g}){flag}")
        else:
            print(f"{path}: {want!r} -> {got!r}  CHANGED")
    for name, got, want in plots:
        print(f"file {name}: sha256 {want} -> {got}")
    print(f"{moved} report float(s) moved, {len(values) - moved} other "
          f"report value(s) changed, {len(plots)} file(s) changed"
          + ("" if same_numpy else " (the sets were written by different "
             "numpy versions)"))
    return all(within_tolerance(got, want) for _, got, want in values)


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare a regenerated set with the committed "
                             "one instead of rewriting it")
    if parser.parse_args().diff:
        with tempfile.TemporaryDirectory() as tmp:
            generate(Path(tmp))
            sys.exit(0 if print_diff(*compare(Path(tmp), GOLDEN)) else 1)
    generate(GOLDEN)
    print(f"wrote the golden set to {GOLDEN}")
