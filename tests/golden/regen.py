"""Write the golden outputs of the reference run.

`generate` runs ``millenv simulate`` on configs/reference.json, then
``millenv analyze`` of the whole recording, of the cut
``--t0 0.1 --t1 1.1`` and of the cut ``--t0 0.10002 --t1 1.1``, whose start
falls between samples. It keeps the truth file, every report and a sha256
manifest of every plot file, stamped with the numpy version that wrote
them. tests/test_golden.py regenerates the set in a temporary directory
and compares it with the committed one.

Rewrite the committed set from the repository root with::

    python tests/golden/regen.py

and list every number that moved in CHANGES.md.
"""

import hashlib
import json
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


def _run(argv) -> None:
    from millenv.cli import main
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"millenv {' '.join(argv)} exited with {code}")


def generate(out: Path) -> None:
    """Write truth.json, report_<run>.json and the plot manifest to out."""
    out.mkdir(parents=True, exist_ok=True)
    config = str(REFERENCE_CONFIG)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _run(["simulate", "--config", config, "--out", str(work / "sim")])
        (out / "truth.json").write_bytes((work / "sim" / "truth.json").read_bytes())
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


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    generate(GOLDEN)
    print(f"wrote the golden set to {GOLDEN}")
