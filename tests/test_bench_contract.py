"""The benchmark's tracer must find every millenv name it patches.

`bench/spans.py` wraps functions by the module attribute callers look them
up under (for example ``millenv.cli.analyze``). Renaming or dropping one of
those names in `src/` would make every traced benchmark run fail; this
keeps that failure in the test suite. No benchmark is run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_patches_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import millenv.cli
    from spans import Tracer

    main = millenv.cli.main
    tracer = Tracer()
    try:
        tracer.__enter__()  # raises AttributeError for a missing name
        assert millenv.cli.main is not main
    finally:
        # undo the patches made before any failure, so later tests see
        # the real functions
        tracer.__exit__(None, None, None)
    assert millenv.cli.main is main
    assert tracer.spans == []
