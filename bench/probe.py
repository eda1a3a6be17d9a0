"""Host speed probes for the millenv benchmark.

On a shared host the same code runs up to 2x slower from one minute to the
next, while CPU time still equals wall time, so the process is not waiting:
the CPU itself does less per second. A probe is a fixed piece of work of
the same kind as the measured code, timed right before and right after it.
Timings are reported at reference speed, ``wall * ref_s / probe``, where
``ref_s`` is a fixed constant near the probe's time on a quiet host (see
README.md), so the values still read as seconds. The probe is benchmark
code: a change to millenv cannot change what it does.

This module imports nothing beyond what the interpreter loads at start-up
(``os``, ``time``), so a fresh process can load it and still time all of
``import millenv``.
"""

import os
import time


class SpeedProbe:
    """Times one fixed piece of work; ``kind`` picks which.

    ``text``: write 15 000 floats as CSV text, read them back and parse
    them, as the CLI does with recordings and plot files. ``fft``: a
    forward and inverse FFT of 500 000 points on fresh arrays, as the
    library path's DSP does.
    """

    REF_S = {"text": 0.030, "fft": 0.021}

    def __init__(self, kind: str, workdir):
        self.kind, self.ref_s = kind, self.REF_S[kind]
        if kind == "text":
            self.path = os.path.join(workdir, f"probe-{os.getpid()}.csv")
            self.floats = [i * 1.2345e-3 for i in range(15_000)]
            self.work = self._text
        else:
            import numpy as np
            # bound now, so a tracer that later patches numpy.fft does not
            # record the probe's transforms
            self.rfft, self.irfft, self.abs = np.fft.rfft, np.fft.irfft, np.abs
            self.signal = np.random.default_rng(0).standard_normal(500_000)
            self.work = self._fft

    def _text(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            for x in self.floats:
                fh.write(f"{x!r},{x:.9g}\n")
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                a, b = line.split(",")
                float(a), float(b)

    def _fft(self) -> None:
        x = self.signal * 1.0001
        y = self.irfft(self.rfft(x) * 0.5, n=x.size)
        self.abs(y) + x

    def __call__(self) -> float:
        """Seconds the work took this time."""
        t = time.perf_counter()
        self.work()
        return time.perf_counter() - t

    def scale(self, wall_s: float, probe_s: float) -> float:
        """A wall time taken at probe time `probe_s`, at reference speed."""
        return wall_s * self.ref_s / probe_s
