"""Reference pulse detector: one armed/fired decision per rising edge.

This is the straightforward form of `millenv.sync.detect_pulses`, kept as
a test oracle: it walks the rising edges in order and remembers the last
one that fired. The library decides every edge at once from the re-arm
samples since the previous rising edge; both must give the same pulse
times bit for bit, or the same error.
"""

import numpy as np

from millenv import (PulseDetectionError, RangeError, TachoTrack,
                     TimeSeries)


def reference_detect_pulses(tacho: TimeSeries, threshold: float,
                            hysteresis: float) -> TachoTrack:
    if hysteresis <= 0.0:
        raise RangeError(f"hysteresis must be positive, got {hysteresis}")
    x = tacho.samples
    above = x >= threshold
    rearm_level = threshold - hysteresis
    candidates = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    rearm_idx = np.flatnonzero(x < rearm_level)

    times = []
    last_fire = -1
    for i in candidates:
        # armed only if the signal dropped below the re-arm level since the
        # previous firing (or since the start of the record)
        j = np.searchsorted(rearm_idx, i)
        armed = j > 0 and rearm_idx[j - 1] > last_fire
        if not armed:
            continue
        frac = (threshold - x[i - 1]) / (x[i] - x[i - 1])
        times.append((i - 1 + frac) / tacho.sample_rate_hz)
        last_fire = i
    if len(times) < 2:
        raise PulseDetectionError(
            f"found {len(times)} pulse(s) at threshold {threshold}; "
            "need at least 2 for a speed estimate")
    return TachoTrack(np.asarray(times))
