"""Reference half-power edges: a bin-by-bin walk out from the peak.

This is the straightforward form of `millenv.modal._half_power_edges`,
kept as a test oracle: it scans down from the peak for the first bin below
the -3 dB level, then up. The library finds every such bin at once; both
must give the same edges bit for bit.
"""

import numpy as np


def reference_half_power_edges(mag: np.ndarray, peak: int,
                               df: float) -> tuple[float, float]:
    target = mag[peak] / np.sqrt(2.0)
    lo = peak * df
    for j in range(peak - 1, -1, -1):
        if mag[j] < target:
            frac = (mag[j + 1] - target) / (mag[j + 1] - mag[j])
            lo = (j + 1 - frac) * df
            break
    else:
        lo = 0.0
    hi = peak * df
    for j in range(peak + 1, mag.size):
        if mag[j] < target:
            frac = (mag[j - 1] - target) / (mag[j - 1] - mag[j])
            hi = (j - 1 + frac) * df
            break
    else:
        hi = (mag.size - 1) * df
    return lo, hi
