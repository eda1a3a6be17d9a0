"""Reference classifier: one `amplitude_near` call per finding and order.

This is the straightforward form of `millenv.pipeline.classify`, kept as a
test oracle: it reads the carrier, the noise-floor orders, the sub-tooth
orders and the 1x and 2x orders from the spectrum in separate passes. The
library reads each order once into a table; both must give equal findings
and the same inconclusive flag.
"""

import numpy as np

from millenv import Finding, RangeError, Thresholds


def reference_classify(env_spec, tooth_profile, f_rot, cfg=Thresholds()):
    df = env_spec.df_hz
    if f_rot < 3.0 * df - 1e-12:
        raise RangeError(
            f"spectrum resolution {df} Hz too coarse for f_rot {f_rot} Hz; "
            "need f_rot >= 3 bins")
    z = tooth_profile.z
    carrier, _ = env_spec.amplitude_near(z * f_rot)
    # noise floor from the rotation harmonics surrounding the carrier; the
    # envelope rolls off at high orders, so distant bins would understate it
    k_max = int((env_spec.amplitudes.size - 2) * df / f_rot)
    k_hi = min(k_max, max(3 * z, 8))
    order_amps = [env_spec.amplitude_near(k * f_rot)[0]
                  for k in range(1, max(k_hi, z) + 1)]
    noise_floor = cfg.min_carrier * float(np.median(order_amps))
    inconclusive = carrier <= noise_floor

    def ratio_of(amp):
        return amp / carrier if carrier > 0.0 else 0.0

    findings = []

    # sub-tooth-order harmonics k/rev, k = 1 .. z-1
    if z >= 2:
        amps = [env_spec.amplitude_near(k * f_rot) for k in range(1, z)]
        best = int(np.argmax([a for a, _ in amps]))
        amp_k, freq_k = amps[best]
        r = ratio_of(amp_k)
        findings.append(Finding(
            "tooth_asymmetry", freq_k, r, cfg.asym_ratio,
            triggered=bool(not inconclusive and r >= cfg.asym_ratio)))

    drops = -tooth_profile.asymmetry_index
    weak = np.flatnonzero(drops >= cfg.weak_tooth_drop)
    any_weak = weak.size > 0
    if any_weak:
        for i in weak.tolist():
            findings.append(Finding(
                "weak_tooth", f_rot, float(drops[i]), cfg.weak_tooth_drop,
                triggered=True, tooth_index=int(i)))
    else:
        worst = int(np.argmax(drops))
        findings.append(Finding(
            "weak_tooth", f_rot, max(float(drops[worst]), 0.0),
            cfg.weak_tooth_drop, triggered=False, tooth_index=worst))

    if z >= 2:
        amp1, freq1 = env_spec.amplitude_near(1.0 * f_rot)
        r1 = ratio_of(amp1)
        findings.append(Finding(
            "imbalance_or_eccentricity", freq1, r1, cfg.ecc_ratio,
            triggered=bool(not inconclusive and not any_weak
                           and r1 >= cfg.ecc_ratio)))
        if z >= 3:
            amp2, freq2 = env_spec.amplitude_near(2.0 * f_rot)
            r2 = ratio_of(amp2)
            findings.append(Finding(
                "misalignment", freq2, r2, cfg.misalign_ratio,
                triggered=bool(not inconclusive and amp2 > amp1
                               and r2 >= cfg.misalign_ratio)))

    return tuple(findings), bool(inconclusive)
