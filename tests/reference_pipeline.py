"""Reference classifier on the 8x tiled averaged-revolution spectrum.

This is the straightforward form of `millenv.pipeline.classify`, kept as a
test oracle. `reference_rev_spectrum` tiles the averaged revolution
SPECTRUM_TILE times before the FFT, so order k lands on bin k*SPECTRUM_TILE,
and `amplitude_near` reads each order as the largest bin within +-1 bin of
it. `reference_classify` reads the carrier, the noise-floor orders, the
sub-tooth orders and the 1x and 2x orders in separate passes. The library
reads one order table straight off the untiled spectrum, whose bin k is
order k. Both must give the same findings, and the library's `min_carrier`
gate must fail exactly when the reference returns inconclusive.
"""

import numpy as np

from millenv import Finding, RangeError, SizeError, Spectrum, Thresholds
from millenv.dsp import _one_sided_amplitudes

SPECTRUM_TILE = 8


def reference_rev_spectrum(avg_rev, f_rot_hz):
    """Spectrum of the averaged revolution tiled SPECTRUM_TILE times."""
    avg = np.asarray(avg_rev, dtype=float)
    if avg.size < 2:
        raise SizeError("averaged revolution needs at least 2 samples")
    if f_rot_hz <= 0.0:
        raise RangeError(f"f_rot_hz must be positive, got {f_rot_hz}")
    tiled = np.tile(avg - avg.mean(), SPECTRUM_TILE)
    n_fft = tiled.size
    return Spectrum(_one_sided_amplitudes(tiled, n_fft),
                    f_rot_hz / SPECTRUM_TILE, n_fft)


def amplitude_near(spec, f_hz):
    """Largest amplitude within +-1 bin of the bin closest to f_hz.

    Returns ``(amplitude, bin_frequency_hz)`` of the winning bin. No
    sub-bin interpolation is applied; synchronous records put order
    components exactly on bins.
    """
    k = int(round(f_hz / spec.df_hz))
    lo = max(k - 1, 0)
    hi = min(k + 1, spec.amplitudes.size - 1)
    if hi < lo:
        raise RangeError(f"frequency {f_hz} Hz outside the spectrum")
    window = spec.amplitudes[lo:hi + 1]
    j = lo + int(np.argmax(window))
    return float(spec.amplitudes[j]), j * spec.df_hz


def reference_classify(env_spec, tooth_profile, f_rot, cfg=Thresholds()):
    df = env_spec.df_hz
    if f_rot < 3.0 * df - 1e-12:
        raise RangeError(
            f"spectrum resolution {df} Hz too coarse for f_rot {f_rot} Hz; "
            "need f_rot >= 3 bins")
    z = tooth_profile.z
    carrier, _ = amplitude_near(env_spec, z * f_rot)
    # noise floor from the rotation harmonics surrounding the carrier; the
    # envelope rolls off at high orders, so distant bins would understate it
    k_max = int((env_spec.amplitudes.size - 2) * df / f_rot)
    k_hi = min(k_max, max(3 * z, 8))
    order_amps = [amplitude_near(env_spec, k * f_rot)[0]
                  for k in range(1, max(k_hi, z) + 1)]
    noise_floor = cfg.min_carrier * float(np.median(order_amps))
    inconclusive = carrier <= noise_floor

    def ratio_of(amp):
        return amp / carrier if carrier > 0.0 else 0.0

    findings = []

    # sub-tooth-order harmonics k/rev, k = 1 .. z-1
    if z >= 2:
        amps = [amplitude_near(env_spec, k * f_rot) for k in range(1, z)]
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
        amp1, freq1 = amplitude_near(env_spec, 1.0 * f_rot)
        r1 = ratio_of(amp1)
        findings.append(Finding(
            "imbalance_or_eccentricity", freq1, r1, cfg.ecc_ratio,
            triggered=bool(not inconclusive and not any_weak
                           and r1 >= cfg.ecc_ratio)))
        if z >= 3:
            amp2, freq2 = amplitude_near(env_spec, 2.0 * f_rot)
            r2 = ratio_of(amp2)
            findings.append(Finding(
                "misalignment", freq2, r2, cfg.misalign_ratio,
                triggered=bool(not inconclusive and amp2 > amp1
                               and r2 >= cfg.misalign_ratio)))

    return tuple(findings), bool(inconclusive)
