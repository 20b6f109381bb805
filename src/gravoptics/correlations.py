"""Zero-delay second-order coherence of Gaussian states.

The primary g2 route goes through moments of the Gaussian characteristic
function (Wick expansion), which the Fock oracle certifies; published closed
forms are provided as secondary evaluations, and ``oracle-check`` records
where they disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OpenChannelParams
from .states import DetectorScalars, GwSignalParams


@dataclass(frozen=True)
class G2Report:
    """g2(0) evaluation with its ingredients.

    ``g2`` and ``g2_minus_1`` are None when the value is undefined (vacuum
    0/0), instead of surfacing a NaN.  ``g2_minus_1`` is the Wick excess
    over <n>^2, not g2 - 1.0, so it keeps its digits where g2 rounds to 1.
    """

    g2: float | None
    g2_minus_1: float | None
    mean_n: float
    mean_n2: float


def wick_g2_minus_1(sc: DetectorScalars):
    """g2 - 1 = excess / <n>^2 of scalars or of arrays that broadcast to the grid.

    NaN where <n> vanishes or its square underflows; inf or NaN also mark an
    overflow, so only a finite value is a defined g2 - 1.
    """
    mean_n = sc.mean_n
    square = mean_n * mean_n
    excess = sc.excess
    if isinstance(square, np.ndarray) or isinstance(excess, np.ndarray):
        out = np.full(np.broadcast_shapes(np.shape(excess), np.shape(square)), math.nan)
        return np.divide(excess, square, out=out, where=(mean_n > 0.0) & (square != 0.0))
    return excess / square if mean_n > 0.0 and square != 0.0 else math.nan


def _wick_g2(sc: DetectorScalars) -> G2Report:
    """g2 = 1 + excess / <n>^2 by Wick pairing; None where <n> vanishes."""
    mean_n = sc.mean_n
    mean_n2 = sc.excess + mean_n * mean_n + mean_n
    g2_minus_1 = wick_g2_minus_1(sc)
    if not math.isfinite(g2_minus_1):  # zero or underflowed occupation, or an overflow
        return G2Report(None, None, mean_n, mean_n2)
    return G2Report(1.0 + g2_minus_1, g2_minus_1, mean_n, mean_n2)


def g2_ideal(p: GwSignalParams) -> G2Report:
    """g2(0) of the wave state itself, equal to the detector's by transfer.

    Computed from the characteristic-function moments (the oracle-certified
    route).  Undefined for the vacuum: the report then carries g2 = None.
    """
    return _wick_g2(p.detector_scalars())


def g2_bar_after_evolution(p: GwSignalParams, gamma_t: float) -> G2Report:
    """g2(0) of the evolved detector marginal (ground-state detector).

    Propagates the normal-ordered central moments exactly
    (ntilde_bar = sin^2 ntilde_gw, mu_bar = sin^2 mu_gw, abar_bar = sin abar),
    which keeps the transfer law clean at gamma_t as small as 1e-6 where the
    covariance representation would lose the signal to rounding.
    """
    s = math.sin(gamma_t)
    return _wick_g2(p.detector_scalars(s * s))


def g2_main_text_formula(p: GwSignalParams) -> float:
    """Secondary evaluation of the published general-Gaussian g2 closed form.

    Kept verbatim (including its sin(2 theta) cross term) for the
    ``g2_cross_term_variant_rejected`` check of ``oracle-check``; the oracle
    sides with the moment route, whose cross term is cos(theta - 2 arg alpha).
    """
    a2 = abs(p.alpha) ** 2
    half = p.nbar + 0.5
    num = (
        2.0 * (2.0 * a2 - 1.0) * half * math.cosh(2 * p.r)
        - 4.0 * a2 * half * math.sinh(2 * p.r) * math.sin(2.0 * p.theta)
        - 2.0 * a2
        + 2.0 * half * half * math.cosh(4 * p.r)
        + 0.5
    )
    den = 2.0 * a2 + 2.0 * half * math.cosh(2 * p.r) - 1.0
    if den == 0.0:
        raise ValueError("vacuum input: closed form is 0/0")
    return 1.0 + 2.0 * num / den**2


def g2_ratio_estimator(p0: float, p1: float, p2: float) -> float:
    """Probability-ratio estimator 2 P0 P2 / P1^2 for g2(0)."""
    if p1 <= 0.0:
        raise ValueError("ratio estimator needs P1 > 0")
    return 2.0 * p0 * p2 / (p1 * p1)


def g2_thermal_detector(p: GwSignalParams, n_th: float, gamma_t: float) -> G2Report:
    """g2(0) of the detector when it starts thermal at occupation n_th.

    Computed from the evolved central moments
    (ntilde_bar = cos^2 n_th + sin^2 ntilde_gw).  At t = 0 with n_th = 0 the
    value is the vacuum 0/0, a first-kind discontinuity: the report carries
    g2 = None instead of a number.
    """
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    s, c = math.sin(gamma_t), math.cos(gamma_t)
    return _wick_g2(p.detector_scalars(s * s, added=c * c * n_th))


def g2_thermal_detector_closed_form(p: GwSignalParams, n_th: float, gamma_t: float) -> float:
    """Published I1 + I2 + I3 closed form for the thermal-detector g2.

    The displacement enters via |alpha| with theta the phase relative to it
    (generalized to cos(theta - 2 arg alpha) for complex displacement).
    """
    a2 = abs(p.alpha) ** 2
    nb = 2.0 * p.nbar + 1.0
    s2 = math.sin(gamma_t) ** 2
    s4 = s2 * s2
    c2g = math.cos(2.0 * gamma_t)
    rel = p.theta - 2.0 * np.angle(p.alpha) if p.alpha != 0 else p.theta
    i1 = 4.0 * nb * math.cosh(2 * p.r) * s2 * (
        2.0 * a2 + (2.0 * n_th + 1.0 - 2.0 * a2) * c2g + 2.0 * n_th - 1.0
    )
    i2 = s4 * (
        8.0 * a2 * a2
        - 8.0 * a2 * nb * math.cos(rel) * math.sinh(2 * p.r)
        + 3.0 * nb * nb * math.cosh(4 * p.r)
        + nb * nb
    )
    cos2 = math.cos(gamma_t) ** 2
    i3 = 4.0 * ((2.0 * n_th + 1.0) * cos2 - 1.0) * (
        (2.0 * n_th + 1.0) * cos2 + 4.0 * a2 * s2 - 1.0
    )
    den = 8.0 * (n_th + s2 * (p.mean_occupation - n_th)) ** 2
    if den == 0.0:
        raise ValueError("t = 0 with a ground-state detector: g2 undefined")
    return (i1 + i2 + i3) / den


def g2_open(
    p: GwSignalParams, ch: OpenChannelParams, gamma_t: float, t: float
) -> G2Report:
    """g2(0) of the detector under exchange evolution plus Markovian loss.

    Moments: ntilde_bar = e^{-kt} sin^2 ntilde_gw + (1 - e^{-kt}) nbar_env,
    mu_bar = e^{-kt} sin^2 mu_gw, abar_bar = e^{-kt/2} sin alpha.  Reduces to
    the ideal value at kappa = 0, and relaxes to the thermal value 2 as
    kappa t grows.  Whether heating swamps the signal is
    ``physical.noise_thresholds``' question, not this report's.
    """
    decay = math.exp(-ch.kappa * t)
    grow = -math.expm1(-ch.kappa * t)
    s = math.sin(gamma_t)
    return _wick_g2(p.detector_scalars(decay * (s * s), added=grow * ch.nbar))


def g2_open_closed_form(
    p: GwSignalParams, ch: OpenChannelParams, gamma_t: float, t: float
) -> float:
    """Closed form for the open-dynamics g2 (corrected denominator).

    The published version divides by 2[...]^2, which fails its own kappa -> 0
    reduction (coherent input would give 0, not 1); the factor consistent with
    the moment route and the oracle is 4[...]^2.
    """
    mu, _, _ = p.central_moments()
    bracket = abs(mu) ** 2 + 2.0 * (np.conj(p.alpha) ** 2 * mu).real - abs(p.alpha) ** 4
    env = ch.nbar * math.expm1(ch.kappa * t) if ch.nbar > 0.0 else 0.0
    s2 = math.sin(gamma_t) ** 2
    den = env + p.mean_occupation * s2
    if den == 0.0:
        raise ValueError("no excitation: g2 undefined")
    return 2.0 + s2 * s2 * bracket / den**2
