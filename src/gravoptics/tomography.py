"""Homodyne intensity-correlation tomography of Gaussian wave states.

The long-delay-subtracted intensity correlation of the driven detector splits
into contributions of order |beta|^k in the drive amplitude.  Under the
stationarity assumption the surviving terms are

* k = 0: sin^4 x normal-ordered intensity fluctuations of the wave,
* k = 1: sin^3 cos |beta| x quadrature-intensity correlation,
* k = 2: sin^2 cos^2 |beta|^2 x normal-ordered quadrature variance,
* k = 4: the classical drive-amplitude-noise floor.

Quadrature-phase bookkeeping: the drive couples to the wave through the
exchange interaction, whose rotating-frame solution carries one factor -i per
odd order of the mixing.  The k = 1 term therefore probes the wave quadrature
at phi + pi/2 while the k = 2 term probes it at phi; this convention is fixed
by validating against the large-squeezing limits of both terms.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import DetectorScalars, GwSignalParams

EPSILON_WARN = 0.1
MIN_PHASES = 8  # reconstruct_gaussian fits five Fourier coefficients


@dataclass(frozen=True)
class LocalOscillator:
    """Coherent detector drive serving as the phase reference.

    epsilon is the relative amplitude-fluctuation variance (delta beta)^2 /
    |beta|^2.
    """

    beta_mag: float
    phi: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.beta_mag < 0 or self.epsilon < 0:
            raise ValueError("beta_mag and epsilon must be >= 0")
        if self.epsilon >= EPSILON_WARN:
            warnings.warn(
                f"epsilon = {self.epsilon} is outside the small-fluctuation regime",
                stacklevel=3,  # past __post_init__ and the generated __init__
            )


@dataclass(frozen=True)
class TomographyTerms:
    """Per-order contributions to the delay-subtracted intensity correlation."""

    dG0: float
    dG1: float
    dG2: float
    dG4_noise: float

    @property
    def total(self) -> float:
        return self.dG0 + self.dG1 + self.dG2 + self.dG4_noise


def quadrature_variance_normal(p: GwSignalParams, phi):
    """<:(Delta h_phi)^2:> = (nbar + 1/2)[cosh 2r - sinh 2r cos(theta - 2 phi)] - 1/2.

    phi is a number or an array of phases.  Negative values signal squeezing
    below vacuum; the floor is -1/2.
    """
    return (p.nbar + 0.5) * (
        math.cosh(2 * p.r) - math.sinh(2 * p.r) * np.cos(p.theta - 2.0 * phi)
    ) - 0.5


def quadrature_number_correlation(p: GwSignalParams, phi):
    """<:Delta h_phi Delta n:> = sqrt(2) Re[e^{-i phi}(alpha ntilde + alpha* mu)].

    phi is a number or an array of phases.  Vanishes for undisplaced states
    and for pure displaced states; it is the displaced-thermal /
    displaced-squeezed discriminator.
    """
    mu, ntilde, _ = p.central_moments()
    w = p.alpha * ntilde + np.conj(p.alpha) * mu
    e = np.exp(-1j * phi)
    return math.sqrt(2.0) * (e.real * w.real - e.imag * w.imag)


def classical_lo_noise(lo: LocalOscillator, gamma_t: float) -> float:
    """Drive-noise floor 4 cos^4(gamma_t) |beta|^2 (delta beta)^2, (delta beta)^2 = eps |beta|^2."""
    return 4.0 * math.cos(gamma_t) ** 4 * lo.epsilon * lo.beta_mag**4


def _drive_terms(p: GwSignalParams, beta, phi, gamma_t: float) -> tuple:
    """(dG1, dG2) at drive amplitude beta and phase phi, each a number or an array."""
    s, c = math.sin(gamma_t), math.cos(gamma_t)
    dg1 = s**3 * c * beta * quadrature_number_correlation(p, phi + math.pi / 2.0)
    dg2 = s**2 * c**2 * np.float_power(beta, 2) * quadrature_variance_normal(p, phi)
    return dg1, dg2


def delta_g2_terms(p: GwSignalParams, lo: LocalOscillator, gamma_t: float) -> TomographyTerms:
    """Separable contributions to the delay-subtracted correlation.

    dG0 = sin^4 <:(Dn)^2:>, the Wick excess of the wave;
    dG1 = sin^3 cos |beta| <:Dh_{phi+pi/2} Dn:>; dG2 = sin^2 cos^2 |beta|^2
    <:(Dh_phi)^2:>; the k = 3 term vanishes under stationarity; dG4 is the
    classical drive-noise floor.
    """
    dg1, dg2 = _drive_terms(p, lo.beta_mag, lo.phi, gamma_t)
    dg0 = math.sin(gamma_t) ** 4 * p.detector_scalars().excess
    return TomographyTerms(dg0, dg1, dg2, classical_lo_noise(lo, gamma_t))


def snr_quadrature(p: GwSignalParams, lo: LocalOscillator, gamma_t: float) -> float:
    """Signal-to-noise sin^2(gamma_t) <:(Dh_phi)^2:> / (4 eps |beta|^2).

    Infinite (returned as math.inf) for a noiseless drive.  Matching the drive
    power to the signal, |beta|^2 = sin^2 <:(Dh)^2:>, gives exactly 1/(4 eps).
    """
    if lo.beta_mag <= 0:
        raise ValueError("snr needs a nonzero drive amplitude")
    signal = math.sin(gamma_t) ** 2 * quadrature_variance_normal(p, lo.phi)
    if lo.epsilon == 0.0:
        return math.inf
    return signal / (4.0 * lo.epsilon * lo.beta_mag**2)


def separate_terms_by_beta(sweep: list[tuple[float, float]]) -> np.ndarray:
    """Least-squares split of total vs |beta| into per-order coefficients k = 0..4.

    Needs at least five distinct finite |beta| values; returns the
    coefficient array c with total ~= sum_k c[k] |beta|^k.
    """
    betas = np.asarray([b for b, _ in sweep], dtype=float)
    totals = np.asarray([v for _, v in sweep], dtype=float)
    values = betas.tolist()
    for beta in values:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta}")
    if len(set(values)) < 5:  # np.unique would import numpy.ma on a cold start
        raise ValueError("need >= 5 distinct beta values to separate orders 0..4")
    design = np.vander(betas, 5, increasing=True)
    coeffs, *_ = np.linalg.lstsq(design, totals, rcond=None)
    return coeffs


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered Gaussian parameters with fit diagnostics."""

    alpha_mag: float
    alpha_phase: float
    r: float
    theta: float
    nbar: float
    residual: float
    theta_identifiable: bool = True
    alpha_identifiable: bool = True


def reconstruct_gaussian(
    phase_sweep: tuple[np.ndarray, np.ndarray, np.ndarray],
    gamma_t: float,
    beta_mag: float,
    dG0: float,
) -> ReconstructionResult:
    """Fit (|alpha|, arg alpha, r, theta, nbar) from the (phi, dG1, dG2) columns of a phase sweep.

    dG2(phi) is pi-periodic and linear in (ntilde, S cos theta, S sin theta)
    with S = (nbar + 1/2) sinh 2r; dG1(phi) is 2 pi-periodic and linear in the
    complex combination w = alpha ntilde + alpha* mu.  Both fits are ordinary
    least squares on trigonometric design matrices; dG0 disambiguates via a
    consistency residual.  Degenerate directions (r = 0 making theta
    meaningless, ntilde = |mu| making alpha unobservable) are flagged.
    """
    phis, dg1, dg2 = (np.asarray(column, dtype=float) for column in phase_sweep)
    if len(phis) < MIN_PHASES:
        raise ValueError(f"need at least {MIN_PHASES} phases covering [0, 2 pi)")
    s, c = math.sin(gamma_t), math.cos(gamma_t)
    k1 = s**3 * c * beta_mag
    k2 = s**2 * c**2 * beta_mag**2

    # pi-periodic fit: dG2 / k2 = ntilde - S cos(theta) cos 2phi - S sin(theta) sin 2phi
    design2 = np.column_stack([np.ones_like(phis), np.cos(2 * phis), np.sin(2 * phis)])
    (ntilde, mcos, msin), *_ = np.linalg.lstsq(design2, dg2 / k2, rcond=None)
    s_mag = math.hypot(mcos, msin)
    theta_identifiable = s_mag > 1e-9 * max(1.0, abs(ntilde))
    theta = math.atan2(-msin, -mcos) % (2.0 * math.pi) if theta_identifiable else 0.0

    q = max(ntilde, 0.0) + 0.5
    inner = max(q * q - s_mag * s_mag, 0.25)
    nbar = max(math.sqrt(inner) - 0.5, 0.0)
    r = 0.5 * math.atanh(min(s_mag / q, 1.0 - 1e-15)) if theta_identifiable else 0.0
    mu = -s_mag * np.exp(1j * theta)

    # 2 pi-periodic fit: dG1 / (sqrt(2) k1) = -Re(w) sin phi + Im(w) cos phi
    design1 = np.column_stack([np.cos(phis), np.sin(phis)])
    (im_w, neg_re_w), *_ = np.linalg.lstsq(design1, dg1 / (math.sqrt(2.0) * k1), rcond=None)
    w = complex(-neg_re_w, im_w)
    det = ntilde * ntilde - s_mag * s_mag
    alpha_identifiable = abs(det) > 1e-9 * (ntilde * ntilde + s_mag * s_mag + 1e-30)
    if alpha_identifiable:
        solve = np.array([[ntilde + mu.real, mu.imag], [mu.imag, ntilde - mu.real]])
        xy = np.linalg.solve(solve, np.array([w.real, w.imag]))
        alpha = complex(xy[0], xy[1])
    else:
        alpha = 0.0 + 0.0j

    model_w = alpha * ntilde + np.conj(alpha) * mu
    model_dg1 = math.sqrt(2.0) * k1 * (
        np.exp(-1j * (phis + math.pi / 2.0)) * model_w
    ).real
    model_dg2 = k2 * (ntilde + (np.exp(-2j * phis) * mu).real)
    fitted = DetectorScalars.from_phase(
        abs(alpha) * abs(alpha), ntilde, s_mag, ntilde - s_mag, 0.5 * theta - cmath.phase(alpha)
    )
    dg0_model = math.sin(gamma_t) ** 4 * fitted.excess
    scale = max(np.max(np.abs(dg1)), np.max(np.abs(dg2)), abs(dG0), 1e-300)
    residual = float(
        math.sqrt(
            np.mean((model_dg1 - dg1) ** 2)
            + np.mean((model_dg2 - dg2) ** 2)
            + (dg0_model - dG0) ** 2
        )
        / scale
    )
    return ReconstructionResult(
        alpha_mag=abs(alpha),
        alpha_phase=float(np.angle(alpha)) if abs(alpha) > 0 else 0.0,
        r=r,
        theta=theta,
        nbar=nbar,
        residual=residual,
        theta_identifiable=bool(theta_identifiable),
        alpha_identifiable=bool(alpha_identifiable),
    )


def simulate_phase_sweep(
    p: GwSignalParams,
    beta_mag: float,
    gamma_t: float,
    phis: np.ndarray,
    epsilon: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic (phi, dG1, dG2) columns, optionally with drive-amplitude noise.

    Noise model: each sample sees an independently perturbed drive amplitude
    beta (1 + xi) with xi ~ N(0, epsilon), matching the stated fluctuation
    statistics (delta beta)^2 = epsilon |beta|^2.  A draw with 1 + xi < 0 is
    the drive |beta (1 + xi)| at phase phi + pi, which flips the sign of dG1
    and leaves dG2 unchanged.

    The columns are `_drive_terms` over the phases, the formulas of
    `delta_g2_terms`.  The noise is one draw of len(phis) normals, the same
    stream as one draw per phase.
    """
    if epsilon > 0.0 and rng is None:
        raise ValueError("noise injection needs an rng for reproducibility")
    phis = np.asarray(phis, dtype=float)
    beta, phase = beta_mag, phis
    if epsilon > 0.0:
        beta = beta_mag * (1.0 + rng.normal(0.0, math.sqrt(epsilon), size=len(phis)))
        flip = beta < 0.0
        beta, phase = np.where(flip, -beta, beta), np.where(flip, phis + math.pi, phis)
    elif beta_mag < 0:
        raise ValueError("beta_mag and epsilon must be >= 0")
    return (phis, *_drive_terms(p, beta, phase, gamma_t))
