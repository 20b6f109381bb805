"""Evolution of the wave-detector mode pair.

Covers the resonant excitation-exchange (beamsplitter) dynamics, the detuned
rotating-frame solution, Markovian open dynamics of the detector mode, and the
squeezing-transfer diagnostic. The dimensionless product ``gamma_t``
(coupling times time) is the evolution parameter everywhere.  The detuned
solution and the open channel take plain rates and times; a physical
detector's own numbers live in :class:`gravoptics.physical.Detector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    make_vacuum,
    reduce_modes,
    tensor,
)


@dataclass(frozen=True)
class OpenChannelParams:
    """Markovian decay channel: rate kappa, environment occupation nbar."""

    kappa: float
    nbar: float = 0.0

    def __post_init__(self):
        if self.kappa < 0 or self.nbar < 0:
            raise ValueError("kappa and nbar must be >= 0")


def beamsplitter_map(gamma_t: float) -> SymplecticMap:
    """Verbatim two-mode symplectic matrix of the exchange interaction.

    Generated by the x1 x2 + p1 p2 coupling; mode 1 is the wave, mode 2 the
    detector. The incoming contribution lands rotated by a local quarter-turn
    (the -i of the rotating-frame solution); see
    :func:`phase_adjusted_beamsplitter` for the convention used in evolution.
    """
    c, s = math.cos(gamma_t), math.sin(gamma_t)
    m = np.array(
        [
            [c, 0.0, 0.0, s],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [-s, 0.0, 0.0, c],
        ]
    )
    return SymplecticMap(m)


def phase_adjusted_beamsplitter(gamma_t: float) -> SymplecticMap:
    """Beamsplitter conjugated by a fixed local rotation of the detector mode.

    Equal to L^-1 S L with L a quarter-turn on mode 2, so it is the same
    physical map expressed in a rotated detector frame.  In this frame the
    reduced detector state obeys the plain convex combination
    cov_bar(t) = cos^2 cov_bar(0) + sin^2 cov_gw(0) (for rotation-invariant
    detector inputs) and disp_bar(t) = sin * disp_gw(0) with no extra phase.
    """
    c, s = math.cos(gamma_t), math.sin(gamma_t)
    eye = np.eye(2)
    m = np.block([[c * eye, -s * eye], [s * eye, c * eye]])
    return SymplecticMap(m)


def evolve_closed(gw: GaussianState, bar: GaussianState, gamma_t: float) -> GaussianState:
    """Joint (wave, detector) state after resonant exchange evolution.

    Uses the phase-adjusted frame, so taking the mode-1 marginal of the result
    reproduces the convex-combination form directly.
    """
    if gw.num_modes != 1 or bar.num_modes != 1:
        raise ValueError("evolve_closed expects two single-mode inputs")
    return apply_symplectic(tensor(gw, bar), phase_adjusted_beamsplitter(gamma_t))


def bar_marginal(gw: GaussianState, bar: GaussianState, gamma_t: float) -> GaussianState:
    """Reduced detector state after :func:`evolve_closed`."""
    return reduce_modes(evolve_closed(gw, bar, gamma_t), [1])


class DetunedCoefficients(NamedTuple):
    """Mode-mixing coefficients of the detuned rotating-frame solution.

    b(t) = phase * [g_minus b(0) + f a(0)], a(t) = phase * [f b(0) + g_plus a(0)],
    with the overall phase = exp(-i (omega_ell + nu) t / 2) returned separately.
    """

    f: complex
    g_plus: complex
    g_minus: complex
    phase: complex


def detuned_coefficients(
    gamma_g: float, omega_ell: float, nu: float, t: float
) -> DetunedCoefficients:
    """Solve the detuned two-mode exchange in closed form.

    With delta = nu - omega_ell and lambda = sqrt(4 gamma_g^2 + delta^2):
    f = -2i gamma_g sin(lambda t / 2) / lambda and
    g_± = cos(lambda t / 2) ∓ i delta sin(lambda t / 2) / lambda.
    The degenerate lambda = 0 case is the continuity limit f = -i gamma_g t,
    g_± = 1.  Unitarity |f|^2 + |g_±|^2 = 1 holds identically.
    """
    if gamma_g < 0:
        raise ValueError("gamma_g must be >= 0")
    delta = nu - omega_ell
    lam = math.hypot(2.0 * gamma_g, delta)
    phase = np.exp(-0.5j * (omega_ell + nu) * t)
    if lam == 0.0:
        return DetunedCoefficients(-1j * gamma_g * t, 1.0 + 0j, 1.0 + 0j, phase)
    half = 0.5 * lam * t
    sinc = math.sin(half) / lam
    f = -2j * gamma_g * sinc
    g_plus = math.cos(half) - 1j * delta * sinc
    g_minus = math.cos(half) + 1j * delta * sinc
    return DetunedCoefficients(f, g_plus, g_minus, phase)


def evolve_open(
    gw: GaussianState, gamma_t: float, ch: OpenChannelParams, t: float
) -> GaussianState:
    """Detector marginal under exchange evolution plus Markovian loss.

    Closed form for a detector starting in vacuum (cov_bar(0) = I/2):
    cov_bar(t) = e^{-kt} [cos^2 cov_bar(0) + sin^2 cov_gw(0)]
    + (1 - e^{-kt}) (nbar_env + 1/2) I, with the displacement scaled by
    e^{-kt/2} sin(gamma_t).
    """
    if gw.num_modes != 1:
        raise ValueError("evolve_open expects a single-mode wave")
    if t < 0:
        raise ValueError("t must be >= 0")
    decay = math.exp(-ch.kappa * t)
    c2 = math.cos(gamma_t) ** 2
    s2 = math.sin(gamma_t) ** 2
    vacuum = make_vacuum(1).cov
    cov = decay * (c2 * vacuum + s2 * gw.cov) + (1.0 - decay) * (ch.nbar + 0.5) * np.eye(2)
    disp = math.sqrt(decay) * math.sin(gamma_t) * gw.disp
    return GaussianState(1, cov, disp)


def lyapunov_bar_marginal(
    gw: GaussianState, gamma_t: float, ch: OpenChannelParams, t: float
) -> GaussianState:
    """Detector marginal by numeric integration of the covariance ODE.

    Integrates d sigma/dt = A sigma + sigma A^T + D, d rbar/dt = A rbar with
    A = gamma K - (kappa/2) I and D = kappa (nbar + 1/2) I in the adjusted
    detector frame, by classical fixed-step RK4 with
    ceil(256 (|gamma_t| + kappa t)) steps, so the step times the fastest rate
    (|2 i gamma - kappa| <= 2 |gamma| + kappa) stays below 1/128.  Serves as
    the internal oracle for :func:`evolve_open`: it integrates the ODE and
    never evaluates the closed form.
    """
    if t <= 0:
        return reduce_modes(tensor(gw, make_vacuum(1)), [1])
    gamma = gamma_t / t
    k_adj = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    drift = gamma * k_adj - 0.5 * ch.kappa * np.eye(4)
    diffusion = ch.kappa * (ch.nbar + 0.5) * np.eye(4)
    joint = tensor(gw, make_vacuum(1))

    def rhs(y):
        sigma = y[:16].reshape(4, 4)
        rbar = y[16:]
        dsigma = drift @ sigma + sigma @ drift.T + diffusion
        return np.concatenate([dsigma.ravel(), drift @ rbar])

    steps = max(1, math.ceil(256.0 * (abs(gamma_t) + ch.kappa * t)))
    h = t / steps
    y = np.concatenate([joint.cov.ravel(), joint.disp])
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    sigma = y[:16].reshape(4, 4)
    sigma = (sigma + sigma.T) / 2.0
    return reduce_modes(GaussianState(2, sigma, y[16:]), [1])


class SqueezingTransfer(NamedTuple):
    min_var: float
    max_var: float
    theta_min: float


def squeezing_transfer_variance(r: float, gamma_t: float) -> SqueezingTransfer:
    """Extremal detector quadrature variances for a squeezed-vacuum wave input (theta = 0).

    min = [1 + sin^2(gamma_t)(e^{-2r} - 1)] / 2 and
    max = [1 + sin^2(gamma_t)(e^{+2r} - 1)] / 2, with theta_min the rotated
    quadrature angle (mod pi) attaining the minimum in the raw Heisenberg
    frame: the incoming quadratures arrive quarter-turned, so the wave's
    squeezing along x lands on the detector's p, theta_min = pi/2.  Full
    transfer at gamma_t = pi/2 leaves the detector with variance e^{-2r}/2.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    s2 = math.sin(gamma_t) ** 2
    min_var = 0.5 * (1.0 + s2 * math.expm1(-2.0 * r))
    max_var = 0.5 * (1.0 + s2 * math.expm1(2.0 * r))
    theta_min = 0.0 if r == 0.0 or s2 == 0.0 else 0.5 * math.pi
    return SqueezingTransfer(min_var, max_var, theta_min)
