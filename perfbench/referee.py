"""80-digit referee for the counting statistics of a Gaussian wave state.

Independent of ``gravoptics``: every number is derived here from the
formulas, in mpmath at ``DPS`` decimal digits, so cancellation that costs a
double-precision code all its digits (Delta P_n / P_{n,c} and g2 - 1 at a
non-coherent fraction of 1e-9) is resolved with more than 40 digits to spare.

Conventions match the package's README: the wave mode is displaced squeezed
thermal with (alpha, xi = r e^{i theta}, nbar); the detector starts in its
ground state and the exchange evolution for ``gamma_t`` leaves it with mean
beta = sin(gamma_t) alpha and normal-ordered central moments
ntilde = sin^2 ntilde_gw, mu = sin^2 mu_gw.  Counting statistics depend only
on |beta|, ntilde, |mu| and Re(beta*^2 mu), so the phase convention of the
exchange drops out.

P_n come from the number generating function of a Gaussian state,

    G(u) = sum_n P_n u^n = <:exp(-(1 - u) n):>
         = det(A - u B)^{-1/2} exp(-(1 - u) m^T (A - u B)^{-1} m),

with B = 2 C, A = I + B, C the (formal) P-function covariance of
(Re a, Im a) and m its mean; log G is expanded as an exact power series in u
and exponentiated, which never touches a loop hafnian or a Fock cutoff.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath

DPS = 80


class Wave(NamedTuple):
    """Wave-mode parameters, held as exact binary values of the caller's floats."""

    alpha: complex
    r: float
    theta: float
    nbar: float


def direct(alpha: complex = 0.0, r: float = 0.0, theta: float = 0.0, nbar: float = 0.0) -> Wave:
    return Wave(complex(alpha), float(r), float(theta), float(nbar))


def _wave_moments(w: Wave):
    """(alpha, ntilde, mu) of the wave mode as mp numbers."""
    alpha = mpmath.mpc(w.alpha.real, w.alpha.imag)
    r, nbar = mpmath.mpf(w.r), mpmath.mpf(w.nbar)
    half = nbar + mpmath.mpf(1) / 2
    ntilde = nbar * mpmath.cosh(2 * r) + mpmath.sinh(r) ** 2
    mu = -half * mpmath.sinh(2 * r) * mpmath.expj(mpmath.mpf(w.theta))
    return alpha, ntilde, mu


def _scaled_moments(x_total: float, fraction_q: float, split: str, gamma_t: float):
    """(alpha, ntilde, mu) of the wave realising n_grav gamma_t^2 = x_total.

    "thermal" puts the non-coherent occupation n_q = fraction_q n_grav into
    nbar, "squeezed" into sinh^2 r (theta = 0); alpha is real.
    """
    n_grav = mpmath.mpf(x_total) / mpmath.mpf(gamma_t) ** 2
    n_q = mpmath.mpf(fraction_q) * n_grav
    alpha = mpmath.mpc(mpmath.sqrt(n_grav - n_q))
    if split == "thermal":
        return alpha, n_q, mpmath.mpc(0)
    if split == "squeezed":
        return alpha, n_q, -mpmath.mpc(mpmath.sqrt(n_q * (1 + n_q)))
    raise ValueError(f"unknown split {split!r}")


class Scaled(NamedTuple):
    """Scaled (astrophysical) parameterization, resolved at 80 digits."""

    x_total: float
    fraction_q: float
    split: str


def moments(state, gamma_t: float | None = None):
    """(alpha, ntilde, mu) of the wave mode for a Wave or a Scaled state."""
    if isinstance(state, Scaled):
        if gamma_t is None:
            raise ValueError("the scaled parameterization needs gamma_t")
        return _scaled_moments(state.x_total, state.fraction_q, state.split, gamma_t)
    return _wave_moments(state)


def _mat_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def _mat_vec(a, v):
    return [a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1]]


def _series_pn(beta, ntilde, mu, n_max: int) -> list:
    """[P_0, ..., P_n_max] of a single-mode Gaussian state with mean beta."""
    cxx = (ntilde + mu.real) / 2
    cyy = (ntilde - mu.real) / 2
    cxy = mu.imag / 2
    a = [[1 + 2 * cxx, 2 * cxy], [2 * cxy, 1 + 2 * cyy]]
    det_a = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    a_inv = [[a[1][1] / det_a, -a[0][1] / det_a], [-a[1][0] / det_a, a[0][0] / det_a]]
    m_mat = _mat_mul(a_inv, [[2 * cxx, 2 * cxy], [2 * cxy, 2 * cyy]])
    m = [beta.real, beta.imag]
    ainv_m = _mat_vec(a_inv, m)
    # c_k = m^T M^k A^-1 m and t_k = tr M^k, for k = 0..n_max
    c, t = [], []
    power = [[mpmath.mpf(1), mpmath.mpf(0)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for _ in range(n_max + 1):
        v = _mat_vec(power, ainv_m)
        c.append(m[0] * v[0] + m[1] * v[1])
        t.append(power[0][0] + power[1][1])
        power = _mat_mul(power, m_mat)
    p0 = mpmath.exp(-c[0]) / mpmath.sqrt(det_a)
    g = [mpmath.mpf(0)] + [t[k] / (2 * k) - c[k] + c[k - 1] for k in range(1, n_max + 1)]
    # exp of the series sum_k g_k u^k: f_k = (1/k) sum_j j g_j f_{k-j}
    f = [mpmath.mpf(1)]
    for k in range(1, n_max + 1):
        f.append(mpmath.fsum(j * g[j] * f[k - j] for j in range(1, k + 1)) / k)
    return [p0 * fk for fk in f]


class Counts(NamedTuple):
    """P_n, the equal-flux coherent reference P_{n,c} and Delta P_n / P_{n,c}."""

    p: list
    p_coherent: list
    ratio: list  # None where P_{n,c} underflows to 0


def counts(state, gamma_t: float, n_max: int) -> Counts:
    """Counting statistics of the detector after exchange evolution for gamma_t.

    The coherent reference carries the same mean occupation, so its counts
    are Poisson with mean sin^2(gamma_t) <n_gw>; Delta P_n = P_{n,c} - P_n.
    """
    with mpmath.workdps(DPS):
        alpha, ntilde, mu = moments(state, gamma_t)
        s = mpmath.sin(mpmath.mpf(gamma_t))
        probs = _series_pn(s * alpha, s * s * ntilde, s * s * mu, n_max)
        lam = s * s * (abs(alpha) ** 2 + ntilde)
        coherent = [mpmath.exp(-lam) * lam**n / mpmath.factorial(n) for n in range(n_max + 1)]
        ratio = [None if pc == 0 else +(1 - p / pc) for p, pc in zip(probs, coherent)]
        return Counts([+p for p in probs], [+pc for pc in coherent], ratio)


def pn(state, gamma_t: float, n_max: int) -> list:
    """[P_0, ..., P_n_max] of the detector after exchange evolution for gamma_t."""
    return counts(state, gamma_t, n_max).p


def g2(state, gamma_t: float | None = None) -> tuple:
    """(g2, g2 - 1) of the wave mode from its Wick moments.

    g2 - 1 = [2 Re(alpha*^2 mu) + 2 |alpha|^2 ntilde + ntilde^2 + |mu|^2] / <n>^2,
    evaluated as that excess rather than as a difference; the detector's g2
    is the same number by the transfer law.  ``gamma_t`` is needed only to
    resolve a Scaled state.
    """
    with mpmath.workdps(DPS):
        alpha, ntilde, mu = moments(state, gamma_t)
        a2 = abs(alpha) ** 2
        mean_n = a2 + ntilde
        if mean_n == 0:
            raise ValueError("g2 is undefined for the vacuum")
        excess = 2 * (mpmath.conj(alpha) ** 2 * mu).real + 2 * a2 * ntilde + ntilde**2 + abs(mu) ** 2
        g2m1 = excess / mean_n**2
        return +(1 + g2m1), +g2m1
