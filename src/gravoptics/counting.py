"""Excitation probabilities of the detector mode for Gaussian wave inputs.

Three independent routes to the same numbers, cross-checked in the tests:

* closed forms for n = 0, 1, 2 (scalar, stable from desk scale up to
  astrophysical amplitudes through the scaled parameterization);
* the generating-function route: the power series of log G(u), G the number
  generating function, built from the shared detector scalars
  (``states.DetectorScalars``) and exponentiated by a recurrence, every
  level up to the highest one asked for in O(n^2) scalar operations, for one
  state or entry by entry over a grid;
* loop-hafnian evaluation over partition enumeration (exact, n <= 8, at
  O(4^k k) cost), the cross-check route only.

The production path, :func:`delta_pn`, uses the second; the closed forms and
the enumeration are cross-checks.

Astrophysical inputs never pass through raw covariance matrices: the evolved
detector moments are assembled from scalars, which keeps every kernel in
well-conditioned ranges (the detector marginal is always desk-scale).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .states import (
    DetectorScalars,
    GwSignalParams,
    LadderMoments,
    each,
    raise_first_failure,
)

X2 = np.array([[0.0, 1.0], [1.0, 0.0]])

NEGATIVE_CLAMP = 1e-12
HAFNIAN_MAX_PAIRS = 8
PN_MAX = 32  # bound of the cli's n_max; the log-G series to it takes ~0.15 ms


def poisson_pn(mean, n):
    """Poisson weight e^{-mu} mu^n / n!, evaluated in the log domain.

    ``mean`` and ``n`` are numbers, or arrays that broadcast together.  An
    array result takes log, lgamma and exp from ``math`` entry by entry
    (``states.each``), so each entry has the bits of the scalar call.
    """
    if np.any(mean < 0):
        raise ValueError("mean must be >= 0")
    if np.any(n < 0):
        raise ValueError("n must be >= 0")
    if isinstance(mean, np.ndarray) or isinstance(n, np.ndarray):
        zero = mean == 0.0
        log_mean = each(math.log, np.where(zero, 1.0, mean))
        value = each(math.exp, -mean + n * log_mean - each(math.lgamma, n + 1.0))
        return np.where(zero, np.where(n == 0, 1.0, 0.0), value)
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def evolved_bar_moments(p: GwSignalParams, gamma_t: float) -> LadderMoments:
    """Ladder moments of the detector marginal after exchange evolution.

    Assembled directly from scalar parameters:
    nu_bar = cos^2 / 2 + sin^2 nu_gw, mu_bar = sin^2 mu_gw,
    abar = sin * (alpha, alpha*).  Identical to the state-pipeline route but
    free of large-covariance cancellation, so it is valid at any amplitude.
    """
    c2 = math.cos(gamma_t) ** 2
    s2 = math.sin(gamma_t) ** 2
    mu_g, _, nu_g = p.central_moments()
    nu_b = c2 * 0.5 + s2 * nu_g
    mu_b = s2 * mu_g
    sigma = np.array([[mu_b, nu_b], [nu_b, np.conj(mu_b)]])
    abar = math.sin(gamma_t) * np.array([p.alpha, np.conj(p.alpha)])
    return LadderMoments(1, sigma, abar)


@dataclass(frozen=True)
class CountingMatrices:
    """(A, F) bundle of the detection-probability formulas, with their prefactor.

    With Sigma_Q the Husimi covariance Sigma + I/2 in the Hermitian ladder
    arrangement, A = X (I - Sigma_Q^{-1}) and F = abar† Sigma_Q^{-1}.  The
    prefactor e^{-abar† Sigma_Q^{-1} abar / 2} / sqrt(det Sigma_Q) equals the
    no-click probability.
    """

    amat: NDArray[np.complex128]
    fvec: NDArray[np.complex128]
    log_prefactor: float

    @property
    def prefactor(self) -> float:
        return math.exp(self.log_prefactor)


def counting_matrices(bar: LadderMoments) -> CountingMatrices:
    """Assemble the probability kernel from single-mode detector moments."""
    if bar.num_modes != 1:
        raise ValueError("counting kernels are single-mode")
    sigma_q = bar.sigma @ X2 + 0.5 * np.eye(2)
    det = np.linalg.det(sigma_q)
    if abs(det.imag) > 1e-10 * max(1.0, abs(det.real)) or det.real <= 0.0:
        raise ValueError("singular or unphysical Sigma_Q")
    inv = np.linalg.inv(sigma_q)
    amat = X2 @ (np.eye(2) - inv)
    fvec = bar.abar.conj() @ inv
    quad = bar.abar.conj() @ inv @ bar.abar
    log_prefactor = -0.5 * quad.real - 0.5 * math.log(det.real)
    return CountingMatrices(amat, fvec, log_prefactor)


def loop_hafnian(b: NDArray[np.complex128]) -> complex:
    """Sum over partitions of the index set into singletons and pairs.

    A singleton i contributes the loop entry b[i, i], a pair {i, j} the entry
    b[i, j].  Exact enumeration with subset memoization, so the cost is
    O(4^k k) for a 2k x 2k matrix; bounded at k = 8.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("loop hafnian needs a square matrix")
    n = b.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n % 2:
        raise ValueError("loop hafnian is defined here for even dimension")
    if n // 2 > HAFNIAN_MAX_PAIRS:
        raise ValueError(f"enumeration bound is 2k <= {2 * HAFNIAN_MAX_PAIRS}")
    scale = np.max(np.abs(b))
    if scale > 0 and np.max(np.abs(b - b.T)) > 1e-10 * scale:
        raise ValueError("matrix must be symmetric")

    memo: dict[int, complex] = {0: 1.0 + 0j}

    def rec(mask: int) -> complex:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        total = b[i, i] * rec(rest)
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            total += b[i, j] * rec(rest & ~(1 << j))
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def _probability_fault(value: float, imag: float) -> str | None:
    """Why value + i imag is not a probability, or None."""
    if not (math.isfinite(value) and math.isfinite(imag)):
        return f"non-finite probability {value} (imag {imag})"
    if abs(imag) > 1e-8 * max(1.0, abs(value)):
        return f"non-real probability (imag {imag:.3e})"
    if value < -NEGATIVE_CLAMP:
        return f"negative probability {value:.3e}"
    return None


def _finalize_probability(value: float, imag: float, context: str) -> float:
    fault = _probability_fault(value, imag)
    if fault is not None:
        raise ValueError(f"{context}: {fault}")
    return max(value, 0.0)


def prob_n_hafnian(bar: LadderMoments, n: int) -> float:
    """P_n via the loop hafnian of the tiled kernel matrix.

    The 2n x 2n argument tiles A in 2x2 blocks over an n x n all-ones pattern
    with the diagonal replaced by the F components repeated n times.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cm = counting_matrices(bar)
    if n == 0:
        return cm.prefactor
    tiled = np.tile(cm.amat, (n, n))
    np.fill_diagonal(tiled, np.tile(cm.fvec, n))
    lh = loop_hafnian(tiled)
    value = cm.prefactor * lh.real / math.factorial(n)
    return _finalize_probability(value, cm.prefactor * lh.imag / math.factorial(n), f"P_{n}")


def pn_series(sc: DetectorScalars, n_max: int) -> list:
    """P_0..P_{n_max} from the power series of log G(u), G(u) = sum_n P_n u^n.

    With sigma = 1 - u, G = D^{-1/2} exp(-N/D), where
    D = 1 + 2 sigma ntilde + sigma^2 d (ntilde + m) and
    N = sigma b2 + sigma^2 b2 (d + 2 m cos^2 psi).  D factors as
    (1 + sigma a)(1 + sigma d) with a = ntilde + m, and N/D splits into
    sigma b_plus / (1 + sigma a) + sigma b_minus / (1 + sigma d).  Each piece
    is a geometric series in u with ratio rho_a = a / (1 + a) or
    rho_d = d / (1 + d), both in [-1, 1), so log G = sum_j g_j u^j has
    j g_j = (rho_a^j + rho_d^j) / 2
            + j (b_plus rho_a^{j-1} / (1 + a)^2 + b_minus rho_d^{j-1} / (1 + d)^2)
    for j >= 1: a few terms, none a difference of large numbers.  exp of the
    series is f_0 = exp(g_0), f_k = (1/k) sum_j j g_j f_{k-j} (Stanley,
    Enumerative Combinatorics 2, ch. 6), so an underflowed P_0 gives zero rows.

    The fields of ``sc`` are floats, giving a list of floats, or arrays that
    broadcast to a grid, giving one array per level.  An array entry has the
    bits of the scalar call: the arithmetic is elementwise in the same order
    (``sum`` adds left to right) and log1p and exp come from ``math``.  The
    lowest failing level raises (``states.raise_first_failure``).
    """
    a = sc.ntilde + sc.m
    qa, qd = 1.0 + a, 1.0 + sc.d
    rho_a, rho_d = a / qa, sc.d / qd
    wa, wd = sc.b_plus / (qa * qa), sc.b_minus / (qd * qd)
    g0 = -0.5 * (each(math.log1p, a) + each(math.log1p, sc.d)) - sc.b_plus / qa - sc.b_minus / qd
    jg = [0.0]
    pa = pd = 1.0  # rho^(j - 1)
    for j in range(1, n_max + 1):
        jg.append(j * (wa * pa + wd * pd) + 0.5 * (pa * rho_a + pd * rho_d))
        pa *= rho_a
        pd *= rho_d
    f = [each(math.exp, g0)]
    for k in range(1, n_max + 1):
        f.append(sum(jg[j] * f[k - j] for j in range(1, k + 1)) / k)
    # the checks of _probability_fault at imag 0: finite, and not below -NEGATIVE_CLAMP
    ok = [(abs(value) < math.inf) & (value >= -NEGATIVE_CLAMP) for value in f]
    raise_first_failure(ok, lambda n: f"P_{n} (generating): {_probability_fault(f[n], 0.0)}")
    return [np.maximum(v, 0.0) if isinstance(v, np.ndarray) else max(v, 0.0) for v in f]


def _bar_scalars(bar: LadderMoments) -> DetectorScalars:
    """DetectorScalars of single-mode ladder moments (sigma, abar)."""
    if bar.num_modes != 1:
        raise ValueError("counting kernels are single-mode")
    mu, beta = complex(bar.sigma[0, 0]), complex(bar.abar[0])
    ntilde, m = float(bar.sigma[0, 1].real) - 0.5, abs(mu)
    psi = 0.5 * cmath.phase(-mu) - cmath.phase(beta)
    return DetectorScalars.from_phase(abs(beta) * abs(beta), ntilde, m, ntilde - m, psi)


def generating_pn_table(bar: LadderMoments, n_max: int) -> list[float]:
    """P_0..P_{n_max} of single-mode ladder moments by the log-G series (see pn_series).

    Independent of the partition enumeration.  The series is the same for
    every n_max, so a table to n_max gives each level the bits of a table to n.
    """
    if n_max < 0:
        raise ValueError("n must be >= 0")
    return pn_series(_bar_scalars(bar), n_max)


def prob_n_generating(bar: LadderMoments, n: int) -> float:
    """P_n alone from the generating-function series (see generating_pn_table)."""
    return generating_pn_table(bar, n)[n]


def closed_form_p012(p: GwSignalParams, gamma_t: float) -> tuple[float, float, float]:
    """(P0, P1, P2) in scalar closed form for a general wave state.

    Evaluates the Sigma_Q algebra symbolically reduced to scalars:
    w = sin^2 nu_gw + (cos^2 + 1)/2 and z = sin^2 mu_gw give
    det Sigma_Q = w^2 - |z|^2, with P1 = P0 (a1 + F0 F1) and
    P2 = P0 [(d1 + F0^2)(d2 + F1^2) + 4 a1 F0 F1 + 2 a1^2] / 2.
    Stable for any displacement/squeezing magnitude at fixed detector-side
    excitation (the physically meaningful regime).
    """
    s = math.sin(gamma_t)
    s2 = s * s
    mu_g, _, nu_g = p.central_moments()
    # w - 1 = sin^2 (nu_gw - 1/2) exactly: keeping it as a separate small
    # quantity avoids the 1 - w/det cancellation that would otherwise cap the
    # precision of a1 at eps/sin^2
    wm1 = s2 * (nu_g - 0.5)
    w = 1.0 + wm1
    z = s2 * mu_g
    zz = (z * np.conj(z)).real
    det = w * w - zz
    if det <= 0.0:
        raise ValueError("singular Sigma_Q in closed form")
    alpha = p.alpha
    quad = 2.0 * s2 * (w * abs(alpha) ** 2 - (z * np.conj(alpha) ** 2).real) / det
    p0 = math.exp(-0.5 * quad) / math.sqrt(det)
    a1 = (w * wm1 - zz) / det  # equals 1 - w/det without cancellation
    d1 = np.conj(z) / det
    d2 = z / det
    f0 = s * (np.conj(alpha) * w - alpha * np.conj(z)) / det
    f1 = s * (alpha * w - np.conj(alpha) * z) / det
    p1 = p0 * (a1 + f0 * f1)
    p2 = 0.5 * p0 * ((d1 + f0 * f0) * (d2 + f1 * f1) + 4.0 * a1 * f0 * f1 + 2.0 * a1 * a1)
    return (
        p0,
        _finalize_probability(p1.real, p1.imag, "P_1 (closed)"),
        _finalize_probability(p2.real, p2.imag, "P_2 (closed)"),
    )


def aligned_closed_form_p01(p: GwSignalParams, gamma_t: float) -> tuple[float, float]:
    """(P0, P1) in fully scalar closed form for the aligned (theta = 0) family.

    Requires theta = 0; the displacement enters through |alpha| (relative
    phase aligned with the squeezing).  All e^{2r} factors are divided out of
    numerator and denominator so the expressions stay finite for large r.
    """
    if abs(p.theta) > 1e-12:
        raise ValueError("the aligned closed forms hold for theta = 0")
    a2 = abs(p.alpha) ** 2
    nb = 2.0 * p.nbar + 1.0
    s2 = math.sin(gamma_t) ** 2
    c2g = math.cos(2.0 * gamma_t)
    em2r = math.exp(-2.0 * p.r)
    # exponent of P0 with e^{2r} factored out of the ratio
    expo = -4.0 * a2 * s2 / (2.0 * nb * s2 * em2r + (c2g + 3.0))
    root = (
        nb * math.cosh(2.0 * p.r) * s2 * (c2g + 3.0)
        + nb * nb * s2 * s2
        + (math.cos(gamma_t) ** 2 + 1.0) ** 2
    )
    p0 = 2.0 * math.exp(expo) / math.sqrt(root)
    term1 = 2.0 * em2r / (2.0 * nb * s2 + em2r * (c2g + 3.0))
    denom = 2.0 * nb * s2 * em2r + (c2g + 3.0)
    # (4 a2 + 1) cos(2gt) + 3 - 4 a2 rewritten as -8 a2 sin^2 + cos(2gt) + 3,
    # which survives a2 ~ 1e35 with sin^2 ~ 1e-35 without cancellation
    term2 = (4.0 * nb * s2 * em2r + 2.0 * (-8.0 * a2 * s2 + c2g + 3.0)) / (denom * denom)
    p1 = p0 * (1.0 - term1 - term2)
    return p0, _finalize_probability(p1, 0.0, "P_1 (aligned closed form)")


def rejected_p01_variant(p: GwSignalParams, gamma_t: float) -> tuple[float, float]:
    """(P0, P1) with (cos^2 + 2) in place of (cos^2 + 1) in the denominators.

    Kept only so the validation suite can demonstrate and record that this
    circulating variant of the closed form disagrees with the enumeration
    route and the Fock oracle; the correct reduction gives (cos^2 + 1).
    Do not use for computation.
    """
    s = math.sin(gamma_t)
    s2 = s * s
    c2 = math.cos(gamma_t) ** 2
    mu_g, _, nu_g = p.central_moments()
    w = s2 * nu_g + 0.5 * (c2 + 2.0)  # variant denominator; correct is (c2 + 1)
    z = s2 * mu_g
    det = w * w - (z * np.conj(z)).real
    alpha = p.alpha
    quad = 2.0 * s2 * (w * abs(alpha) ** 2 - (z * np.conj(alpha) ** 2).real) / det
    p0 = math.exp(-0.5 * quad) / math.sqrt(det)
    a1 = 1.0 - w / det
    f0 = s * (np.conj(alpha) * w - alpha * np.conj(z)) / det
    f1 = s * (alpha * w - np.conj(alpha) * z) / det
    return p0, float((p0 * (a1 + f0 * f1)).real)


@dataclass(frozen=True)
class DeltaPn:
    """P_n against the equal-flux coherent reference, n = 0..n_max along the last axis."""

    pn: NDArray[np.float64]
    pn_coherent: NDArray[np.float64]
    delta: NDArray[np.float64]  # pn_coherent - pn
    ratio: NDArray[np.object_]  # delta / pn_coherent, None where the reference vanishes


def delta_pn(sc: DetectorScalars, n_max: int) -> DeltaPn:
    """Delta P_n = P_{n,c} - P_n at fixed total flux, for n = 0..n_max.

    ``sc`` are the detector's scalars after exchange evolution, floats for
    one state or arrays that broadcast to a grid; each returned array has
    their broadcast shape with n as a last axis.  P_n comes from the log-G
    series (``pn_series``), which raises at the first failing P_n.  The
    coherent reference carries the same mean count lambda = b2 + ntilde, so
    P_{n,c} is the Poisson law of lambda.  Where the input is coherent
    (ntilde = m = 0) the reference is P_n itself, so the difference and the
    ratio are exactly zero.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    with np.errstate(all="ignore"):  # an overflow is a non-finite P_n, which pn_series reports
        pn = np.stack(pn_series(sc, n_max), axis=-1)
        poisson = poisson_pn(np.expand_dims(sc.mean_n, -1), np.arange(n_max + 1))
        coherent = (sc.ntilde == 0.0) & (sc.m == 0.0)
        pn_coherent = np.where(np.expand_dims(coherent, -1), pn, poisson)
        delta = pn_coherent - pn
        ratio = np.where(pn_coherent == 0.0, None, delta / pn_coherent)
    return DeltaPn(pn, pn_coherent, delta, ratio)


def delta_p1_lowest_order(n_q: float, n_grav: float, gamma_t: float) -> float:
    """Leading-order Delta P_1 / P_{1,c} at finite n_grav (gamma_t)^2.

    1 - [2 (1 - n_q/n_grav) n_q (gt)^2 + 1] e^{n_q (gt)^2}
    / [2 n_q (gt)^2 + 1]^{3/2}.
    """
    if n_grav <= 0:
        raise ValueError("n_grav must be > 0")
    x_q = n_q * gamma_t * gamma_t
    frac = n_q / n_grav
    return 1.0 - (2.0 * (1.0 - frac) * x_q + 1.0) * math.exp(x_q) / (2.0 * x_q + 1.0) ** 1.5


def delta_p1_coherent_dominated(
    p: GwSignalParams, n_grav: float, gamma_t: float
) -> float:
    """|alpha|^2 >> n_q limit of Delta P_1 (exact bracket form).

    (1/2) n_grav [(2 nbar + 1) e^{2r} - 1] (gt)^4 e^{-n_grav (gt)^2}; for
    r of order one and above the bracket is ~ n_q up to an O(1) factor.
    """
    g2 = gamma_t * gamma_t
    bracket = (2.0 * p.nbar + 1.0) * math.exp(2.0 * p.r) - 1.0
    return 0.5 * n_grav * bracket * g2 * g2 * math.exp(-n_grav * g2)


def _asinh_sqrt(x: float) -> float:
    return math.asinh(math.sqrt(x))


def scaled_state(x_total, fraction_q, split: str, gamma_t):
    """(alpha, r, theta, nbar) realizing n_grav (gamma_t)^2 = x_total at a given n_q split.

    ``split`` is "thermal" (nbar = n_q, r = 0) or "squeezed"
    (sinh^2 r = n_q, nbar = 0).  Each number is a scalar or an array that
    broadcasts to the grid (see ``states.raise_first_failure``); r and theta
    of the thermal split and theta and nbar of the squeezed one are 0.0.
    The displacement sqrt(n_grav - n_q) is real, and numpy's sqrt is correctly
    rounded like math.sqrt.
    """
    messages = (
        "fraction_q must lie in [0, 1]",
        "x_total must be >= 0",
        "gamma_t must be > 0",
        "gamma_t = {} underflows: gamma_t^2 must be > 0",
    )
    # a NaN x_total or gamma_t passes, as the comparisons x < 0 and g <= 0 do
    ok = [
        (0.0 <= fraction_q) & (fraction_q <= 1.0),
        (x_total >= 0.0) | (x_total != x_total),
        (gamma_t > 0.0) | (gamma_t != gamma_t),
        gamma_t * gamma_t != 0.0,
    ]
    raise_first_failure(ok, lambda k: messages[k].format(gamma_t))
    n_grav = x_total / (gamma_t * gamma_t)
    n_q = fraction_q * n_grav
    alpha = np.sqrt(np.maximum(n_grav - n_q, 0.0))
    if split == "thermal":
        return alpha, 0.0, 0.0, n_q
    if split == "squeezed":
        return alpha, each(_asinh_sqrt, n_q), 0.0, 0.0
    raise ValueError(f"unknown split {split!r}")

