"""Truncated Fock-space simulator used as ground truth for every closed form.

Works at desk scale only (|alpha| of order unity, r <= 1 or so, nbar a few):
exact density matrices on a per-mode cutoff, an exactly number-conserving
exchange unitary built block-by-block, and direct operator averages.

Every generator exponentiated here is a zero-diagonal Hermitian tridiagonal
chain: the displacement on all levels, the squeeze once on the even and once
on the odd levels, the exchange on each total-number block.  ``_chain_expm``
turns each chain real by a diagonal phase similarity and exponentiates the
same truncated matrix through one real ``eigh``; no state the oracle checks
is built from the Gaussian kernels it is checked against.  The detector
marginal is the sum over the exact binomial Kraus amplitudes <k, m| U |k+m, 0>,
done as one real Toeplitz matmul on a rescaled rho, never as the joint state.
Each density matrix is checked for unit trace, Hermiticity and positivity (a
Cholesky factorization shifted by the floor), and the module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .states import GwSignalParams

DEFAULT_TAIL_TOL = 1e-8
# squeezed thermal corners of the validation box (nbar ~ 2, r ~ 1) decay like
# 0.95^n and need cutoffs well past 200 before the top level drops below 1e-8.
# The first cutoff guess stays at or below MAX_DIM; only a tail failure there
# grows the cutoff further, up to GROWTH_MAX_DIM (|alpha| = 2 along the
# anti-squeezed quadrature at r = 1, nbar = 2 fails at 320 and passes at 340)
MAX_DIM = 320
GROWTH_MAX_DIM = 448

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
POSITIVITY_FLOOR = -1e-10


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix on a truncated Fock space with recorded truncation error."""

    dim: int
    rho: NDArray[np.complex128]
    tail_mass: float
    num_modes: int = 1

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        size = self.dim**self.num_modes
        if rho.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} density matrix")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise ValueError("density matrix trace must be 1")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        # Cholesky of rho - floor * I succeeds exactly when no eigenvalue of rho
        # lies below the floor, at a fraction of the cost of the spectrum
        try:
            np.linalg.cholesky(rho - POSITIVITY_FLOOR * np.eye(size))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance") from None
        object.__setattr__(self, "rho", rho)


def annihilation(dim: int) -> NDArray[np.float64]:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _chain_expm(off: NDArray) -> NDArray[np.complex128]:
    """exp(-i H) for the Hermitian tridiagonal H with zero diagonal and H[j+1, j] = off[j].

    The diagonal phase similarity H = P T P† with P = diag(prod_{i<j} off_i / |off_i|)
    makes T real symmetric with T[j+1, j] = |off_j|, so one real eigh of the same
    truncated matrix gives exp(-i T) = Q cos(w) Q^T - i Q sin(w) Q^T from two
    real matmuls.  Phases multiply exactly for real or imaginary couplings.
    """
    off = np.asarray(off, dtype=complex)
    mag = np.abs(off)
    unit = np.ones(len(off) + 1, dtype=complex)
    np.divide(off, mag, out=unit[1:], where=mag > 0.0)
    phase = np.cumprod(unit)
    w, q = np.linalg.eigh(np.diag(mag, 1) + np.diag(mag, -1))
    op = (q * np.cos(w)) @ q.T - 1j * ((q * np.sin(w)) @ q.T)
    return phase[:, None] * op * phase.conj()[None, :]


def _renormalize_columns(op: NDArray[np.complex128]) -> tuple[NDArray[np.complex128], float]:
    """Divide out the column-norm deficit of a truncated unitary; the largest is the leakage.

    Truncation makes the top columns lose fidelity rather than norm, so the
    leakage stays at rounding level; it is still measured and returned.
    """
    norms = np.linalg.norm(op, axis=0)
    leakage = float(np.max(np.abs(1.0 - norms)))
    return op / norms, leakage


def displacement_op(alpha: complex, dim: int) -> tuple[NDArray[np.complex128], float]:
    """exp(alpha a† - alpha* a) on the cutoff, as the chain with couplings i alpha sqrt(j + 1)."""
    off = 1j * complex(alpha) * np.sqrt(np.arange(1.0, dim))
    return _renormalize_columns(_chain_expm(off))


def squeeze_op(r: float, theta: float, dim: int) -> tuple[NDArray[np.complex128], float]:
    """exp((xi* a^2 - xi a†^2) / 2) on the cutoff, xi = r e^{i theta}.

    The generator couples |j> to |j + 2> only, so it is two tridiagonal
    chains, one on the even and one on the odd levels, with couplings
    -i xi sqrt((j + 1)(j + 2)) / 2.
    """
    xi = r * np.exp(1j * theta)
    op = np.zeros((dim, dim), dtype=complex)
    for parity in range(min(2, dim)):
        j = np.arange(parity, dim - 2, 2, dtype=float)
        op[parity::2, parity::2] = _chain_expm(-0.5j * xi * np.sqrt((j + 1.0) * (j + 2.0)))
    return _renormalize_columns(op)


def thermal_weights(nbar: float, dim: int) -> NDArray[np.float64]:
    """Geometric level populations of the thermal state, normalized on the cutoff space."""
    if nbar == 0.0:
        weights = np.zeros(dim)
        weights[0] = 1.0
        return weights
    weights = np.exp(np.arange(dim) * math.log(nbar / (nbar + 1.0)))
    return weights / weights.sum()


def build_gw_density(
    p: GwSignalParams, dim: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> TruncatedState:
    """Displaced squeezed thermal density matrix D S rho_th S† D†."""
    weights = thermal_weights(p.nbar, dim)
    if p.r != 0.0:
        s, _ = squeeze_op(p.r, p.theta, dim)
        rho = (s * weights) @ s.conj().T  # S diag(w) S†
    else:
        rho = np.diag(weights).astype(complex)
    if p.alpha != 0:
        d, _ = displacement_op(p.alpha, dim)
        rho = d @ rho @ d.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2.0
    tail = float(rho[dim - 1, dim - 1].real)
    if tail > tail_tol:
        raise ValueError(f"tail mass {tail:.3e} exceeds {tail_tol}: increase dim")
    return TruncatedState(dim, rho, tail)


def _tail_decay_ratio(p: GwSignalParams) -> float:
    """Asymptotic level-population ratio of the displaced squeezed thermal state.

    Equals the spectral radius of the detection kernel A of the undisplaced
    state: for a thermal state this is nbar / (nbar + 1), squeezing pushes it
    toward 1.
    """
    half = p.nbar + 0.5
    w = half * math.cosh(2 * p.r) + 0.5
    mu = half * math.sinh(2 * p.r)
    det = w * w - mu * mu
    return mu / det + (1.0 - w / det)


def _gw_density(p: GwSignalParams, dim: int | None, tail_tol: float) -> TruncatedState:
    """Wave density on the given cutoff, or on the smallest acceptable one if dim is None.

    The adaptive search keeps the density it accepts, so callers build it once.
    """
    if dim is not None:
        return build_gw_density(p, dim, tail_tol)
    mean = p.mean_occupation
    q = _tail_decay_ratio(p)
    if q > 1e-3:
        span = math.log(0.05 * tail_tol) / math.log(q)
    else:
        span = 9.0 * math.sqrt(mean + 1.0)
    guess = int(mean + 2.0 * abs(p.alpha) + span + 12)
    dim = min(MAX_DIM, max(12, guess))
    while True:
        try:
            return build_gw_density(p, dim, tail_tol)
        except ValueError:
            if dim >= GROWTH_MAX_DIM:
                raise
            # growth still stops at MAX_DIM once on the way, as the first guess does
            dim = min(MAX_DIM if dim < MAX_DIM else GROWTH_MAX_DIM, int(dim * 1.25) + 1)


def _block_unitary(
    total_n: int, gamma_t: float, j_lo: int = 0, j_hi: int | None = None
) -> NDArray[np.complex128]:
    """exp(-i gamma_t (a b† + a† b)) on the total-number-N block.

    Basis |N - j, j> for j = j_lo..j_hi; the generator is the real symmetric
    tridiagonal with couplings sqrt((N - j)(j + 1)).  Restricting the range
    exponentiates the cutoff-truncated generator, which stays exactly unitary;
    the unrestricted block reproduces the untruncated dynamics.
    """
    j_hi = total_n if j_hi is None else j_hi
    j = np.arange(j_lo, j_hi)
    return _chain_expm(gamma_t * np.sqrt((total_n - j) * (j + 1.0)))


def beamsplitter_unitary(gamma_t: float, dim: int) -> NDArray[np.complex128]:
    """Full two-mode exchange unitary on the dim^2 truncated space.

    Assembled from the number-conserving blocks; every block is exactly
    unitary, and blocks with total number below the cutoff reproduce the
    untruncated dynamics.  Joint index convention: i = n_gw * dim + n_bar.
    """
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total_n in range(2 * dim - 1):
        j_lo = max(0, total_n - dim + 1)
        j_hi = min(total_n, dim - 1)
        block = _block_unitary(total_n, gamma_t, j_lo, j_hi)
        idx = np.array([(total_n - j) * dim + j for j in range(j_lo, j_hi + 1)])
        u[np.ix_(idx, idx)] = block
    return u


def splitting_column(total_n: int, gamma_t: float) -> NDArray[np.complex128]:
    """Amplitudes <total_n - m, m| U |total_n, 0> = sqrt(C(N, m)) cos^(N-m) (-i sin)^m.

    The binomial closed form follows from U (a†)^N U† = (cos a† - i sin b†)^N;
    it agrees with the exponentiated block to rounding.
    """
    m = np.arange(total_n + 1)
    binom = np.array([math.comb(total_n, j) for j in m], dtype=float)
    mag = np.sqrt(binom) * math.cos(gamma_t) ** (total_n - m) * math.sin(gamma_t) ** m
    return mag * np.array([1.0, -1j, -1.0, 1j])[m % 4]


def _skew(buffer: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """View [j, d] -> buffer[j, j + d] of a C-contiguous (dim, 2 dim) buffer, d < dim."""
    dim = buffer.shape[0]
    row, item = buffer.strides
    return np.lib.stride_tricks.as_strided(buffer, (dim, dim), (row + item, item))


def evolved_bar_density(
    gw: TruncatedState, gamma_t: float
) -> tuple[NDArray[np.complex128], float]:
    """Detector marginal of U (rho_gw ⊗ |0><0|) U† without forming the joint.

    rho_bar[m, n] = sum_k V[k, m] rho_gw[k+m, k+n] conj(V[k, n]) with the
    binomial Kraus amplitudes V[k, m] = <k, m| U |k+m, 0> =
    sqrt(C(k+m, m)) c^k (-i s)^m, c = cos gamma_t, s = sin gamma_t.  With
    rho~[i, j] = rho_gw[i, j] sqrt(i! j!) lam^(-i-j), lam = sqrt(dim), the sum
    factorizes as b_m conj(b_n) sum_k w_k rho~[k+m, k+n] with
    w_k = (c lam)^(2k) / k! and b_m = (-i s lam)^m / sqrt(m!); lam keeps every
    factor inside double range up to GROWTH_MAX_DIM.  In skew storage
    S[j, d] = rho~[j, j+d] (zero for j + d >= dim) every offset d is one real
    matmul T @ S with the upper-triangular Toeplitz T[m, j] = w_(j-m); the
    upper triangle is scattered back and the lower one filled by Hermiticity.
    Returns (rho_bar, tail_mass of the marginal).
    """
    dim = gw.dim
    lam = math.sqrt(dim)
    c, s = math.cos(gamma_t), math.sin(gamma_t)
    levels = np.arange(1.0, dim)
    # cumulative products rather than logs, so c = 0 or s = 0 needs no special case
    scale = np.cumprod(np.concatenate(([1.0], np.sqrt(levels) / lam)))  # sqrt(i!) lam^-i
    w = np.cumprod(np.concatenate(([1.0], (c * c * dim) / levels)))
    b = np.cumprod(np.concatenate(([1.0 + 0j], (-1j * s * lam) / np.sqrt(levels))))

    buffer = np.zeros((dim, 2 * dim), dtype=complex)
    np.multiply(gw.rho, scale[:, None], out=buffer[:, :dim])
    buffer[:, :dim] *= scale
    toeplitz = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.zeros(dim - 1), w)), dim
    )[::-1]
    summed = (toeplitz @ _skew(buffer).view(np.float64)).view(complex)

    buffer.fill(0.0)
    _skew(buffer)[...] = summed
    del summed  # frees the product before the Hermitian fill allocates rho_bar
    upper = buffer[:, :dim]
    upper *= b[:, None]
    upper *= b.conj()
    rho_bar = np.triu(upper, 1)
    rho_bar += np.conjugate(upper, out=upper).T
    np.fill_diagonal(rho_bar.imag, 0.0)
    return rho_bar, float(rho_bar[dim - 1, dim - 1].real)


def oracle_bar_state(
    p: GwSignalParams,
    gamma_t: float,
    dim: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> TruncatedState:
    gw = _gw_density(p, dim, tail_tol)
    rho_bar, tail = evolved_bar_density(gw, gamma_t)
    return TruncatedState(gw.dim, rho_bar / np.trace(rho_bar).real, tail)


def oracle_pn_table(
    p: GwSignalParams,
    gamma_t: float,
    n_max: int,
    dim: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> NDArray[np.float64]:
    bar = oracle_bar_state(p, gamma_t, dim, tail_tol)
    return np.diag(bar.rho).real[: n_max + 1].copy()


def oracle_moments_and_g2(
    p: GwSignalParams,
    gamma_t: float,
    dim: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[float, float, float]:
    """(<n>, <n^2>, g2) of the detector marginal; <n> = 0 raises."""
    bar = oracle_bar_state(p, gamma_t, dim, tail_tol)
    levels = np.arange(bar.dim)
    pops = np.diag(bar.rho).real
    mean_n = float(levels @ pops)
    mean_n2 = float((levels**2) @ pops)
    if mean_n == 0.0:
        raise ValueError("g2 undefined: <n> = 0")
    return mean_n, mean_n2, (mean_n2 - mean_n) / mean_n**2


def oracle_normal_moment(
    p: GwSignalParams,
    n_dagger: int,
    n_plain: int,
    dim: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> complex:
    """<a†^j a^k> of the wave state itself (no evolution needed)."""
    state = _gw_density(p, dim, tail_tol)
    a = annihilation(state.dim).astype(complex)
    op = np.linalg.matrix_power(a.conj().T, n_dagger) @ np.linalg.matrix_power(a, n_plain)
    return complex(np.trace(state.rho @ op))


def oracle_min_quadrature_variance(
    p: GwSignalParams,
    gamma_t: float,
    dim: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> tuple[float, float]:
    """(min over rotation angle of Var q(theta), argmin) on the detector marginal.

    Uses <x^2>, <p^2>, <{x, p}> of the evolved marginal; invariant under the
    local phase convention, so directly comparable with the closed form.
    """
    bar = oracle_bar_state(p, gamma_t, dim, tail_tol)
    a = annihilation(bar.dim).astype(complex)
    x = (a + a.conj().T) / math.sqrt(2.0)
    pq = 1j * (a.conj().T - a) / math.sqrt(2.0)
    mx = np.trace(bar.rho @ x).real
    mp = np.trace(bar.rho @ pq).real
    xx = np.trace(bar.rho @ x @ x).real - mx * mx
    pp = np.trace(bar.rho @ pq @ pq).real - mp * mp
    xp = np.trace(bar.rho @ (x @ pq + pq @ x)).real / 2.0 - mx * mp
    mean = 0.5 * (xx + pp)
    amp = math.hypot(0.5 * (xx - pp), xp)
    theta_min = 0.5 * (math.atan2(xp, 0.5 * (xx - pp)) + math.pi) % math.pi
    return mean - amp, theta_min
