"""Truncated Fock-space simulator used as ground truth for every closed form.

Works at desk scale only (|alpha| of order unity, r <= 1 or so, nbar a few):
exact density matrices on a per-mode cutoff, an exactly number-conserving
exchange unitary built block-by-block, and direct operator averages.

Every generator exponentiated here is a zero-diagonal Hermitian tridiagonal
chain: the displacement on all levels, the squeeze once on the even and once
on the odd levels, the exchange on each total-number block.  ``_chain_expm``
turns each chain real by a diagonal phase similarity and exponentiates the
same truncated matrix through one real SVD of its half-size block linking
even to odd levels; no state the oracle checks is built from the Gaussian
kernels it is checked against.  The wave density is M M† with
M = D S sqrt(rho_th) along one path: S is never formed whole, D meets its
two parity blocks through half-size products, and alpha = 0 and r = 0 run as
exact identity chains.  The detector marginal is the sum over the exact
binomial Kraus amplitudes <k, m| U |k+m, 0>, done as one real Toeplitz
matmul on a rescaled rho, never as the joint state.
Each density matrix is checked for unit trace, Hermiticity (through one
temporary) and positivity (a Cholesky factorization of rho itself, its
diagonal shifted by the floor and then restored bit for bit); numpy does all
of it.  The displacement and squeeze chains are independent LAPACK work, so
the squeeze runs on a second thread of each build while the caller makes the
displacement.  Each full-size array goes before the next is made, the
marginal drops the wave density once it holds a rescaled copy, and its skew
buffer is (dim + 1) x dim: at cutoff 320 one draw holds at most 3.5
density-sized complex arrays at once, not 4.6.
``oracle_pn_table`` and ``oracle_moments_and_g2`` read only the marginal's
diagonal, and they share the latest checked one: asking both of one state
builds its wave density and its marginal once.
"""

from __future__ import annotations

import math
import threading
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
# the adaptive search never starts below this cutoff, nor below the levels asked for
MIN_DIM = 12

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
POSITIVITY_FLOOR = -1e-10


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix on a truncated Fock space with recorded truncation error."""

    dim: int
    rho: NDArray[np.complex128]
    tail_mass: float

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} density matrix")
        # both tests are negated: a comparison with NaN is False, so a non-finite entry fails one
        trace = np.trace(rho)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
            raise ValueError(f"density matrix trace must be 1, got {trace} (non-finite fails)")
        if not rho.flags.writeable:
            rho = rho.copy()
        skew = rho.T.conj()
        skew -= rho
        if not (np.max(np.abs(skew)) <= HERMITICITY_TOL):
            raise ValueError("density matrix must be Hermitian (non-finite fails)")
        del skew
        # Cholesky of rho - floor * I succeeds exactly when no eigenvalue of rho
        # lies below the floor, at a fraction of the cost of the spectrum; the
        # shift is made on rho itself and its diagonal restored bit for bit
        diagonal = rho.diagonal().copy()
        try:
            rho.flat[:: self.dim + 1] -= POSITIVITY_FLOOR
            np.linalg.cholesky(rho)
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance") from None
        finally:
            rho.flat[:: self.dim + 1] = diagonal
        object.__setattr__(self, "rho", rho)


def annihilation(dim: int) -> NDArray[np.float64]:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _chain_expm(off: NDArray) -> NDArray[np.complex128]:
    """exp(-i H) for the Hermitian tridiagonal H with zero diagonal and H[j+1, j] = off[j].

    The diagonal phase similarity H = P T P† with P = diag(prod_{i<j} off_i / |off_i|)
    makes T real symmetric with T[j+1, j] = |off_j|.  T only links even levels to
    odd ones: on (even, odd) it is [[0, B], [B^T, 0]] with the lower-bidiagonal
    B[i, i] = |off_(2i)|, B[i+1, i] = |off_(2i+1)| of size ceil(n/2) x floor(n/2).
    One SVD B = U s V^T of that half-size block gives cos T = U cos(s) U^T on the
    even levels (cos = 1 on the null vector of an odd-length chain) and
    V cos(s) V^T on the odd ones, and sin T = U sin(s) V^T between them
    (Golub & Kahan 1965).  Phases multiply exactly for real or imaginary couplings.
    """
    off = np.asarray(off, dtype=complex)
    mag = np.abs(off)
    size = len(off) + 1
    unit = np.ones(size, dtype=complex)
    np.divide(off, mag, out=unit[1:], where=mag > 0.0)
    phase = np.cumprod(unit)
    n_even, n_odd = (size + 1) // 2, size // 2
    coupling = np.zeros((n_even, n_odd))
    coupling[np.arange(n_odd), np.arange(n_odd)] = mag[0::2]
    coupling[np.arange(1, n_even), np.arange(n_even - 1)] = mag[1::2]
    u, s, vt = np.linalg.svd(coupling)
    cos_even = np.ones(n_even)
    cos_even[:n_odd] = np.cos(s)
    op = np.empty((size, size), dtype=complex)
    op[0::2, 0::2] = (u * cos_even) @ u.T
    op[1::2, 1::2] = (vt.T * np.cos(s)) @ vt
    sin_link = (u[:, :n_odd] * np.sin(s)) @ vt
    op[0::2, 1::2] = -1j * sin_link
    op[1::2, 0::2] = -1j * sin_link.T
    op *= phase[:, None]
    op *= phase.conj()
    return op


def _renormalize_columns(op: NDArray[np.complex128]) -> tuple[NDArray[np.complex128], float]:
    """Divide out, in place, a truncated unitary's column-norm deficit; the largest is the leakage.

    Truncation makes the top columns lose fidelity rather than norm, so the
    leakage stays at rounding level; it is still measured and returned.
    """
    norms = np.linalg.norm(op, axis=0)
    op /= norms
    # initial: the empty odd block of a one-level cutoff leaks nothing
    return op, float(np.max(np.abs(1.0 - norms), initial=0.0))


def displacement_op(alpha: complex, dim: int) -> tuple[NDArray[np.complex128], float]:
    """exp(alpha a† - alpha* a) on the cutoff, as the chain with couplings i alpha sqrt(j + 1)."""
    off = 1j * complex(alpha) * np.sqrt(np.arange(1.0, dim))
    return _renormalize_columns(_chain_expm(off))


def squeeze_blocks(r: float, theta: float, dim: int) -> tuple[NDArray, NDArray, float]:
    """Even block, odd block and leakage of exp((xi* a^2 - xi a†^2) / 2), xi = r e^{i theta}.

    The generator couples |j> to |j + 2> only, so S is two tridiagonal
    chains, S[0::2, 0::2] on the even and S[1::2, 1::2] on the odd levels,
    with couplings -i xi sqrt((j + 1)(j + 2)) / 2, and zero elsewhere.
    """
    xi = r * np.exp(1j * theta)
    blocks = [np.zeros((0, 0), dtype=complex)] * 2
    for parity in range(min(2, dim)):
        j = np.arange(parity, dim - 2, 2, dtype=float)
        blocks[parity] = _chain_expm(-0.5j * xi * np.sqrt((j + 1.0) * (j + 2.0)))
    (even, even_leakage), (odd, odd_leakage) = map(_renormalize_columns, blocks)
    return even, odd, max(even_leakage, odd_leakage)


def thermal_populations(nbar: float, dim: int) -> NDArray[np.float64]:
    """Geometric level populations of the thermal state, normalized on the cutoff space."""
    if nbar == 0.0:
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    pops = np.exp(np.arange(dim) * math.log(nbar / (nbar + 1.0)))
    return pops / pops.sum()


class _Stage(threading.Thread):
    """``call(*args)`` on a thread of its own, started at once.

    After ``join``, ``result`` returns the call's value or raises its error on
    the joining thread.
    """

    def __init__(self, call, *args):
        super().__init__()
        self._call = call, args
        self._outcome = None
        self.start()

    def run(self):
        call, args = self._call
        try:
            self._outcome = call(*args), None
        except BaseException as error:  # re-raised by result() on the joining thread
            self._outcome = None, error

    def result(self):
        value, error = self._outcome
        if error is not None:
            raise error
        return value


def build_gw_density(
    p: GwSignalParams, dim: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> TruncatedState:
    """Displaced squeezed thermal density matrix M M† with M = D S sqrt(rho_th)."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    root_pops = np.sqrt(thermal_populations(p.nbar, dim))
    # the two chain exponentials are independent LAPACK work, which releases
    # the interpreter lock: the squeeze runs on a second thread meanwhile
    squeeze = _Stage(squeeze_blocks, p.r, p.theta, dim)
    try:
        factor, _ = displacement_op(p.alpha, dim)
    finally:
        squeeze.join()
    even, odd, _ = squeeze.result()
    # S sqrt(rho_th) maps each parity of levels to itself, so D meets the even
    # and the odd columns through half-size blocks
    for parity, block in enumerate((even, odd)):
        factor[:, parity::2] = factor[:, parity::2] @ (block * root_pops[parity::2])
    del even, odd, block
    rho = factor @ factor.conj().T
    del factor  # each full-size array goes before the next is made
    rho /= np.trace(rho).real
    rho += rho.conj().T
    rho *= 0.5
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


def _gw_density(p: GwSignalParams, tail_tol: float, min_dim: int = MIN_DIM) -> TruncatedState:
    """Wave density on a cutoff guessed from the tail decay, grown only when its tail fails.

    The guess is the mean occupation, plus 2 |alpha|, plus the levels over
    which the asymptotic decay ratio takes the tail to 5% of tail_tol, plus
    12, kept between min_dim and MAX_DIM.  A tail failure grows the cutoff by
    a quarter, stopping at MAX_DIM once on the way, up to GROWTH_MAX_DIM.
    The guess is generous, not the smallest cutoff that passes: on the
    benchmark's seed-901 oracle draws all 32 accepted cutoffs lie above it
    (largest 320 against 203, median 100.5 against 70).  The values depend
    on the cutoff at round-off, so a tighter search would move them.  The
    accepted density is returned, so callers build it once.
    """
    mean = p.mean_occupation
    q = _tail_decay_ratio(p)
    if q > 1e-3:
        span = math.log(0.05 * tail_tol) / math.log(q)
    else:
        span = 9.0 * math.sqrt(mean + 1.0)
    guess = int(mean + 2.0 * abs(p.alpha) + span + 12)
    dim = max(min_dim, min(MAX_DIM, guess))
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
    """View [j, d] -> flat[j (dim + 1) + d], d < dim, of a C-contiguous (dim + 1, dim) buffer.

    That is buffer[j, j + d] while j + d < dim; past the end of row j the view
    runs on into the strictly lower triangle of row j + 1 (the last row is padding).
    """
    dim = buffer.shape[1]
    row, item = buffer.strides
    return np.lib.stride_tricks.as_strided(buffer, (dim, dim), (row + item, item))


def _marginal_weights(gamma_t: float, dim: int) -> NDArray[np.float64]:
    """The weights w_k = (c^2 dim)^k / k!, k < dim, c = cos gamma_t, of ``evolved_bar_density``.

    Raises where one overflows, which at c near 1 is past a cutoff of ~709.
    """
    c = math.cos(gamma_t)
    # cumulative products rather than logs, so c = 0 needs no special case
    with np.errstate(over="ignore"):
        w = np.cumprod(np.concatenate(([1.0], (c * c * dim) / np.arange(1.0, dim))))
    if not np.isfinite(w).all():
        raise ValueError(
            f"cutoff dim {dim} at gamma_t {gamma_t}: the marginal's weights "
            "(cos^2 gamma_t dim)^k / k! overflow"
        )
    return w


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
    S is a view of a (dim + 1, dim) buffer holding rho~ with its strictly
    lower triangle zeroed, which supplies the zeros: the buffer is half the
    size of a zero-padded (dim, 2 dim) one, and the values and their order
    are the same.  Returns (rho_bar, tail_mass of the marginal).
    """
    dim = gw.dim
    lam = math.sqrt(dim)
    s = math.sin(gamma_t)
    levels = np.arange(1.0, dim)
    w = _marginal_weights(gamma_t, dim)
    # cumulative products rather than logs, so s = 0 needs no special case
    scale = np.cumprod(np.concatenate(([1.0], np.sqrt(levels) / lam)))  # sqrt(i!) lam^-i
    b = np.cumprod(np.concatenate(([1.0 + 0j], (-1j * s * lam) / np.sqrt(levels))))

    buffer = np.zeros((dim + 1, dim), dtype=complex)
    upper = buffer[:dim]
    np.multiply(gw.rho, scale[:, None], out=upper)
    del gw  # the last reference when the caller kept none
    upper *= scale
    # the skew view reads these zeros past the end of each row
    strictly_lower = np.tri(dim, k=-1, dtype=bool)
    np.copyto(upper, 0.0, where=strictly_lower)
    toeplitz = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.zeros(dim - 1), w)), dim
    )[::-1]
    summed = (toeplitz @ _skew(buffer).view(np.float64)).view(complex)

    _skew(buffer)[...] = summed
    del summed  # frees the product before the Hermitian fill allocates rho_bar
    # offsets past the end of a row spilled into the lower triangle: zero it again
    np.copyto(upper, 0.0, where=strictly_lower)
    upper *= b[:, None]
    upper *= b.conj()
    rho_bar = np.triu(upper, 1)
    rho_bar += np.conjugate(upper, out=upper).T
    np.fill_diagonal(rho_bar.imag, 0.0)
    return rho_bar, float(rho_bar[dim - 1, dim - 1].real)


def oracle_bar_state(
    p: GwSignalParams,
    gamma_t: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    min_dim: int = MIN_DIM,
) -> TruncatedState:
    # no reference to the wave density stays here, so the marginal frees it early
    rho_bar, tail = evolved_bar_density(_gw_density(p, tail_tol, min_dim), gamma_t)
    rho_bar /= np.trace(rho_bar).real
    return TruncatedState(len(rho_bar), rho_bar, tail)


# (key, diagonal) of the latest marginal that passed its checks, or None
_last_populations: tuple[tuple, NDArray[np.complex128]] | None = None


def _bar_populations(
    p: GwSignalParams, gamma_t: float, tail_tol: float, min_dim: int = MIN_DIM
) -> NDArray[np.complex128]:
    """Read-only diagonal of ``oracle_bar_state(p, gamma_t, tail_tol, min_dim).rho``.

    The latest one is kept, keyed by the exact bits of every input (so -0.0
    and 0.0 differ); a call that raises keeps nothing.  The complex diagonal
    is kept, not its real part: callers read it through ``.real``, a strided
    view, and a contiguous copy would change the BLAS path of their dot
    products and with it the last bits of the moments.
    """
    global _last_populations
    numbers = (p.alpha.real, p.alpha.imag, p.r, p.theta, p.nbar, gamma_t, tail_tol)
    key = (*(float(x).hex() for x in numbers), min_dim)
    if _last_populations is not None and _last_populations[0] == key:
        return _last_populations[1]
    pops = np.diag(oracle_bar_state(p, gamma_t, tail_tol, min_dim).rho).copy()
    pops.flags.writeable = False
    _last_populations = key, pops
    return pops


def oracle_pn_table(p: GwSignalParams, gamma_t: float, n_max: int) -> NDArray[np.float64]:
    """P_0..P_n_max of the detector marginal, on a cutoff that holds every one of them."""
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    if n_max >= GROWTH_MAX_DIM:
        raise ValueError(f"n_max {n_max} needs a cutoff past {GROWTH_MAX_DIM}")
    pops = _bar_populations(p, gamma_t, DEFAULT_TAIL_TOL, max(MIN_DIM, n_max + 1))
    return pops.real[: n_max + 1].copy()


def oracle_moments_and_g2(
    p: GwSignalParams, gamma_t: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[float, float, float]:
    """(<n>, <n^2>, g2) of the detector marginal; <n> = 0 raises.

    Reads the same latest checked marginal as ``oracle_pn_table``, so asking
    both of one state builds it once.
    """
    pops = _bar_populations(p, gamma_t, tail_tol).real
    levels = np.arange(len(pops))
    mean_n = float(levels @ pops)
    mean_n2 = float((levels**2) @ pops)
    if mean_n == 0.0:
        raise ValueError("g2 undefined: <n> = 0")
    return mean_n, mean_n2, (mean_n2 - mean_n) / mean_n**2


def oracle_normal_moment(
    p: GwSignalParams, n_dagger: int, n_plain: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> complex:
    """<a†^j a^k> of the wave state itself (no evolution needed)."""
    state = _gw_density(p, tail_tol)
    a = annihilation(state.dim).astype(complex)
    op = np.linalg.matrix_power(a.conj().T, n_dagger) @ np.linalg.matrix_power(a, n_plain)
    return complex(np.trace(state.rho @ op))


def oracle_min_quadrature_variance(p: GwSignalParams, gamma_t: float) -> tuple[float, float]:
    """(min over rotation angle of Var q(theta), argmin) on the detector marginal.

    Uses <x^2>, <p^2>, <{x, p}> of the evolved marginal, on a cutoff whose
    tail mass is at most 1e-10; invariant under the local phase convention,
    so directly comparable with the closed form.
    """
    bar = oracle_bar_state(p, gamma_t, 1e-10)
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
