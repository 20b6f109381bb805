"""Truncated Fock-space simulator used as ground truth for every closed form.

Works at desk scale only (|alpha| of order unity, r <= 1 or so, nbar a few):
exact density matrices on a per-mode cutoff, an exactly number-conserving
exchange unitary built block-by-block, and direct operator averages.

Every generator exponentiated here is a phase-rotated real antisymmetric
tridiagonal chain: D(alpha) = e^{i phi n} D(|alpha|) e^{-i phi n} on all
levels, S(xi) = e^{i theta n/2} S(r) e^{-i theta n/2} once on the even and
once on the odd levels, and the exchange on each total-number block is
diag(i^j) R diag(i^j)†.  ``_chain_expm`` is the one kernel: the orthogonal
exponential R of a real chain, from one real SVD of the half-size block
linking its even levels to its odd ones; the phases are applied to thin
factors only.  No state the oracle checks is built from the Gaussian kernels
it is checked against.  The wave density is N N† with
N = e^{i phi n} R_D e^{i (theta/2 - phi) n} R_S sqrt(rho_th): N has one column
per thermal level whose population is at least THERMAL_FLOOR (2^-80) of the
ground level's, k of them (1 at nbar = 0), so its products cost dim^2 k, not
dim^3; R_S is formed on those k columns only, and R_D meets each parity of
them through one half-width real product.  N N† is written as a symmetric
real part and an antisymmetric imaginary part, so rho is Hermitian bit for
bit, and alpha = 0 and r = 0 run as exact identity rotations.
The detector marginal is the sum over the exact binomial Kraus amplitudes
<k, m| U |k+m, 0>, never the joint state.  Its populations on every level
come first, through one Toeplitz mat-vec on the wave's diagonal; the matrix
is then built, as one real Toeplitz matmul on a rescaled band of rho, and
checked on the levels that carry its mass only (MARGINAL_FLOOR).
Each density matrix is checked for unit trace, Hermiticity (through one
temporary) and positivity (a Cholesky factorization of rho itself, its
diagonal shifted by the floor and then restored bit for bit); numpy does all
of it.  Each full-size array goes before the next is made, and the marginal
drops the wave density once it holds the band, so the peak of a draw is the
wave's positivity check: rho, numpy's working copy of it and the Cholesky
factor.
``oracle_pn_table`` and ``oracle_moments_and_g2`` read only the marginal's
diagonal, and they share the latest checked one: asking both of one state
builds its wave density and its marginal once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .states import GwSignalParams

DEFAULT_TAIL_TOL = 1e-8
# M = D S sqrt(rho_th) leaves out the thermal levels whose population is below
# this fraction of the ground level's: they move no entry of rho past round-off
THERMAL_FLOOR = 2.0**-80
# the detector marginal is built on the fewest levels past which its
# population and its n^2-weighted population both fall below this fraction
# of their totals
MARGINAL_FLOOR = 1e-17
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


def _chain_expm(c: NDArray, columns: int | None = None) -> tuple[NDArray[np.float64], float]:
    """Leading columns of the orthogonal exp(K), K[j+1, j] = c[j] = -K[j, j+1], and its leakage.

    K only links even levels to odd ones: on (even, odd) it is [[0, -B], [B^T, 0]]
    with the lower-bidiagonal B[i, i] = c_(2i), B[i+1, i] = -c_(2i+1) of size
    ceil(n/2) x floor(n/2).  One SVD B = U s V^T of that half-size block gives
    U cos(s) U^T on the even levels (cos = 1 on the null vector of an
    odd-length chain), V cos(s) V^T on the odd ones, -U sin(s) V^T from odd to
    even and its negative transpose from even to odd (Golub & Kahan 1965).
    Only the leading ``columns`` levels are formed (all by default), even
    levels first: the columns are levels 0, 2, 4, ... then 1, 3, 5, ...  Each
    column is divided by its norm; truncation makes the top columns lose
    fidelity rather than norm, so the largest deficit, the leakage, stays at
    rounding level.  It is still measured and returned.
    """
    size = len(c) + 1
    columns = size if columns is None else columns
    n_even, n_odd = (size + 1) // 2, size // 2
    k_even, k_odd = (columns + 1) // 2, columns // 2
    coupling = np.zeros((n_even, n_odd))
    coupling[np.arange(n_odd), np.arange(n_odd)] = c[0::2]
    coupling[np.arange(1, n_even), np.arange(n_even - 1)] = -c[1::2]
    u, s, vt = np.linalg.svd(coupling)
    cos_even = np.ones(n_even)
    cos_even[:n_odd] = np.cos(s)
    link = (u[:, :n_odd] * -np.sin(s)) @ vt  # exp(K) from the odd levels to the even ones
    op = np.empty((size, k_even + k_odd))
    op[0::2, :k_even] = (u * cos_even) @ u[:k_even].T
    op[1::2, :k_even] = -link[:k_even].T
    op[0::2, k_even:] = link[:, :k_odd]
    op[1::2, k_even:] = (vt.T * np.cos(s)) @ vt[:, :k_odd]
    norms = np.linalg.norm(op, axis=0)
    op /= norms
    # initial: the empty odd block of a one-level cutoff leaks nothing
    return op, float(np.max(np.abs(1.0 - norms), initial=0.0))


def _level_order(op: NDArray) -> NDArray:
    """The columns of a ``_chain_expm`` result, even levels first, put back in level order."""
    natural = np.empty_like(op)
    n_even = (op.shape[1] + 1) // 2
    natural[:, 0::2], natural[:, 1::2] = op[:, :n_even], op[:, n_even:]
    return natural


def thermal_populations(nbar: float, dim: int) -> NDArray[np.float64]:
    """Geometric level populations of the thermal state, normalized on the cutoff space."""
    if nbar == 0.0:
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    pops = np.exp(np.arange(dim) * math.log(nbar / (nbar + 1.0)))
    return pops / pops.sum()


def build_gw_density(
    p: GwSignalParams, dim: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> TruncatedState:
    """Displaced squeezed thermal density matrix N N†, N = D S sqrt(rho_th) up to column phases.

    With alpha = |alpha| e^{i phi} and xi = r e^{i theta}, D = e^{i phi n} R_D e^{-i phi n}
    and S = e^{i theta n / 2} R_S e^{-i theta n / 2} for the real rotations R_D
    and R_S of ``_chain_expm``.  The last phase commutes with sqrt(rho_th) and
    drops out of N N†, so N = e^{i phi n} R_D (e^{i (theta/2 - phi) n} R_S sqrt(rho_th)).
    N has one column per thermal level whose population is at least
    THERMAL_FLOOR of the ground level's, k of them (1 at nbar = 0), so its
    products cost dim^2 k rather than dim^3.  N is scaled to unit Frobenius
    norm, and rho = N N† is written as Re N Re N^T + Im N Im N^T (one
    symmetric product) plus i (G - G^T) with G = Im N Re N^T, so that rho is
    Hermitian bit for bit.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    pops = thermal_populations(p.nbar, dim)
    root_pops = np.sqrt(pops[pops >= THERMAL_FLOOR * pops[0]])
    k = len(root_pops)
    levels = np.arange(dim)
    phi = math.atan2(p.alpha.imag, p.alpha.real)
    rotation, _ = _chain_expm(abs(p.alpha) * np.sqrt(levels[1:]))
    twist = np.exp(1j * (0.5 * p.theta - phi) * levels)
    # R_S sqrt(rho_th) maps each parity of levels to itself, and R_D holds its
    # even columns before its odd ones, so each parity of the thin complex
    # block meets a half-width real block of R_D through one real matmul
    n_even, k_even = (dim + 1) // 2, (k + 1) // 2
    factor = np.empty((dim, k), dtype=complex)
    for parity in range(min(2, k)):
        roots = root_pops[parity::2]
        j = np.arange(parity, dim - 2, 2, dtype=float)
        squeeze, _ = _chain_expm(-0.5 * p.r * np.sqrt((j + 1.0) * (j + 2.0)), len(roots))
        # the chain's columns come even levels first, and so do their roots
        thin = squeeze * np.concatenate((roots[0::2], roots[1::2])) * twist[parity::2, None]
        block = (rotation[:, :n_even], rotation[:, n_even:])[parity]
        out = (factor[:, :k_even], factor[:, k_even:])[parity].view(np.float64)
        np.matmul(block, thin.view(np.float64), out=out)
    del rotation, block, squeeze, thin, out  # before any density-sized array is made
    factor *= np.exp(1j * phi * levels)[:, None]
    factor /= np.linalg.norm(factor)
    rho = np.empty((dim, dim), dtype=complex)
    gram = factor.imag @ factor.real.T
    np.subtract(gram, gram.T, out=rho.imag)
    del gram
    flat = factor.view(np.float64)
    rho.real = flat @ flat.T  # numpy's symmetric product of a matrix with its transpose
    del factor, flat
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
    The guess is generous on purpose, not the smallest cutoff that passes
    the tail test: the margin is the accuracy that the checks against the
    80-digit referee need (the measurements are in CHANGES.md).  The
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
    rotation, _ = _chain_expm(-gamma_t * np.sqrt((total_n - j) * (j + 1.0)))
    # diag(i^j) R diag(i^j)†: entry [a, b] takes the phase i^(a - b)
    local = np.arange(len(rotation))
    return _level_order(rotation) * np.array([1, 1j, -1, -1j])[(local[:, None] - local) % 4]


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


def _skew(array: NDArray, rows: int, width: int) -> NDArray:
    """View [j, d] -> array[j, j + d], j < rows, d < width, of a C-contiguous 2-D array.

    Past the end of row j the view runs on into the strictly lower triangle
    of row j + 1; the caller keeps every entry it reads inside the array.
    """
    row, item = array.strides
    return np.lib.stride_tricks.as_strided(array, (rows, width), (row + item, item))


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
    gw: TruncatedState, gamma_t: float, min_levels: int = 1
) -> tuple[NDArray[np.complex128], float]:
    """Detector marginal of U (rho_gw ⊗ |0><0|) U† on the levels that carry its mass.

    rho_bar[m, n] = sum_k V[k, m] rho_gw[k+m, k+n] conj(V[k, n]) with the
    binomial Kraus amplitudes V[k, m] = <k, m| U |k+m, 0> =
    sqrt(C(k+m, m)) c^k (-i s)^m, c = cos gamma_t, s = sin gamma_t.  With
    rho~[i, j] = rho_gw[i, j] sqrt(i! j!) lam^(-i-j), lam = sqrt(dim), the sum
    factorizes as b_m conj(b_n) sum_k w_k rho~[k+m, k+n] with
    w_k = (c lam)^(2k) / k! and b_m = (-i s lam)^m / sqrt(m!); lam keeps every
    factor inside double range up to GROWTH_MAX_DIM.  The populations on all
    dim levels come first, from the diagonal of rho~ through one Toeplitz
    mat-vec with T[m, j] = w_(j-m).  The matrix is then built on its leading
    L levels only: the fewest past which the population and the
    n^2-weighted population are both at most MARGINAL_FLOOR of their totals,
    and never fewer than min_levels.  In skew storage S[j, d] = rho~[j, j+d]
    (zero for j + d >= dim), a dim x L band read straight off rho_gw, the
    offsets d < L are one real matmul T[:L] @ S at a cost of L^2 dim; its
    upper triangle is scattered back and the lower one filled by
    Hermiticity.  Returns (rho_bar, population of its top level).
    """
    dim = gw.dim
    if not 1 <= min_levels <= dim:
        raise ValueError(f"min_levels must lie in 1..{dim}, got {min_levels}")
    lam = math.sqrt(dim)
    s = math.sin(gamma_t)
    levels = np.arange(1.0, dim)
    w = _marginal_weights(gamma_t, dim)
    # cumulative products rather than logs, so s = 0 needs no special case
    scale = np.cumprod(np.concatenate(([1.0], np.sqrt(levels) / lam)))  # sqrt(i!) lam^-i
    b = np.cumprod(np.concatenate(([1.0 + 0j], (-1j * s * lam) / np.sqrt(levels))))
    rho = np.ascontiguousarray(gw.rho)
    del gw  # the last reference when the caller kept none

    # the populations |b_m|^2 (T @ diag(rho~))_m, the mat-vec as a correlation with w
    diagonal = rho.diagonal().real * scale * scale
    pops = np.correlate(np.concatenate((diagonal, np.zeros(dim - 1))), w) * (b * b.conj()).real
    # what levels L.. hold, for L = 0..dim-1; it only shrinks as L grows
    tail = pops[::-1].cumsum()[::-1]
    tail_n2 = (pops * np.arange(dim) ** 2)[::-1].cumsum()[::-1]
    cut = (tail <= MARGINAL_FLOOR * tail[0]) & (tail_n2 <= MARGINAL_FLOOR * tail_n2[0])
    n = max(min_levels, dim - int(np.count_nonzero(cut[1:])))

    band = np.empty((dim, n), dtype=complex)
    band[:-1] = _skew(rho, dim - 1, n)
    band[-1] = rho[-1, -1]
    del rho
    band *= scale[:, None]
    # scale[j + d], with ones past the top level for the entries zeroed next
    scale_ext = np.concatenate((scale, np.ones(n)))
    band *= np.lib.stride_tricks.as_strided(scale_ext, (dim, n), (scale_ext.itemsize,) * 2)
    # in the last n rows the entries past j + d = dim came from the next row
    strictly_lower = np.tri(n, k=-1, dtype=bool)
    np.copyto(band[dim - n :][::-1], 0.0, where=strictly_lower.T)
    # T[:n]: row m reads w from m entries before its start, where dim - 1 zeros pad it
    w_ext = np.concatenate((np.zeros(dim - 1), w))[dim - 1 :]
    toeplitz = np.lib.stride_tricks.as_strided(w_ext, (n, dim), (-w.itemsize, w.itemsize))
    summed = (toeplitz @ band.view(np.float64)).view(complex)
    del band

    upper = np.zeros((n + 1, n), dtype=complex)
    _skew(upper, n, n)[...] = summed
    del summed
    upper = upper[:n]
    # offsets past the end of a row spilled into the lower triangle: zero it again
    np.copyto(upper, 0.0, where=strictly_lower)
    upper *= b[:n, None]
    upper *= b[:n].conj()
    # the zeroed lower triangle adds nothing off the diagonal; on it the sum is 2 Re
    rho_bar = np.conjugate(upper.T, order="C")
    rho_bar += upper
    np.fill_diagonal(rho_bar, upper.diagonal().real)
    return rho_bar, float(rho_bar[n - 1, n - 1].real)


def oracle_bar_state(
    p: GwSignalParams,
    gamma_t: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    min_dim: int = MIN_DIM,
) -> TruncatedState:
    # no reference to the wave density stays here, so the marginal frees it early
    rho_bar, tail = evolved_bar_density(_gw_density(p, tail_tol, min_dim), gamma_t, min_dim)
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
    return mean_n, mean_n2, (mean_n2 - mean_n) / (mean_n * mean_n)


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
