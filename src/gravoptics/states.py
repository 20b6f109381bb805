"""N-mode Gaussian states, symplectic maps, and ladder-basis transforms.

Conventions (fixed throughout the package):

* hbar = 1 and the vacuum quadrature variance is 1/2.
* Quadrature ordering is interleaved, ``(x1, p1, ..., xN, pN)``.
* Ladder ordering is interleaved, ``(a1, a1†, ..., aN, aN†)``.
* A displacement ``alpha`` enters the quadrature mean as
  ``sqrt(2) (Re alpha, Im alpha)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-11

# single-mode ladder transform: (a, a†) = M (x, p)
_M_BLOCK = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form Omega = ⊕ [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def ladder_transform(n_modes: int) -> NDArray[np.complex128]:
    """Unitary M with (a1, a1†, ...) = M (x1, p1, ...)."""
    blocks = [_M_BLOCK] * n_modes
    out = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for j, b in enumerate(blocks):
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = b
    return out


def symplectic_eigenvalues(cov: NDArray[np.float64]) -> NDArray[np.float64]:
    """Positive symplectic eigenvalues of a covariance matrix.

    These are the moduli of the eigenvalues of ``i Omega cov``; each appears
    twice, so the returned array has one entry per mode, sorted ascending.
    """
    n_modes = cov.shape[0] // 2
    omega = symplectic_form(n_modes)
    ev = np.linalg.eigvals(1j * omega @ cov)
    return np.sort(np.abs(ev))[::2].copy()


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state as quadrature covariance matrix and displacement vector."""

    num_modes: int
    cov: NDArray[np.float64]
    disp: NDArray[np.float64]

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        disp = np.asarray(self.disp, dtype=float)
        d = 2 * self.num_modes
        if self.num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        if cov.shape != (d, d) or disp.shape != (d,):
            raise ValueError(f"expected cov {d}x{d} and disp length {d}")
        asym = np.max(np.abs(cov - cov.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        # the eigenvalue solve itself is only accurate to ~eps * ||cov||, so the
        # physicality floor widens with the covariance scale (large squeezing)
        tol = max(PHYSICALITY_TOL, 64.0 * np.finfo(float).eps * np.abs(cov).max())
        nu_min = symplectic_eigenvalues(cov).min()
        if nu_min < 0.5 - tol:
            raise ValueError(f"unphysical covariance: min symplectic eigenvalue {nu_min}")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "disp", disp)


@dataclass(frozen=True)
class LadderMoments:
    """First and second moments in the interleaved (a, a†) ladder basis.

    ``sigma`` is the complex *symmetric* matrix of anticommutator central
    moments, sigma_ij = <{da_i, da_j}>/2 with da = a - <a>; for one mode its
    entries are [[<da^2>, nu], [nu, <da†^2>]] with nu = <{da, da†}>/2.
    """

    num_modes: int
    sigma: NDArray[np.complex128]
    abar: NDArray[np.complex128]

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=complex)
        abar = np.asarray(self.abar, dtype=complex)
        d = 2 * self.num_modes
        if sigma.shape != (d, d) or abar.shape != (d,):
            raise ValueError(f"expected sigma {d}x{d} and abar length {d}")
        asym = np.max(np.abs(sigma - sigma.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"ladder sigma asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "abar", abar)


@dataclass(frozen=True)
class SymplecticMap:
    """Real symplectic matrix acting on a state's quadratures."""

    matrix: NDArray[np.float64]

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError("symplectic matrix must be 2N x 2N")
        omega = symplectic_form(s.shape[0] // 2)
        defect = np.max(np.abs(s @ omega @ s.T - omega))
        if defect > SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic: defect {defect:.3e}")
        object.__setattr__(self, "matrix", s)

    @property
    def num_modes(self) -> int:
        return self.matrix.shape[0] // 2


def raise_first_failure(ok: list, message) -> None:
    """Raise ValueError(message(k)) for the first failing check k.

    ``ok`` holds one flag per check, in the order one state is checked: a
    bool for one state, or bools and bool arrays over a grid.  An array flag
    that fails anywhere raises without naming a point; ``cli`` replays such a
    grid point by point to find it.
    """
    for k, flag in enumerate(ok):
        if isinstance(flag, np.ndarray):
            if not flag.all():
                raise ValueError(f"check {k} fails at a grid point")
        elif not flag:
            raise ValueError(message(k))


def each(fn, x, dtype=float):
    """fn of a scalar, or of every entry of an array, always through the scalar fn.

    numpy's exp, expm1, sinh, cosh and arcsinh loops round differently from
    libm on some inputs, so array paths take their transcendentals from
    ``math`` and give the bits of the scalar path.  An array keeps its shape.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), dtype, x.size).reshape(x.shape)
    return fn(x)


def _cosh_or_inf(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _abs_complex(z) -> float:
    return abs(complex(z))  # a Python float, which overflows to inf without a numpy warning


def _real_array(alpha) -> bool:
    return isinstance(alpha, np.ndarray) and not np.iscomplexobj(alpha)


def _modulus(alpha):
    """|alpha|: np.abs of a real array, abs(complex) entry by entry otherwise.

    np.abs of a complex array rounds differently from abs(complex) on some inputs.
    """
    return np.abs(alpha) if _real_array(alpha) else each(_abs_complex, alpha)


def _phase(alpha):
    """arg alpha: 0.0, or pi where the sign bit is set, for a real array (both exact).

    A complex alpha goes through cmath.phase entry by entry, because np.angle
    rounds differently from it on some inputs.
    """
    if not _real_array(alpha):
        try:
            return each(cmath.phase, alpha)
        except OverflowError:
            # cmath.phase raises where libm's atan2 flags a subnormal angle as
            # a range error (2 + 5e-324j); math.atan2 calls the same atan2
            # without that check
            return each(lambda z: math.atan2(z.imag, z.real), alpha)
    negative = np.signbit(alpha)
    return np.where(negative, math.pi, 0.0) if negative.any() else 0.0


def _sinh_squared(x: float) -> float:
    return math.sinh(x) ** 2  # pow, not a product: the bits n_quantum has always had


def _finite(x):
    return np.isfinite(x) if isinstance(x, np.ndarray) else cmath.isfinite(x)


def check_wave(alpha, r, theta, nbar) -> None:
    """Reject a wave state that is not finite, has r or nbar < 0, or overflows a kernel.

    Takes each parameter as a scalar or as an array that broadcasts to the
    grid (see ``raise_first_failure``).
    """
    nu = (nbar + 0.5) * each(_cosh_or_inf, 2 * r)
    mag = _modulus(alpha)
    mean = mag * mag + nu - 0.5
    wave = (("alpha", alpha), ("r", r), ("theta", theta), ("nbar", nbar))

    def message(k: int) -> str:
        if k < 4:
            name, value = wave[k]
            return f"{name} must be finite, got {value}"
        if k == 4:
            return "squeezing magnitude r must be >= 0"
        if k == 5:
            return "thermal occupation nbar must be >= 0"
        if k == 6:  # the Wick and closed-form kernels square |mu| <= nu
            return f"r = {r}, nbar = {nbar} overflows cosh(2r): nu^2 must be finite"
        # the Wick kernel squares <a†a>
        return f"|alpha| = {mag} overflows: |alpha|^2 and <a†a>^2 must be finite"

    # a NaN r or nbar fails its finiteness check before the sign checks
    ok = [_finite(alpha), _finite(r), _finite(theta), _finite(nbar), r >= 0, nbar >= 0]
    raise_first_failure(ok + [_finite(nu * nu), _finite(mean * mean)], message)


class DetectorScalars(NamedTuple):
    """Normal-ordered moments of one Gaussian mode as small scalars.

    b2 = |beta|^2, ntilde = <da† da>, m = |<da^2>| and d = ntilde - m, each
    built without subtracting two large numbers.  The displacement is split
    along the principal axes of the P-function covariance: b_plus = b2 sin^2 psi
    lies on the axis of variance (ntilde + m)/2 and b_minus = b2 cos^2 psi on
    that of d/2, with psi = theta/2 - arg beta for <da^2> = -m e^{i theta}.
    Each field is a float, or an array that broadcasts to the grid.
    """

    b2: float
    ntilde: float
    m: float
    d: float
    b_plus: float
    b_minus: float

    @classmethod
    def from_phase(cls, b2: float, ntilde: float, m: float, d: float, psi: float):
        """The scalars with b2 split along the half-angle psi."""
        sp, cp = each(math.sin, psi), each(math.cos, psi)
        return cls(b2, ntilde, m, d, b2 * (sp * sp), b2 * (cp * cp))

    @property
    def mean_n(self) -> float:
        """<n> = b2 + ntilde."""
        return self.b2 + self.ntilde

    @property
    def e1(self) -> float:
        """b2 ntilde + Re(<da^2> beta*^2) = b2 (d + 2 m sin^2 psi)."""
        return self.b2 * self.d + 2.0 * self.m * self.b_plus

    @property
    def excess(self) -> float:
        """Wick excess <:(Delta n)^2:> = <a†^2 a^2> - <n>^2 = 2 e1 + ntilde^2 + m^2."""
        return 2.0 * self.e1 + self.ntilde * self.ntilde + self.m * self.m


def _n_quantum(r, nbar):
    # cosh(2r) - 1 = 2 sinh^2 r avoids cancellation at small r
    return nbar * each(math.cosh, 2 * r) + each(_sinh_squared, r)


def detector_scalars(alpha, r, theta, nbar, gain=1.0, added=0.0) -> DetectorScalars:
    """Scalars of a mode fed by a wave at power gain ``gain``, plus ``added`` thermal quanta.

    gain = sin^2 gamma_t is the detector after exchange evolution, gain = 1
    the wave mode itself.  d = gain (nbar e^{-2r} + expm1(-2r)/2) + added
    needs no difference of the e^{2r}-sized ntilde and m.  Takes each
    parameter of a checked state (``check_wave``) as a scalar or as an array
    that broadcasts to the grid, so a quantity of one axis is evaluated once
    per axis value.
    """
    mag = _modulus(alpha)
    b2 = gain * (mag * mag)
    m = gain * ((nbar + 0.5) * each(math.sinh, 2 * r))
    d = gain * (nbar * each(math.exp, -2 * r) + 0.5 * each(math.expm1, -2 * r)) + added
    psi = 0.5 * theta - _phase(alpha)
    return DetectorScalars.from_phase(b2, gain * _n_quantum(r, nbar) + added, m, d, psi)


@dataclass(frozen=True)
class GwSignalParams:
    """Displaced squeezed thermal parameters (alpha, xi = r e^{i theta}, nbar)."""

    alpha: complex = 0.0
    r: float = 0.0
    theta: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        check_wave(self.alpha, self.r, self.theta, self.nbar)
        object.__setattr__(self, "alpha", complex(self.alpha))

    def central_moments(self) -> tuple[complex, float, float]:
        """(mu, ntilde, nu): <da^2>, <da† da> and <{da, da†}>/2 of the wave state.

        mu = -(nbar + 1/2) sinh(2r) e^{i theta}, ntilde = n_quantum and
        nu = (nbar + 1/2) cosh(2r), from scalars (no covariance detour).
        """
        mu = -(self.nbar + 0.5) * math.sinh(2 * self.r) * np.exp(1j * self.theta)
        return mu, self.n_quantum, (self.nbar + 0.5) * math.cosh(2 * self.r)

    def detector_scalars(self, gain: float = 1.0, added: float = 0.0) -> DetectorScalars:
        """``detector_scalars`` of this wave."""
        return detector_scalars(self.alpha, self.r, self.theta, self.nbar, gain, added)

    @property
    def mean_occupation(self) -> float:
        """<a†a> = |alpha|^2 + (nbar + 1/2) cosh(2r) - 1/2."""
        return abs(self.alpha) ** 2 + (self.nbar + 0.5) * math.cosh(2 * self.r) - 0.5

    @property
    def n_quantum(self) -> float:
        """Non-coherent occupation (nbar + 1/2) cosh(2r) - 1/2, >= 0."""
        return _n_quantum(self.r, self.nbar)


def make_vacuum(n_modes: int) -> GaussianState:
    """N-mode vacuum: cov = I/2, zero displacement."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(n_modes, 0.5 * np.eye(2 * n_modes), np.zeros(2 * n_modes))


def squeeze_rotation(theta: float) -> NDArray[np.float64]:
    """Reflection-like matrix R_theta appearing in the squeezing transform."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def make_gw_state(p: GwSignalParams) -> GaussianState:
    """Single-mode displaced squeezed thermal state.

    cov = F sigma_nbar F^T with F = cosh(r) I - sinh(r) R_theta and
    sigma_nbar = (nbar + 1/2) I; disp = sqrt(2) (Re alpha, Im alpha).
    """
    f = math.cosh(p.r) * np.eye(2) - math.sinh(p.r) * squeeze_rotation(p.theta)
    cov = (p.nbar + 0.5) * (f @ f.T)
    disp = math.sqrt(2.0) * np.array([p.alpha.real, p.alpha.imag])
    return GaussianState(1, cov, disp)


def to_ladder(state: GaussianState) -> LadderMoments:
    """Ladder-basis moments: sigma = M cov M^T, abar = M disp.

    The transpose (rather than conjugate-transpose) congruence is what
    reproduces the anticommutator definition <{da_i, da_j}>/2 and keeps
    sigma complex symmetric.
    """
    m = ladder_transform(state.num_modes)
    sigma = m @ state.cov @ m.T
    sigma = (sigma + sigma.T) / 2.0
    return LadderMoments(state.num_modes, sigma, m @ state.disp.astype(complex))


def apply_symplectic(state: GaussianState, m: SymplecticMap) -> GaussianState:
    """Evolve: cov -> S cov S^T, disp -> S disp."""
    if m.num_modes != state.num_modes:
        raise ValueError(
            f"mode mismatch: map has {m.num_modes}, state has {state.num_modes}"
        )
    s = m.matrix
    cov = s @ state.cov @ s.T
    cov = (cov + cov.T) / 2.0
    return GaussianState(state.num_modes, cov, s @ state.disp)


def tensor(*states: GaussianState) -> GaussianState:
    """Product state of the given factors, modes concatenated in order."""
    n = sum(s.num_modes for s in states)
    cov = np.zeros((2 * n, 2 * n))
    disp = np.zeros(2 * n)
    k = 0
    for s in states:
        d = 2 * s.num_modes
        cov[k : k + d, k : k + d] = s.cov
        disp[k : k + d] = s.disp
        k += d
    return GaussianState(n, cov, disp)


def reduce_modes(state: GaussianState, keep: list[int]) -> GaussianState:
    """Reduced state on the listed modes (principal submatrix of cov)."""
    if not keep:
        raise ValueError("keep must name at least one mode")
    if any(k < 0 or k >= state.num_modes for k in keep):
        raise ValueError(f"mode index out of range for {state.num_modes}-mode state")
    idx = np.concatenate([[2 * k, 2 * k + 1] for k in keep]).astype(int)
    return GaussianState(len(keep), state.cov[np.ix_(idx, idx)], state.disp[idx])
