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
    """Real symplectic matrix with an optional phase-space displacement."""

    matrix: NDArray[np.float64]
    displacement: NDArray[np.float64] | None = None

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError("symplectic matrix must be 2N x 2N")
        omega = symplectic_form(s.shape[0] // 2)
        defect = np.max(np.abs(s @ omega @ s.T - omega))
        if defect > SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic: defect {defect:.3e}")
        disp = self.displacement
        disp = np.zeros(s.shape[0]) if disp is None else np.asarray(disp, dtype=float)
        if disp.shape != (s.shape[0],):
            raise ValueError("displacement length must match matrix dimension")
        object.__setattr__(self, "matrix", s)
        object.__setattr__(self, "displacement", disp)

    @property
    def num_modes(self) -> int:
        return self.matrix.shape[0] // 2


class DetectorScalars(NamedTuple):
    """Normal-ordered moments of one Gaussian mode as small scalars.

    b2 = |beta|^2, ntilde = <da† da>, m = |<da^2>| and d = ntilde - m, each
    built without subtracting two large numbers.  The displacement is split
    along the principal axes of the P-function covariance: b_plus = b2 sin^2 psi
    lies on the axis of variance (ntilde + m)/2 and b_minus = b2 cos^2 psi on
    that of d/2, with psi = theta/2 - arg beta for <da^2> = -m e^{i theta}.
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
        sp, cp = math.sin(psi), math.cos(psi)
        return cls(b2, ntilde, m, d, b2 * (sp * sp), b2 * (cp * cp))

    @property
    def e1(self) -> float:
        """b2 ntilde + Re(<da^2> beta*^2) = b2 (d + 2 m sin^2 psi)."""
        return self.b2 * self.d + 2.0 * self.m * self.b_plus

    @property
    def excess(self) -> float:
        """Wick excess <:(Delta n)^2:> = <a†^2 a^2> - <n>^2 = 2 e1 + ntilde^2 + m^2."""
        return 2.0 * self.e1 + self.ntilde * self.ntilde + self.m * self.m


@dataclass(frozen=True)
class GwSignalParams:
    """Displaced squeezed thermal parameters (alpha, xi = r e^{i theta}, nbar)."""

    alpha: complex = 0.0
    r: float = 0.0
    theta: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        params = (("alpha", self.alpha), ("r", self.r), ("theta", self.theta), ("nbar", self.nbar))
        for name, value in params:
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.r < 0:
            raise ValueError("squeezing magnitude r must be >= 0")
        if self.nbar < 0:
            raise ValueError("thermal occupation nbar must be >= 0")
        try:
            nu = (self.nbar + 0.5) * math.cosh(2 * self.r)
        except OverflowError:
            nu = math.inf
        if not math.isfinite(nu * nu):  # the Wick and closed-form kernels square |mu| <= nu
            raise ValueError(
                f"r = {self.r}, nbar = {self.nbar} overflows cosh(2r): nu^2 must be finite"
            )
        mag = abs(complex(self.alpha))
        mean = mag * mag + float(nu) - 0.5  # Python float products overflow to inf, never raise
        if not math.isfinite(mean * mean):  # the Wick kernel squares <a†a>
            raise ValueError(
                f"|alpha| = {mag} overflows: |alpha|^2 and <a†a>^2 must be finite"
            )
        object.__setattr__(self, "alpha", complex(self.alpha))

    def central_moments(self) -> tuple[complex, float, float]:
        """(mu, ntilde, nu): <da^2>, <da† da> and <{da, da†}>/2 of the wave state.

        mu = -(nbar + 1/2) sinh(2r) e^{i theta}, ntilde = n_quantum and
        nu = (nbar + 1/2) cosh(2r), from scalars (no covariance detour).
        """
        mu = -(self.nbar + 0.5) * math.sinh(2 * self.r) * np.exp(1j * self.theta)
        return mu, self.n_quantum, (self.nbar + 0.5) * math.cosh(2 * self.r)

    def detector_scalars(self, gain: float = 1.0, added: float = 0.0) -> DetectorScalars:
        """Scalars of a mode fed by this wave at power gain ``gain``, plus ``added`` thermal quanta.

        gain = sin^2 gamma_t is the detector after exchange evolution, gain = 1
        the wave mode itself.  d = gain (nbar e^{-2r} + expm1(-2r)/2) + added
        needs no difference of the e^{2r}-sized ntilde and m.
        """
        mag = abs(self.alpha)
        b2 = gain * (mag * mag)
        m = gain * ((self.nbar + 0.5) * math.sinh(2 * self.r))
        d = gain * (self.nbar * math.exp(-2 * self.r) + 0.5 * math.expm1(-2 * self.r)) + added
        psi = 0.5 * self.theta - cmath.phase(self.alpha)
        return DetectorScalars.from_phase(b2, gain * self.n_quantum + added, m, d, psi)

    @property
    def mean_occupation(self) -> float:
        """<a†a> = |alpha|^2 + (nbar + 1/2) cosh(2r) - 1/2."""
        return abs(self.alpha) ** 2 + (self.nbar + 0.5) * math.cosh(2 * self.r) - 0.5

    @property
    def n_quantum(self) -> float:
        """Non-coherent occupation (nbar + 1/2) cosh(2r) - 1/2, >= 0."""
        # cosh(2r) - 1 = 2 sinh^2 r avoids cancellation at small r
        return self.nbar * math.cosh(2 * self.r) + math.sinh(self.r) ** 2


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


def from_ladder(moments: LadderMoments) -> GaussianState:
    """Inverse of :func:`to_ladder` (imaginary residue must be roundoff)."""
    m = ladder_transform(moments.num_modes)
    minv = m.conj().T  # M is unitary
    cov = minv @ moments.sigma @ minv.T
    disp = minv @ moments.abar
    if np.max(np.abs(cov.imag)) > 1e-10 or np.max(np.abs(disp.imag)) > 1e-10:
        raise ValueError("ladder moments do not describe a real quadrature state")
    return GaussianState(moments.num_modes, cov.real, disp.real)


def apply_symplectic(state: GaussianState, m: SymplecticMap) -> GaussianState:
    """Evolve: cov -> S cov S^T, disp -> S disp + m.displacement."""
    if m.num_modes != state.num_modes:
        raise ValueError(
            f"mode mismatch: map has {m.num_modes}, state has {state.num_modes}"
        )
    s = m.matrix
    cov = s @ state.cov @ s.T
    cov = (cov + cov.T) / 2.0
    return GaussianState(state.num_modes, cov, s @ state.disp + m.displacement)


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
