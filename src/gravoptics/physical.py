"""Physical-units layer: the detector (coupling, gamma_t, noise thresholds) and graviton flux.

SI units throughout; angular frequencies in rad/s.  The dimensionless products
(gamma_g t, n_grav (gamma_g t)^2) feed the dimensionless kernels elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# CODATA values; t_planck = sqrt(hbar G / c^5) is derived from them
G = 6.67430e-11
C = 299792458.0
HBAR = 1.054571817e-34
K_B = 1.380649e-23
T_PLANCK = math.sqrt(HBAR * G / C**5)


@dataclass(frozen=True)
class Detector:
    """A bulk resonator driven at wave frequency nu for a time t.

    Every number that decides the exchange angle gamma_t = gamma_g t and the
    noise thresholds of a physical detector lives here, and each range rule
    is checked once, by ``__post_init__``: its ValueError starts with the
    name of the field.
    """

    mass: float  # kg
    length: float  # m
    omega_ell: float  # rad/s
    ell: int = 1  # odd acoustic mode index
    gw_volume: float = 1.0  # m^3, characteristic wave volume
    quality_factor: float = 1.0e6
    temperature: float = 0.0  # K
    nu: float | None = None  # rad/s, the wave frequency; omega_ell when None
    t: float = 0.0  # s, the exchange time

    def __post_init__(self):
        if self.nu is None:
            object.__setattr__(self, "nu", self.omega_ell)
        for name in ("mass", "length", "omega_ell", "gw_volume", "quality_factor", "nu"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be > 0, got {getattr(self, name)!r}")
        for name in ("temperature", "t"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)!r}")
        if not (self.ell > 0 and self.ell % 2 == 1):
            raise ValueError(f"ell: must be an odd positive integer, got {self.ell!r}")

    @property
    def gamma_g(self) -> float:
        """Graviton-phonon coupling sqrt(8 pi G M nu^3 L^3 / (omega_ell c^2 V pi^4 ell^4)), 1/s.

        The sign factor (-1)^(ell-1) is +1 for an odd ell, so the radicand is
        positive.
        """
        radicand = (
            8.0
            * math.pi
            * G
            * self.mass
            * self.nu**3
            * self.length**3
            / (self.omega_ell * C**2 * self.gw_volume * math.pi**4 * self.ell**4)
        )
        return math.sqrt(radicand)

    @property
    def gamma_t(self) -> float:
        """The exchange angle gamma_g t that every kernel reads for this detector."""
        return self.gamma_g * self.t

    @property
    def gamma_th(self) -> float:
        """Heating rate Gamma_th = kappa nbar_env = k_B T / (hbar Q), 1/s.

        kappa = omega_ell / Q and the high-temperature bath occupation
        nbar_env ~ k_B T / (hbar omega_ell).
        """
        return K_B * self.temperature / (HBAR * self.quality_factor)

    @property
    def n_th(self) -> float:
        """Initial bath occupation k_B T / (hbar omega_ell)."""
        return K_B * self.temperature / (HBAR * self.omega_ell)

    def beats_noise(self, n_grav: float) -> tuple[bool, bool]:
        """(Gamma_th t < n_grav gamma_t^2, n_th < n_grav gamma_t^2): heating and occupation."""
        gamma_t = self.gamma_t
        signal = n_grav * gamma_t * gamma_t
        return bool(self.gamma_th * self.t < signal), bool(self.n_th < signal)


def graviton_flux(h_strain: float, nu: float) -> float:
    """Mean graviton number n_grav = h^2 / (32 pi nu^2 t_planck^2).

    nu is the angular frequency: the h = 1e-22, nu = 2 pi x 100 Hz landmark
    then comes out at ~1e35 as quoted.
    """
    if h_strain <= 0:
        raise ValueError("strain must be > 0")
    if nu <= 0:
        raise ValueError("nu must be > 0")
    return h_strain**2 / (32.0 * math.pi * nu**2 * T_PLANCK**2)
