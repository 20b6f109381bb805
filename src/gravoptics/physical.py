"""Physical-units layer: coupling strength, graviton flux, noise thresholds.

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
class DetectorConfig:
    """Bulk-resonator geometry and operating point."""

    mass: float  # kg
    length: float  # m
    omega_ell: float  # rad/s
    ell: int = 1  # odd acoustic mode index
    gw_volume: float = 1.0  # m^3, characteristic wave volume
    quality_factor: float = 1.0e6
    temperature: float = 0.0  # K

    def __post_init__(self):
        if self.ell % 2 == 0 or self.ell <= 0:
            raise ValueError("acoustic mode index ell must be an odd positive integer")
        for name in ("mass", "length", "omega_ell", "gw_volume", "quality_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


def coupling_gamma(cfg: DetectorConfig, nu: float) -> float:
    """Graviton-phonon coupling sqrt(8 pi G M nu^3 L^3 / (omega_ell c^2 V pi^4 ell^4)).

    The sign factor (-1)^(ell-1) is +1 for the odd mode indices accepted by
    DetectorConfig, so the radicand is positive.
    """
    if nu <= 0:
        raise ValueError("nu must be > 0")
    radicand = (
        8.0
        * math.pi
        * G
        * cfg.mass
        * nu**3
        * cfg.length**3
        / (cfg.omega_ell * C**2 * cfg.gw_volume * math.pi**4 * cfg.ell**4)
    )
    return math.sqrt(radicand)


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


@dataclass(frozen=True)
class NoiseThresholdReport:
    """Heating-rate and initial-occupation thresholds and whether the signal beats each."""

    gamma_th: float  # k_B T / (hbar Q), 1/s
    n_th: float  # bath occupation k_B T / (hbar omega_ell)
    heating_ok: bool  # Gamma_th t < n_grav (gamma_g t)^2
    occupation_ok: bool  # n_th < n_grav (gamma_g t)^2


def noise_thresholds(
    cfg: DetectorConfig, nu: float, gamma_t: float, n_grav: float
) -> NoiseThresholdReport:
    """Evaluate Gamma_th t < n_grav (gamma_t)^2 and n_th < n_grav (gamma_t)^2.

    Gamma_th = kappa nbar_env with kappa = omega_ell / Q and the
    high-temperature bath occupation nbar_env ~ k_B T / (hbar omega_ell),
    collapsing to Gamma_th = k_B T / (hbar Q).
    """
    gamma = coupling_gamma(cfg, nu)
    t = gamma_t / gamma
    gamma_th = K_B * cfg.temperature / (HBAR * cfg.quality_factor)
    n_th = K_B * cfg.temperature / (HBAR * cfg.omega_ell)
    signal = n_grav * gamma_t * gamma_t
    return NoiseThresholdReport(
        gamma_th=gamma_th,
        n_th=n_th,
        heating_ok=bool(gamma_th * t < signal),
        occupation_ok=bool(n_th < signal),
    )
