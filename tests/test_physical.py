import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravoptics.physical import (
    CONSTANTS,
    DetectorConfig,
    PhysicalConstants,
    coupling_gamma,
    graviton_flux,
    noise_thresholds,
)
from gravoptics.states import GwSignalParams

BAR = DetectorConfig(mass=1800.0, length=3.0, omega_ell=5600.0, ell=1, gw_volume=1.0e9)


def test_constants_consistency():
    expect = math.sqrt(CONSTANTS.hbar * CONSTANTS.G / CONSTANTS.c**5)
    assert abs(CONSTANTS.t_planck - expect) < 1e-12 * expect
    PhysicalConstants(t_planck=expect)  # explicit consistent value accepted
    with pytest.raises(ValueError):
        PhysicalConstants(t_planck=1.1 * expect)


def test_coupling_scalings():
    nu = 2.0 * math.pi * 100.0
    base = coupling_gamma(BAR, nu)
    assert base > 0.0 and math.isfinite(base)
    assert abs(coupling_gamma(BAR, 2.0 * nu) / base - 2.0**1.5) < 1e-12
    heavier_mode = DetectorConfig(
        mass=BAR.mass, length=BAR.length, omega_ell=BAR.omega_ell, ell=3, gw_volume=BAR.gw_volume
    )
    assert abs(coupling_gamma(heavier_mode, nu) / base - 1.0 / 9.0) < 1e-12


def test_even_mode_index_rejected():
    with pytest.raises(ValueError):
        DetectorConfig(mass=1.0, length=1.0, omega_ell=1.0, ell=2)


def test_flux_landmark():
    n_grav = graviton_flux(1e-22, 2.0 * math.pi * 100.0)
    assert 5e34 <= n_grav <= 2e35


@given(st.floats(1e-24, 1e-18), st.floats(10.0, 1e5))
def test_flux_scalings(h, nu):
    base = graviton_flux(h, nu)
    assert abs(graviton_flux(2.0 * h, nu) / base - 4.0) < 1e-12
    assert abs(graviton_flux(h, 2.0 * nu) / base - 0.25) < 1e-12


def test_nq_decomposition():
    coherent = GwSignalParams(alpha=1.5)
    assert coherent.n_quantum == 0.0 and abs(coherent.mean_occupation - 2.25) < 1e-14
    undisplaced = GwSignalParams(r=0.5, nbar=0.3)
    assert undisplaced.n_quantum > 0.0
    assert abs(undisplaced.n_quantum / undisplaced.mean_occupation - 1.0) < 1e-14


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_nq_nonnegative_and_squeezed_consistency(r, nbar):
    n_q = GwSignalParams(alpha=0.3, r=r, nbar=nbar).n_quantum
    assert n_q >= 0.0
    if nbar == 0.0:
        assert abs(n_q - math.sinh(r) ** 2) < 1e-9 * max(1.0, n_q)


def test_noise_thresholds():
    cold = DetectorConfig(
        mass=1800.0, length=3.0, omega_ell=5600.0, gw_volume=1e9, temperature=0.0
    )
    rep = noise_thresholds(cold, 628.0, gamma_t=1e-2, n_grav=1e4)
    assert rep.heating_ok and rep.occupation_ok
    assert rep.heating_margin == math.inf

    warm = DetectorConfig(
        mass=1800.0,
        length=3.0,
        omega_ell=5600.0,
        gw_volume=1e9,
        temperature=0.05,
        quality_factor=1e7,
    )
    warm_q10 = DetectorConfig(
        mass=1800.0,
        length=3.0,
        omega_ell=5600.0,
        gw_volume=1e9,
        temperature=0.05,
        quality_factor=1e8,
    )
    rep1 = noise_thresholds(warm, 628.0, 1e-2, 1e4)
    rep2 = noise_thresholds(warm_q10, 628.0, 1e-2, 1e4)
    assert abs(rep2.heating_margin / rep1.heating_margin - 10.0) < 1e-9


def test_noise_threshold_margin_example():
    # engineered point: n_grav (gt)^2 = 1 with Gamma_th t = 0.1 -> margin 10
    cfg = DetectorConfig(mass=1800.0, length=3.0, omega_ell=5600.0, gw_volume=1e9, temperature=1.0)
    nu = 628.0
    gamma = coupling_gamma(cfg, nu)
    gamma_t = 1e-2
    t = gamma_t / gamma
    gamma_th = CONSTANTS.k_B * cfg.temperature / (CONSTANTS.hbar * cfg.quality_factor)
    # choose Q so Gamma_th * t = 0.1
    q_needed = gamma_th * t * cfg.quality_factor / 0.1
    tuned = DetectorConfig(
        mass=1800.0,
        length=3.0,
        omega_ell=5600.0,
        gw_volume=1e9,
        temperature=1.0,
        quality_factor=q_needed,
    )
    rep = noise_thresholds(tuned, nu, gamma_t, n_grav=1.0 / gamma_t**2)
    assert rep.heating_ok
    assert abs(rep.heating_lhs - 0.1) < 1e-9
    assert abs(rep.heating_margin - 10.0) < 1e-6
