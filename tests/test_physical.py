import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gravoptics.physical import C, G, HBAR, T_PLANCK, Detector, graviton_flux
from gravoptics.states import GwSignalParams

BAR = Detector(mass=1800.0, length=3.0, omega_ell=5600.0, ell=1, gw_volume=1.0e9)


def at_gamma_t(detector: Detector, nu: float, gamma_t: float) -> Detector:
    """The detector driven at nu for the time t = gamma_t / gamma_g."""
    driven = replace(detector, nu=nu)
    return replace(driven, t=gamma_t / driven.gamma_g)


def test_constants_consistency():
    expect = math.sqrt(HBAR * G / C**5)
    assert abs(T_PLANCK - expect) < 1e-12 * expect


def test_coupling_scalings():
    nu = 2.0 * math.pi * 100.0
    base = replace(BAR, nu=nu).gamma_g
    assert base > 0.0 and math.isfinite(base)
    assert abs(replace(BAR, nu=2.0 * nu).gamma_g / base - 2.0**1.5) < 1e-12
    assert abs(replace(BAR, nu=nu, ell=3).gamma_g / base - 1.0 / 9.0) < 1e-12
    # nu defaults to resonance, and the exchange angle is gamma_g t
    assert BAR.nu == BAR.omega_ell and BAR.gamma_t == 0.0
    assert replace(BAR, nu=nu, t=2.0).gamma_t == base * 2.0


def test_even_mode_index_rejected():
    with pytest.raises(ValueError, match="^ell: "):
        Detector(mass=1.0, length=1.0, omega_ell=1.0, ell=2)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("mass", 0.0),
        ("length", -3.0),
        ("omega_ell", 0.0),
        ("gw_volume", -1.0),
        ("quality_factor", 0.0),
        ("nu", 0.0),
        ("temperature", -0.01),
        ("t", -1.0),
        ("ell", 2),
        ("ell", -1),  # odd, but not positive
    ],
)
def test_range_rule_names_its_field(field, value):
    with pytest.raises(ValueError, match=f"^{field}: "):
        replace(BAR, **{field: value})


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
    cold = Detector(mass=1800.0, length=3.0, omega_ell=5600.0, gw_volume=1e9, temperature=0.0)
    assert at_gamma_t(cold, 628.0, 1e-2).beats_noise(n_grav=1e4) == (True, True)
    assert cold.gamma_th == cold.n_th == 0.0

    warm = Detector(
        mass=1800.0,
        length=3.0,
        omega_ell=5600.0,
        gw_volume=1e9,
        temperature=0.05,
        quality_factor=1e7,
    )
    warm_q10 = replace(warm, quality_factor=1e8)
    assert abs(warm.gamma_th / warm_q10.gamma_th - 10.0) < 1e-9


def test_noise_threshold_margin_example():
    # engineered point: n_grav (gt)^2 = 1 with Gamma_th t = 0.1 -> margin 10
    base = Detector(mass=1800.0, length=3.0, omega_ell=5600.0, gw_volume=1e9, temperature=1.0)
    nu, gamma_t = 628.0, 1e-2
    t = at_gamma_t(base, nu, gamma_t).t
    # choose Q so Gamma_th * t = 0.1
    q_needed = base.gamma_th * t * base.quality_factor / 0.1
    tuned = at_gamma_t(replace(base, quality_factor=q_needed), nu, gamma_t)
    assert tuned.t == t
    heating_ok, _ = tuned.beats_noise(n_grav=1.0 / gamma_t**2)
    assert heating_ok
    assert abs(tuned.gamma_th * t - 0.1) < 1e-9
    # the signal 1 beats Gamma_th t = 0.1 by a margin of 10, and a signal of 0.09 does not
    heating_ok, _ = tuned.beats_noise(n_grav=0.09 / gamma_t**2)
    assert not heating_ok
