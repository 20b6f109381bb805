import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravoptics import fock
from gravoptics.correlations import g2_ideal
from gravoptics.states import GwSignalParams
from gravoptics.tomography import (
    LocalOscillator,
    classical_lo_noise,
    delta_g2_terms,
    quadrature_number_correlation,
    quadrature_variance_normal,
    reconstruct_gaussian,
    separate_terms_by_beta,
    simulate_phase_sweep,
    snr_quadrature,
)

params = st.builds(
    GwSignalParams,
    alpha=st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi),
    nbar=st.floats(0.0, 2.0),
)


def test_quadrature_variance_examples():
    for phi in (0.0, 0.7, 2.0):
        assert quadrature_variance_normal(GwSignalParams(alpha=1.0), phi) == 0.0
    assert abs(quadrature_variance_normal(GwSignalParams(nbar=0.8), 1.3) - 0.8) < 1e-15
    got = quadrature_variance_normal(GwSignalParams(r=1.0), 0.0)
    assert abs(got - 0.5 * math.expm1(-2.0)) < 1e-15
    assert got < 0.0


@given(params, st.floats(0.0, 2 * math.pi))
def test_quadrature_variance_floor(p, phi):
    assert quadrature_variance_normal(p, phi) >= -0.5 - 1e-12


def test_quadrature_number_correlation_examples():
    for phi in (0.0, 1.1):
        assert quadrature_number_correlation(GwSignalParams(r=0.7, nbar=0.9), phi) == 0.0
        assert quadrature_number_correlation(GwSignalParams(alpha=1.2), phi) == 0.0
    got = quadrature_number_correlation(GwSignalParams(alpha=1.3, nbar=0.7), 0.0)
    assert abs(got - math.sqrt(2.0) * 1.3 * 0.7) < 1e-14


def test_quadrature_number_correlation_vs_oracle():
    p = GwSignalParams(alpha=complex(0.6, 0.8), r=0.7, theta=1.3, nbar=0.2)
    for phi in (0.0, 0.9, 2.4):
        m_aaa = fock.oracle_normal_moment(p, 1, 2, tail_tol=1e-11)
        m_ada = fock.oracle_normal_moment(p, 2, 1, tail_tol=1e-11)
        m_n = fock.oracle_normal_moment(p, 1, 1, tail_tol=1e-11).real
        m_a = fock.oracle_normal_moment(p, 0, 1, tail_tol=1e-11)
        h = (np.exp(-1j * phi) * m_a + np.exp(1j * phi) * np.conj(m_a)).real / math.sqrt(2)
        oracle = (
            (np.exp(-1j * phi) * m_aaa + np.exp(1j * phi) * m_ada) / math.sqrt(2)
        ).real - h * m_n
        assert abs(quadrature_number_correlation(p, phi) - oracle) < 1e-9


def test_beta_zero_leaves_only_dg0():
    p = GwSignalParams(alpha=1.0, r=0.5, nbar=0.2)
    gt = 0.4
    terms = delta_g2_terms(p, LocalOscillator(0.0, 0.7), gt)
    assert terms.dG1 == 0.0 and terms.dG2 == 0.0 and terms.dG4_noise == 0.0
    assert terms.total == terms.dG0
    # dG0 is the unnormalized g2 numerator: sin^4 <n>^2 (g2 - 1)
    rep = g2_ideal(p)
    expect = math.sin(gt) ** 4 * rep.mean_n**2 * (rep.g2 - 1.0)
    assert abs(terms.dG0 - expect) < 1e-12


def test_large_squeezing_limits():
    r, gt, beta, amag = 5.0, 0.01, 2.0, 1.5
    p = GwSignalParams(alpha=amag * np.exp(1j * math.pi / 4.0), r=r)
    for phi in (0.4, 1.0, 2.1):
        terms = delta_g2_terms(p, LocalOscillator(beta, phi), gt)
        lim1 = 0.5 * beta * math.sin(gt) ** 3 * math.cos(phi) * amag * math.exp(2 * r)
        lim2 = 0.5 * beta**2 * math.sin(gt) ** 2 * math.sin(phi) ** 2 * math.exp(2 * r)
        assert abs(terms.dG1 / lim1 - 1.0) < 1e-3
        assert abs(terms.dG2 / lim2 - 1.0) < 1e-3


@given(params, st.floats(0.0, 2 * math.pi), st.floats(0.05, 1.4), st.floats(0.1, 3.0))
@settings(max_examples=40)
def test_periodicity_separation(p, phi, gt, beta):
    t0 = delta_g2_terms(p, LocalOscillator(beta, phi), gt)
    t1 = delta_g2_terms(p, LocalOscillator(beta, phi + math.pi), gt)
    assert abs(t1.dG2 - t0.dG2) < 1e-10 * max(1.0, abs(t0.dG2))
    assert abs(t1.dG1 + t0.dG1) < 1e-10 * max(1.0, abs(t0.dG1))


def test_beta_power_scaling():
    p = GwSignalParams(alpha=0.8, r=0.6, theta=0.3, nbar=0.1)
    gt, phi = 0.5, 0.9
    t1 = delta_g2_terms(p, LocalOscillator(1.3, phi, epsilon=1e-4), gt)
    t2 = delta_g2_terms(p, LocalOscillator(2.6, phi, epsilon=1e-4), gt)
    assert abs(t2.dG0 - t1.dG0) < 1e-14
    assert abs(t2.dG1 - 2.0 * t1.dG1) < 1e-12
    assert abs(t2.dG2 - 4.0 * t1.dG2) < 1e-12
    assert abs(t2.dG4_noise - 16.0 * t1.dG4_noise) < 1e-12


def test_classical_lo_noise_examples():
    assert classical_lo_noise(LocalOscillator(10.0, 0.0, epsilon=0.0), 0.2) == 0.0
    got = classical_lo_noise(LocalOscillator(10.0, 0.0, epsilon=1e-4), 1e-3)
    assert abs(got - 4.0) < 1e-4
    assert classical_lo_noise(LocalOscillator(10.0, 0.0, epsilon=1e-4), math.pi / 2) < 1e-60


def test_lo_epsilon_warning():
    with pytest.warns(UserWarning):
        LocalOscillator(1.0, 0.0, epsilon=0.5)


def test_snr_examples():
    p = GwSignalParams(nbar=1.0)
    gt, phi, eps = 0.6, 0.3, 0.01
    matched = math.sqrt(math.sin(gt) ** 2 * quadrature_variance_normal(p, phi))
    got = snr_quadrature(p, LocalOscillator(matched, phi, epsilon=eps), gt)
    assert abs(got - 25.0) < 1e-9
    double = snr_quadrature(p, LocalOscillator(2.0 * matched, phi, epsilon=eps), gt)
    assert abs(double - 25.0 / 4.0) < 1e-9
    assert snr_quadrature(p, LocalOscillator(matched, phi, epsilon=0.0), gt) == math.inf


def test_separate_terms_round_trip():
    p = GwSignalParams(alpha=1.0, r=0.5, theta=0.7, nbar=0.2)
    gt, phi, eps = 0.4, 0.8, 1e-4
    betas = [0.5, 1.0, 1.5, 2.2, 3.0, 4.0]
    sweep = [
        (b, delta_g2_terms(p, LocalOscillator(b, phi, epsilon=eps), gt).total) for b in betas
    ]
    coeffs = separate_terms_by_beta(sweep)
    unit = delta_g2_terms(p, LocalOscillator(1.0, phi, epsilon=eps), gt)
    assert abs(coeffs[0] - unit.dG0) < 1e-9
    assert abs(coeffs[1] - unit.dG1) < 1e-9
    assert abs(coeffs[2] - unit.dG2) < 1e-9
    assert abs(coeffs[3]) < 1e-9
    assert abs(coeffs[4] - classical_lo_noise(LocalOscillator(1.0, phi, epsilon=eps), gt)) < 1e-9

    vac = [(b, delta_g2_terms(GwSignalParams(), LocalOscillator(b, phi), gt).total) for b in betas]
    assert np.max(np.abs(separate_terms_by_beta(vac))) < 1e-12
    with pytest.raises(ValueError):
        separate_terms_by_beta([(1.0, 0.0)] * 6)


def test_reconstruction_round_trip():
    true = GwSignalParams(alpha=1.0, r=0.5, theta=0.7, nbar=0.2)
    gt, beta = 0.3, 1.7
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    sweep = simulate_phase_sweep(true, beta, gt, phis)
    dg0 = delta_g2_terms(true, LocalOscillator(beta, 0.0), gt).dG0
    rec = reconstruct_gaussian(sweep, gt, beta, dg0)
    assert abs(rec.alpha_mag - 1.0) < 1e-6
    assert abs(rec.r - 0.5) < 1e-6
    assert abs(rec.theta - 0.7) < 1e-6
    assert abs(rec.nbar - 0.2) < 1e-6
    assert rec.residual < 1e-10
    assert rec.theta_identifiable and rec.alpha_identifiable


def test_reconstruction_coherent_flags():
    phis = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    sweep = simulate_phase_sweep(GwSignalParams(alpha=1.2), 1.5, 0.3, phis)
    rec = reconstruct_gaussian(sweep, 0.3, 1.5, 0.0)
    assert rec.r == 0.0 and rec.nbar == 0.0
    assert not rec.theta_identifiable
    assert not rec.alpha_identifiable


def test_reconstruction_with_noise_degrades_smoothly():
    true = GwSignalParams(alpha=1.0, r=0.5, theta=0.7, nbar=0.2)
    gt, beta = 0.3, 1.7
    phis = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    rng = np.random.default_rng(7)
    sweep = simulate_phase_sweep(true, beta, gt, phis, epsilon=1e-3, rng=rng)
    dg0 = delta_g2_terms(true, LocalOscillator(beta, 0.0), gt).dG0
    rec = reconstruct_gaussian(sweep, gt, beta, dg0)
    assert abs(rec.r - 0.5) < 0.1
    assert abs(rec.alpha_mag - 1.0) < 0.1
    assert 0.0 < rec.residual < 0.5


def test_reconstruction_needs_enough_phases():
    with pytest.raises(ValueError):
        reconstruct_gaussian([(0.0, 0.0, 0.0)] * 7, 0.3, 1.0, 0.0)


def test_assembled_total_super_poissonian_at_large_squeezing():
    # large-r displaced squeezed: dG0 dominates and the assembled total stays
    # nonnegative even where dG1 is most negative
    p = GwSignalParams(alpha=1.5 * np.exp(1j * math.pi / 4.0), r=3.0)
    gt = 0.05
    for phi in np.linspace(0.0, 2.0 * math.pi, 24):
        terms = delta_g2_terms(p, LocalOscillator(2.0, phi), gt)
        assert terms.total >= 0.0
