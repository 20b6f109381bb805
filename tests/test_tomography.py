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
    with pytest.warns(UserWarning) as record:
        LocalOscillator(1.0, 0.0, epsilon=0.5)
    # the warning names the line that built the oscillator, not the generated __init__
    assert record[0].filename == __file__


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


def test_separate_terms_rejects_a_non_finite_beta():
    # a NaN never equals itself, so it must not count as a distinct beta
    sweep = [(b, 0.0) for b in (0.5, 1.0, 1.5, 2.0, 3.0)]
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"beta must be finite, got {bad}"):
            separate_terms_by_beta([*sweep, (bad, 0.0)])
    with pytest.raises(ValueError, match="beta must be finite, got nan"):
        separate_terms_by_beta([(1.0, 0.0), *[(math.nan, 0.0)] * 5])
    # -0.0 and 0.0 are one beta: four distinct values in six
    with pytest.raises(ValueError, match="need >= 5 distinct beta values"):
        separate_terms_by_beta([*sweep[:3], (1.5, 1.0), (-0.0, 0.0), (0.0, 0.0)])


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


def test_residual_is_the_misfit_of_the_reported_state():
    # dG2 rows with |S| > ntilde + 1/2, which no Gaussian state has: the fit
    # clamps r and nbar, and the reported state's own rows and dG0 lie far
    # from the data, so the residual must say so
    gt, beta, ntilde, s_mag, theta = 0.3, 2.0, 0.1, 1.0, 0.4
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    k2 = math.sin(gt) ** 2 * math.cos(gt) ** 2 * beta**2
    dg2 = k2 * (ntilde - s_mag * np.cos(theta - 2.0 * phis))
    rec = reconstruct_gaussian((phis, np.zeros_like(phis), dg2), gt, beta, 0.0)
    assert rec.residual > 1.0


def test_negative_drive_draw_is_a_phase_flip():
    """A draw with 1 + xi < 0 is the drive |beta (1 + xi)| at phi + pi: dG1 flips, dG2 stays."""
    p = GwSignalParams(alpha=np.exp(0.4j), r=0.5, theta=0.7, nbar=0.2)
    gt, beta, eps = 0.3, 2.0, 0.5
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    rows = _rows(simulate_phase_sweep(p, beta, gt, phis, epsilon=eps, rng=np.random.default_rng(3)))
    rng = np.random.default_rng(3)
    drives = [beta * (1.0 + rng.normal(0.0, math.sqrt(eps))) for _ in phis]
    assert any(d < 0.0 for d in drives) and any(d >= 0.0 for d in drives)
    for (phi, dg1, dg2), d in zip(rows, drives):
        terms = delta_g2_terms(p, LocalOscillator(abs(d), phi), gt)
        if d >= 0.0:
            assert (dg1, dg2) == (terms.dG1, terms.dG2)  # the unchanged path, bit for bit
        else:
            assert abs(dg1 + terms.dG1) <= 1e-12 * abs(terms.dG1)
            assert abs(dg2 - terms.dG2) <= 1e-12 * abs(terms.dG2)


def _rows(sweep):
    """The (phi, dG1, dG2) columns of a sweep as rows of Python floats."""
    return list(zip(*(column.tolist() for column in sweep)))


def _per_phase_sweep(p, beta_mag, gt, phis, epsilon, rng):
    """The sweep replayed one phase at a time through delta_g2_terms."""
    rows = []
    for phi in phis:
        beta, phase = beta_mag, float(phi)
        if epsilon > 0.0:
            beta = beta_mag * (1.0 + rng.normal(0.0, math.sqrt(epsilon)))
            if beta < 0.0:
                beta, phase = -beta, phase + math.pi
        terms = delta_g2_terms(p, LocalOscillator(beta, phase), gt)
        rows.append((float(phi), terms.dG1, terms.dG2))
    return rows


def test_phase_sweep_matches_per_phase_terms():
    # the array evaluation must round exactly as the per-phase terms do: == throughout
    draws = np.random.default_rng(17)
    flipped = 0
    for _ in range(6):
        p = GwSignalParams(
            alpha=draws.uniform(0.0, 2.0) * np.exp(1j * draws.uniform(0.0, 2.0 * math.pi)),
            r=draws.uniform(0.0, 1.0),
            theta=draws.uniform(0.0, 2.0 * math.pi),
            nbar=draws.uniform(0.0, 2.0),
        )
        gt = draws.uniform(0.01, math.pi / 2.0 - 0.01)
        beta = draws.uniform(0.1, 4.0)
        for n in (8, 2048):
            phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            rows = _rows(simulate_phase_sweep(p, beta, gt, phis))
            assert rows == _per_phase_sweep(p, beta, gt, phis, 0.0, None)
            for eps in (1e-3, 0.5):
                seed = int(draws.integers(2**32))
                rng = np.random.default_rng(seed)
                rows = _rows(simulate_phase_sweep(p, beta, gt, phis, eps, rng))
                assert rows == _per_phase_sweep(p, beta, gt, phis, eps, np.random.default_rng(seed))
                xi = np.random.default_rng(seed).normal(0.0, math.sqrt(eps), size=n)
                flipped += int(np.count_nonzero(xi < -1.0))
    assert flipped > 0


def test_phase_sweep_edge_behaviour():
    p = GwSignalParams(alpha=np.exp(0.4j), r=0.5, theta=0.7, nbar=0.2)
    gt, n = 0.3, 16
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    with pytest.raises(ValueError):
        simulate_phase_sweep(p, -1.0, gt, phis)
    # with noise a negative beta_mag is accepted: each negative drive draw is a phase flip
    rows = _rows(simulate_phase_sweep(p, -1.0, gt, phis, 0.5, np.random.default_rng(3)))
    assert rows == _per_phase_sweep(p, -1.0, gt, phis, 0.5, np.random.default_rng(3))
    # the stream advances by exactly one normal draw per phase
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    simulate_phase_sweep(p, 2.0, gt, phis, 1e-3, rng)
    for _ in range(n):
        ref.normal(0.0, math.sqrt(1e-3))
    assert rng.normal() == ref.normal()
    assert _rows(simulate_phase_sweep(p, 2.0, gt, phis.tolist())) == _rows(
        simulate_phase_sweep(p, 2.0, gt, phis)
    )


def test_reconstruction_needs_enough_phases():
    with pytest.raises(ValueError):
        reconstruct_gaussian((np.zeros(7),) * 3, 0.3, 1.0, 0.0)


def test_assembled_total_super_poissonian_at_large_squeezing():
    # large-r displaced squeezed: dG0 dominates and the assembled total stays
    # nonnegative even where dG1 is most negative
    p = GwSignalParams(alpha=1.5 * np.exp(1j * math.pi / 4.0), r=3.0)
    gt = 0.05
    for phi in np.linspace(0.0, 2.0 * math.pi, 24):
        terms = delta_g2_terms(p, LocalOscillator(2.0, phi), gt)
        assert terms.total >= 0.0
