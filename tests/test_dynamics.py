import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gravoptics import fock
from gravoptics.dynamics import (
    CouplingContext,
    OpenChannelParams,
    bar_marginal,
    beamsplitter_map,
    beyond_rwa_coefficients,
    beyond_rwa_ladder_map,
    beyond_rwa_symplectic,
    detuned_coefficients,
    evolve_closed,
    evolve_open,
    lyapunov_bar_marginal,
    phase_adjusted_beamsplitter,
    squeezing_transfer_variance,
)
from gravoptics.states import (
    GwSignalParams,
    apply_symplectic,
    ladder_transform,
    make_gw_state,
    make_vacuum,
    reduce_modes,
    symplectic_form,
    tensor,
)

params = st.builds(
    GwSignalParams,
    alpha=st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi),
    nbar=st.floats(0.0, 2.0),
)


def mean_n(state) -> float:
    return 0.5 * (state.cov[0, 0] + state.cov[1, 1]) - 0.5 + 0.5 * state.disp @ state.disp


def test_beamsplitter_map_examples():
    np.testing.assert_allclose(beamsplitter_map(0.0).matrix, np.eye(4))
    swap = beamsplitter_map(math.pi / 2.0).matrix
    expect = np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
    )
    np.testing.assert_allclose(swap, expect, atol=1e-15)
    s = beamsplitter_map(0.3).matrix
    omega = symplectic_form(2)
    assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-15


def test_evolve_closed_identity_at_zero():
    gw = make_gw_state(GwSignalParams(alpha=complex(0.3, 0.4), r=0.5, theta=1.0, nbar=0.2))
    bar = make_gw_state(GwSignalParams(alpha=0.7, r=0.2))
    joint = evolve_closed(gw, bar, 0.0)
    np.testing.assert_allclose(joint.cov, tensor(gw, bar).cov, atol=1e-15)
    np.testing.assert_allclose(joint.disp, tensor(gw, bar).disp, atol=1e-15)


def test_evolve_closed_thermal_example():
    nbar, gt = 1.3, 0.6
    out = bar_marginal(make_gw_state(GwSignalParams(nbar=nbar)), make_vacuum(1), gt)
    expect = (math.cos(gt) ** 2 * 0.5 + math.sin(gt) ** 2 * (0.5 + nbar)) * np.eye(2)
    np.testing.assert_allclose(out.cov, expect, atol=1e-14)


@given(params, st.floats(0.01, math.pi / 2))
@settings(max_examples=40)
def test_bar_marginal_is_convex_combination(p, gt):
    gw = make_gw_state(p)
    out = bar_marginal(gw, make_vacuum(1), gt)
    expect_cov = math.cos(gt) ** 2 * 0.5 * np.eye(2) + math.sin(gt) ** 2 * gw.cov
    expect_disp = math.sin(gt) * gw.disp
    scale = max(1.0, np.abs(expect_cov).max())
    assert np.max(np.abs(out.cov - expect_cov)) < 1e-12 * scale
    assert np.max(np.abs(out.disp - expect_disp)) < 1e-12


@given(params, st.floats(0.0, math.pi))
@settings(max_examples=40)
def test_excitation_conservation(p, gt):
    gw = make_gw_state(p)
    joint = evolve_closed(gw, make_vacuum(1), gt)
    total = mean_n(reduce_modes(joint, [0])) + mean_n(reduce_modes(joint, [1]))
    expect = p.mean_occupation
    assert abs(total - expect) < 1e-10 * max(1.0, expect)


def test_excitation_transfer_law():
    p = GwSignalParams(alpha=1.1, r=0.4, nbar=0.6)
    for gt in (0.2, 0.9):
        out = bar_marginal(make_gw_state(p), make_vacuum(1), gt)
        assert abs(mean_n(out) - math.sin(gt) ** 2 * p.mean_occupation) < 1e-12


def test_phase_adjusted_is_conjugated_beamsplitter():
    gt = 0.37
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    loc = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), rot]])
    conj = np.linalg.inv(loc) @ beamsplitter_map(gt).matrix @ loc
    np.testing.assert_allclose(phase_adjusted_beamsplitter(gt).matrix, conj, atol=1e-14)


def test_detuned_resonant_limit():
    ctx = CouplingContext(gamma_g=0.4, omega_ell=1.0, nu=1.0, t=1.7)
    co = detuned_coefficients(ctx)
    gt = 0.4 * 1.7
    assert abs(co.f - (-1j * math.sin(gt))) < 1e-14
    assert abs(co.g_plus - math.cos(gt)) < 1e-14
    assert abs(co.g_minus - math.cos(gt)) < 1e-14


@pytest.mark.parametrize("ratio", [0.0, 0.5, 2.0, 10.0])
@pytest.mark.parametrize("gt", [0.2, 1.0, math.pi])
def test_detuned_unitarity_grid(ratio, gt):
    gamma = 0.3
    ctx = CouplingContext(gamma, omega_ell=1.0, nu=1.0 + ratio * gamma, t=gt / gamma)
    co = detuned_coefficients(ctx)
    assert abs(abs(co.f) ** 2 + abs(co.g_minus) ** 2 - 1.0) < 1e-10
    assert abs(abs(co.f) ** 2 + abs(co.g_plus) ** 2 - 1.0) < 1e-10
    assert abs(co.g_minus * np.conj(co.f) + co.f * np.conj(co.g_plus)) < 1e-10


def test_detuned_specific_unitarity():
    gamma = 1.0
    ctx = CouplingContext(gamma, omega_ell=5.0, nu=5.0 + 1.7 * gamma, t=0.4)
    co = detuned_coefficients(ctx)
    assert abs(abs(co.f) ** 2 + abs(co.g_minus) ** 2 - 1.0) < 1e-12


def test_detuned_zero_coupling_pure_phases():
    delta = 0.8
    ctx = CouplingContext(0.0, omega_ell=1.0, nu=1.0 + delta, t=2.0)
    co = detuned_coefficients(ctx)
    assert abs(co.f) == 0.0
    assert abs(co.g_plus - np.exp(-1j * delta * 2.0 / 2.0)) < 1e-14
    assert abs(co.g_minus - np.exp(1j * delta * 2.0 / 2.0)) < 1e-14


def test_detuned_degenerate_limit():
    ctx = CouplingContext(0.0, omega_ell=1.0, nu=1.0, t=3.0)
    co = detuned_coefficients(ctx)
    assert co.f == 0.0 and co.g_plus == 1.0 and co.g_minus == 1.0


def test_beyond_rwa_zero_coupling_free_rotation():
    ctx = CouplingContext(0.0, omega_ell=1.0, nu=1.0, t=0.9)
    co = beyond_rwa_coefficients(ctx)
    assert abs(co.a_coef) < 1e-15 and abs(co.d_coef) < 1e-15
    tmat = beyond_rwa_ladder_map(ctx)
    assert abs(tmat[0, 0] - np.exp(-1j * 0.9)) < 1e-12
    assert abs(tmat[0, 2]) < 1e-12


def test_beyond_rwa_matches_rwa_at_small_coupling():
    # delta_g = 1e-6: bar occupation within relative 1e-4 of sin^2 <n> over gt <= 1
    omega = 1.0
    delta_g = 1e-6
    gamma = 0.5 * delta_g * omega
    nbar = 1.5
    for gt in (0.3, 0.7, 1.0):
        ctx = CouplingContext(gamma, omega, omega, gt / gamma)
        joint = tensor(make_gw_state(GwSignalParams(nbar=nbar)), make_vacuum(1))
        evolved = reduce_modes(apply_symplectic(joint, beyond_rwa_symplectic(ctx)), [1])
        n_bar = mean_n(evolved)
        n_rwa = math.sin(gt) ** 2 * nbar
        assert abs(n_bar - n_rwa) / n_rwa < 1e-4


def test_beyond_rwa_symplectic_and_oracle():
    omega, delta_g, t = 1.0, 0.1, 5.0
    gamma = 0.5 * delta_g * omega
    ctx = CouplingContext(gamma, omega, omega, t)
    s = beyond_rwa_symplectic(ctx).matrix
    omega_form = symplectic_form(2)
    assert np.max(np.abs(s @ omega_form @ s.T - omega_form)) < 1e-9
    h = np.diag([omega] * 4).astype(float)
    h[0, 2] = h[2, 0] = 2.0 * gamma
    s_oracle = expm(omega_form @ h * t)
    assert np.max(np.abs(s - s_oracle)) < 1e-12


def test_beyond_rwa_printed_dagger_assignment_is_not_the_dynamics():
    # the swapped-dagger variant is symplectic too, but does not solve the
    # equations of motion; the implemented assignment does
    omega, delta_g, t = 1.0, 0.1, 5.0
    gamma = 0.5 * delta_g * omega
    ctx = CouplingContext(gamma, omega, omega, t)
    co = beyond_rwa_coefficients(ctx)
    cp, cm = math.cos(co.omega_plus * t), math.cos(co.omega_minus * t)
    caa = 0.5 * (cp + cm + co.a_coef + co.b_coef)
    cab = 0.5 * (cp - cm + co.d_coef + co.e_coef)
    row_a = np.array([caa, 0.5 * co.d_coef, cab, 0.5 * co.a_coef])  # printed variant
    row_b = np.array([cab, 0.5 * co.a_coef, caa, 0.5 * co.d_coef])
    tmat = np.empty((4, 4), complex)
    tmat[0] = row_a
    tmat[1] = np.conj(row_a[[1, 0, 3, 2]])
    tmat[2] = row_b
    tmat[3] = np.conj(row_b[[1, 0, 3, 2]])
    w = ladder_transform(2)
    s_printed = (w.conj().T @ tmat @ w).real
    h = np.diag([omega] * 4).astype(float)
    h[0, 2] = h[2, 0] = 2.0 * gamma
    s_oracle = expm(symplectic_form(2) @ h * t)
    assert np.max(np.abs(s_printed - s_oracle)) > 1e-3


def test_beyond_rwa_rejects_ultrastrong():
    with pytest.raises(ValueError):
        beyond_rwa_coefficients(CouplingContext(0.6, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        beyond_rwa_coefficients(CouplingContext(0.1, 1.0, 1.4, 1.0))


def test_evolve_open_limits():
    gw = make_gw_state(GwSignalParams(alpha=0.8, r=0.4, nbar=0.5))
    bar = make_vacuum(1)
    closed = bar_marginal(gw, bar, 0.7)
    open0 = evolve_open(gw, bar, 0.7, OpenChannelParams(kappa=0.0, nbar=2.0), 1.0)
    assert np.max(np.abs(open0.cov - closed.cov)) < 1e-12
    assert np.max(np.abs(open0.disp - closed.disp)) < 1e-12
    late = evolve_open(gw, bar, 0.7, OpenChannelParams(kappa=50.0, nbar=0.3), 1.0)
    np.testing.assert_allclose(late.cov, 0.8 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(late.disp, 0.0, atol=1e-10)


def test_evolve_open_rejects_non_vacuum_bar():
    gw = make_gw_state(GwSignalParams(alpha=0.8))
    thermal_bar = make_gw_state(GwSignalParams(nbar=0.5))
    with pytest.raises(ValueError):
        evolve_open(gw, thermal_bar, 0.3, OpenChannelParams(1.0, 0.0), 1.0)


def test_evolve_open_direct_formula_point():
    # kappa t = 1, Nbar = 0.2, thermal nbar = 3, sin^2 = 0.1
    gt = math.asin(math.sqrt(0.1))
    gw = make_gw_state(GwSignalParams(nbar=3.0))
    ch = OpenChannelParams(kappa=1.0, nbar=0.2)
    out = evolve_open(gw, make_vacuum(1), gt, ch, 1.0)
    decay = math.exp(-1.0)
    expect = (decay * (0.9 * 0.5 + 0.1 * 3.5) + (1 - decay) * 0.7) * np.eye(2)
    np.testing.assert_allclose(out.cov, expect, atol=1e-14)
    ode = lyapunov_bar_marginal(gw, gt, ch, 1.0)
    assert np.max(np.abs(out.cov - ode.cov)) < 1e-8


def test_squeezing_transfer_examples():
    full = squeezing_transfer_variance(0.8, math.pi / 2.0)
    assert abs(full.min_var - math.exp(-1.6) / 2.0) < 1e-15
    flat = squeezing_transfer_variance(0.0, 0.4)
    assert flat.min_var == flat.max_var == 0.5
    r, gt = 1.0, 0.3
    st_ = squeezing_transfer_variance(r, gt)
    expect = 0.5 * (1.0 + math.sin(gt) ** 2 * (math.exp(-2.0) - 1.0))
    assert abs(st_.min_var - expect) < 1e-15


@given(st.floats(0.0, 1.5), st.floats(0.0, math.pi))
def test_squeezing_transfer_uncertainty(r, gt):
    out = squeezing_transfer_variance(r, gt)
    assert out.min_var * out.max_var >= 0.25 - 1e-12


def test_squeezing_transfer_vs_oracle_minimization():
    for r, gt in ((0.5, 0.7), (1.0, 0.3)):
        closed = squeezing_transfer_variance(r, gt)
        oracle_min, oracle_theta = fock.oracle_min_quadrature_variance(
            GwSignalParams(r=r), gt, tail_tol=1e-10
        )
        assert abs(closed.min_var - oracle_min) < 1e-8
        assert abs(closed.theta_min - oracle_theta) < 1e-6 or gt == 0.0
