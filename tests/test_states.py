import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravoptics import fock
from gravoptics.dynamics import beamsplitter_map
from gravoptics.states import (
    GaussianState,
    GwSignalParams,
    SymplecticMap,
    apply_symplectic,
    from_ladder,
    ladder_transform,
    make_gw_state,
    make_vacuum,
    reduce_modes,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    to_ladder,
)

params = st.builds(
    GwSignalParams,
    alpha=st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi),
    nbar=st.floats(0.0, 2.0),
)


def test_vacuum_examples():
    v1 = make_vacuum(1)
    np.testing.assert_allclose(v1.cov, 0.5 * np.eye(2))
    np.testing.assert_allclose(v1.disp, 0.0)
    v2 = make_vacuum(2)
    np.testing.assert_allclose(v2.cov, 0.5 * np.eye(4))
    np.testing.assert_allclose(symplectic_eigenvalues(v2.cov), [0.5, 0.5])


def test_make_gw_state_examples():
    np.testing.assert_allclose(make_gw_state(GwSignalParams()).cov, 0.5 * np.eye(2))
    thermal = make_gw_state(GwSignalParams(nbar=1.5))
    np.testing.assert_allclose(thermal.cov, 2.0 * np.eye(2))
    squeezed = make_gw_state(GwSignalParams(r=0.5))
    np.testing.assert_allclose(
        squeezed.cov, np.diag([math.exp(-1.0) / 2.0, math.exp(1.0) / 2.0]), atol=1e-15
    )


def test_gw_params_reject_negative():
    with pytest.raises(ValueError):
        GwSignalParams(r=-0.1)
    with pytest.raises(ValueError):
        GwSignalParams(nbar=-0.1)


@given(params)
def test_mean_occupation_matches_moments(p):
    state = make_gw_state(p)
    m = to_ladder(state)
    # <a†a> = nu - 1/2 + |abar|^2 with nu the {a, a†}/2 entry
    mean = (m.sigma[0, 1].real - 0.5) + abs(m.abar[0]) ** 2
    expect = abs(p.alpha) ** 2 + (p.nbar + 0.5) * math.cosh(2 * p.r) - 0.5
    assert abs(mean - expect) < 1e-9 * max(1.0, expect)
    assert abs(p.mean_occupation - expect) < 1e-12 * max(1.0, expect)


def test_to_ladder_examples():
    vac = to_ladder(make_vacuum(1))
    assert abs(vac.sigma[0, 1] - 0.5) < 1e-15  # a-a† entry
    assert abs(vac.sigma[0, 0]) < 1e-15  # a-a entry
    coh = to_ladder(make_gw_state(GwSignalParams(alpha=1.0)))
    np.testing.assert_allclose(coh.abar, [1.0, 1.0], atol=1e-15)
    sq = to_ladder(make_gw_state(GwSignalParams(r=0.5)))
    assert abs(sq.sigma[0, 0] - (-0.5 * math.sinh(1.0))) < 1e-14


def test_squeezed_ladder_entry_matches_oracle_a_squared():
    p = GwSignalParams(r=0.5)
    sq = to_ladder(make_gw_state(p))
    oracle = fock.oracle_normal_moment(p, 0, 2, tail_tol=1e-11)
    assert abs(sq.sigma[0, 0] - oracle) < 1e-9


def test_ladder_sigma_is_symmetric_not_hermitian():
    m = to_ladder(make_gw_state(GwSignalParams(alpha=0.5, r=0.6, theta=1.1, nbar=0.4)))
    assert np.max(np.abs(m.sigma - m.sigma.T)) < 1e-12
    assert np.max(np.abs(m.sigma - m.sigma.conj().T)) > 1e-3  # genuinely complex entries


@given(params)
@settings(max_examples=40)
def test_ladder_round_trip(p):
    state = make_gw_state(p)
    back = from_ladder(to_ladder(state))
    assert np.max(np.abs(back.cov - state.cov)) < 1e-13 * max(1.0, np.abs(state.cov).max())
    assert np.max(np.abs(back.disp - state.disp)) < 1e-13


def test_apply_symplectic_identity_and_errors():
    state = make_gw_state(GwSignalParams(alpha=1.0, r=0.3))
    ident = SymplecticMap(np.eye(2))
    out = apply_symplectic(state, ident)
    np.testing.assert_allclose(out.cov, state.cov)
    with pytest.raises(ValueError):
        apply_symplectic(state, beamsplitter_map(0.3))  # two-mode map, one-mode state


@given(st.floats(0.0, math.pi), params)
@settings(max_examples=30)
def test_apply_symplectic_preserves_symplectic_spectrum(gamma_t, p):
    joint = tensor(make_gw_state(p), make_vacuum(1))
    evolved = apply_symplectic(joint, beamsplitter_map(gamma_t))
    before = symplectic_eigenvalues(joint.cov)
    after = symplectic_eigenvalues(evolved.cov)
    scale = max(1.0, before.max())
    np.testing.assert_allclose(after, before, atol=1e-10 * scale)


def test_half_pi_beamsplitter_swaps_marginals():
    p = GwSignalParams(alpha=complex(0.8, -0.3), r=0.5, theta=0.9, nbar=0.7)
    gw = make_gw_state(p)
    joint = apply_symplectic(tensor(gw, make_vacuum(1)), beamsplitter_map(math.pi / 2.0))
    gw_out = reduce_modes(joint, [0])
    bar_out = reduce_modes(joint, [1])
    # the wave mode is left in (rotated) vacuum, the detector carries the wave
    np.testing.assert_allclose(gw_out.cov, 0.5 * np.eye(2), atol=1e-14)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(bar_out.cov, rot @ gw.cov @ rot.T, atol=1e-13)
    np.testing.assert_allclose(bar_out.disp, rot @ gw.disp, atol=1e-13)


def test_reduce_modes():
    a = make_gw_state(GwSignalParams(alpha=1.0, nbar=0.5))
    b = make_gw_state(GwSignalParams(nbar=2.0))
    joint = tensor(a, b)
    np.testing.assert_allclose(reduce_modes(joint, [0]).cov, a.cov)
    np.testing.assert_allclose(reduce_modes(joint, [1]).cov, b.cov)
    both = reduce_modes(joint, [0, 1])
    np.testing.assert_allclose(both.cov, joint.cov)
    with pytest.raises(ValueError):
        reduce_modes(joint, [])
    with pytest.raises(ValueError):
        reduce_modes(joint, [2])


def test_unphysical_state_rejected():
    with pytest.raises(ValueError):
        GaussianState(1, 0.4 * np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        GaussianState(1, np.array([[0.5, 1e-6], [0.0, 0.5]]), np.zeros(2))


@given(
    st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi),
)
def test_pure_state_determinant(alpha, r, theta):
    state = make_gw_state(GwSignalParams(alpha=alpha, r=r, theta=theta))
    assert abs(np.linalg.det(2.0 * state.cov) - 1.0) < 1e-9


def test_symplectic_map_validation():
    with pytest.raises(ValueError):
        SymplecticMap(np.eye(3))
    with pytest.raises(ValueError):
        SymplecticMap(2.0 * np.eye(2))
    m = SymplecticMap(np.eye(2))
    np.testing.assert_allclose(m.displacement, 0.0)


def test_ladder_transform_unitary():
    m = ladder_transform(3)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(6), atol=1e-15)
    omega = symplectic_form(2)
    assert np.max(np.abs(omega @ omega + np.eye(4))) == 0.0


@given(
    st.complex_numbers(max_magnitude=3.0, allow_infinity=False, allow_nan=False),
    st.floats(0.0, 1.5),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2.0),
    st.floats(0.0, 1.0),
)
def test_detector_scalars_match_central_moments(alpha, r, theta, nbar, gain):
    # desk scale, where the direct forms of d and e1 lose nothing
    p = GwSignalParams(alpha=alpha, r=r, theta=theta, nbar=nbar)
    mu, ntilde, _ = p.central_moments()
    beta = math.sqrt(gain) * p.alpha
    sc = p.detector_scalars(gain, added=0.3)
    ntilde_bar = gain * ntilde + 0.3
    assert math.isclose(sc.b2, abs(beta) ** 2, rel_tol=1e-13, abs_tol=1e-300)
    assert math.isclose(sc.b_plus + sc.b_minus, sc.b2, rel_tol=1e-13, abs_tol=1e-300)
    assert math.isclose(sc.ntilde, ntilde_bar, rel_tol=1e-13)
    assert math.isclose(sc.m, gain * abs(mu), rel_tol=1e-13, abs_tol=1e-300)
    assert abs(sc.d - (ntilde_bar - gain * abs(mu))) < 1e-13 * (1.0 + gain * abs(mu))
    e1 = abs(beta) ** 2 * ntilde_bar + (np.conj(beta) ** 2 * gain * mu).real
    assert abs(sc.e1 - e1) < 1e-12 * (1.0 + abs(beta) ** 2 * (1.0 + ntilde_bar + gain * abs(mu)))


def test_detector_scalars_keep_d_at_large_squeezing():
    # ntilde and m are ~e^{2r}/4 ~ 2.9e25 here, so their difference is rounding
    # noise of order 1e9, while d = expm1(-2r)/2 keeps every digit
    sc = GwSignalParams(r=30.0).detector_scalars()
    assert sc.d == 0.5 * math.expm1(-60.0)
    assert abs(sc.ntilde - sc.m - sc.d) > 1.0
