import math

import numpy as np
import pytest
from scipy.linalg import expm

from gravoptics import fock
from gravoptics.counting import (
    evolved_bar_moments,
    poisson_pn,
    prob_n_generating,
    prob_n_hafnian,
)
from gravoptics.states import GwSignalParams


def test_vacuum_and_thermal_densities():
    vac = fock.build_gw_density(GwSignalParams(), 12)
    assert abs(vac.rho[0, 0] - 1.0) < 1e-15
    assert np.max(np.abs(vac.rho - np.diag(np.diag(vac.rho)))) < 1e-15

    th = fock.build_gw_density(GwSignalParams(nbar=1.0), 40)
    diag = np.diag(th.rho).real
    expect = 0.5 * 0.5 ** np.arange(40)
    np.testing.assert_allclose(diag, expect / expect.sum() * expect.sum(), atol=1e-12)
    # geometric ratio between consecutive levels
    np.testing.assert_allclose(diag[1:20] / diag[:19], 0.5, atol=1e-12)


def test_displaced_squeezed_state_is_pure():
    st = fock.build_gw_density(GwSignalParams(alpha=1.0, r=0.3), 40)
    purity = np.trace(st.rho @ st.rho).real
    assert abs(purity - 1.0) < 1e-8
    assert st.tail_mass < 1e-8


def test_truncated_state_validation():
    rho = np.diag([0.7, 0.3]).astype(complex)
    fock.TruncatedState(2, rho, 0.3)
    with pytest.raises(ValueError):
        fock.TruncatedState(2, 2.0 * rho, 0.0)
    bad = rho.copy()
    bad[0, 1] = 0.5j  # breaks Hermiticity
    with pytest.raises(ValueError):
        fock.TruncatedState(2, bad, 0.0)
    # Hermitian, unit trace, smallest eigenvalue just past or just inside the floor
    basis = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + 1j * np.eye(3))[0]
    for lowest, accepted in ((-1e-9, False), (-1e-11, True)):
        rho3 = (basis * [0.6 - lowest, 0.4, lowest]) @ basis.conj().T
        rho3 = (rho3 + rho3.conj().T) / 2.0
        assert np.linalg.eigvalsh(rho3).min() == pytest.approx(lowest, rel=1e-4)
        if accepted:
            fock.TruncatedState(3, rho3, 0.0)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                fock.TruncatedState(3, rho3, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 21, 40])
def test_structured_operators_match_dense_expm(dim):
    a = fock.annihilation(dim)
    for alpha in (0.0, 1.3, -0.7, 1.1j, complex(0.8, -0.6), 2.3 * np.exp(0.4j)):
        d, leakage = fock.displacement_op(alpha, dim)
        ref = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(d - ref)) < 1e-12, alpha
        assert leakage < 1e-12
    for r, theta in ((0.4, 0.0), (1.0, math.pi), (0.7, 2.1), (1.2, -0.5)):
        xi = r * np.exp(1j * theta)
        s, leakage = fock.squeeze_op(r, theta, dim)
        ref = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (a.T @ a.T)))
        assert np.max(np.abs(s - ref)) < 1e-12, (r, theta)
        assert leakage < 1e-12


def test_beamsplitter_unitary_blocks():
    dim = 8
    u0 = fock.beamsplitter_unitary(0.0, dim)
    np.testing.assert_allclose(u0, np.eye(dim * dim), atol=1e-14)
    u = fock.beamsplitter_unitary(0.7, dim)
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim * dim))) < 1e-11
    # number conservation: <k, m|U|p, q> = 0 unless k + m = p + q
    for k, m, p, q in [(1, 0, 0, 0), (2, 1, 1, 1), (0, 3, 2, 2)]:
        assert abs(u[k * dim + m, p * dim + q]) < 1e-15


def test_coherent_input_gives_coherent_bar():
    alpha, gt = 0.9, 0.6
    bar = fock.oracle_bar_state(GwSignalParams(alpha=alpha), gt)
    a = fock.annihilation(bar.dim)
    amp = np.trace(bar.rho @ a)
    assert abs(amp - (-1j * alpha * math.sin(gt))) < 1e-9
    purity = np.trace(bar.rho @ bar.rho).real
    assert abs(purity - 1.0) < 1e-8


def test_oracle_pn_examples():
    p = GwSignalParams(alpha=1.2)
    gt = 0.8
    mu = 1.44 * math.sin(gt) ** 2
    table = fock.oracle_pn_table(p, gt, 4)
    for n in range(5):
        assert abs(table[n] - poisson_pn(mu, n)) < 1e-10

    # full swap maps the squeezed vacuum onto the detector: odd levels empty
    sq = GwSignalParams(r=0.6)
    table = fock.oracle_pn_table(sq, math.pi / 2.0, 5)
    assert table[1] < 1e-12 and table[3] < 1e-12 and table[5] < 1e-12


def test_oracle_matches_counting_pipeline():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = GwSignalParams(
            alpha=complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
            r=rng.uniform(0, 0.8),
            theta=rng.uniform(0, 2 * math.pi),
            nbar=rng.uniform(0, 1.5),
        )
        gt = rng.uniform(0.1, 1.4)
        table = fock.oracle_pn_table(p, gt, 5)
        bar = evolved_bar_moments(p, gt)
        for n in range(6):
            assert abs(prob_n_hafnian(bar, n) - table[n]) < 1e-8


def test_oracle_g2_landmarks_and_transfer():
    _, _, g2_th = fock.oracle_moments_and_g2(GwSignalParams(nbar=0.8), 0.7, tail_tol=1e-11)
    assert abs(g2_th - 2.0) < 1e-9
    _, _, g2_coh = fock.oracle_moments_and_g2(GwSignalParams(alpha=1.1), 0.7, tail_tol=1e-11)
    assert abs(g2_coh - 1.0) < 1e-10
    p = GwSignalParams(alpha=0.8, r=0.4, theta=0.5, nbar=0.3)
    values = [
        fock.oracle_moments_and_g2(p, gt, tail_tol=1e-11)[2] for gt in (0.1, 0.5, 1.0)
    ]
    assert max(values) - min(values) < 1e-8


def test_truncation_convergence():
    p = GwSignalParams(alpha=0.8, r=0.3, nbar=0.4)
    dim = fock.oracle_bar_state(p, 0.6, tail_tol=1e-10).dim
    small = fock.oracle_pn_table(p, 0.6, 2, dim=dim)[2]
    large = fock.oracle_pn_table(p, 0.6, 2, dim=min(2 * dim, fock.MAX_DIM))[2]
    assert abs(small - large) < 1e-9


def test_splitting_column_matches_block_exponential():
    for gt in (0.0, 0.4, math.pi / 2, 2.5, -0.7):
        for total_n in (0, 1, 4, 11, 17):
            block = fock._block_unitary(total_n, gt)[:, 0]
            assert np.max(np.abs(fock.splitting_column(total_n, gt) - block)) < 1e-12


@pytest.mark.parametrize("dim", [6, 11, 18])
def test_bar_marginal_matches_partial_trace_of_beamsplitter(dim):
    # an arbitrary full-rank density matrix, so every entry of rho enters
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    gw = fock.TruncatedState(dim, rho / np.trace(rho).real, 0.0)
    vacuum = np.zeros((dim, dim))
    vacuum[0, 0] = 1.0
    for gt in (0.0, 0.4, math.pi / 2, math.pi, 2.5, -0.7):
        u = fock.beamsplitter_unitary(gt, dim)
        joint = (u @ np.kron(gw.rho, vacuum) @ u.conj().T).reshape(dim, dim, dim, dim)
        expected = np.einsum("gbgc->bc", joint)
        rho_bar, tail = fock.evolved_bar_density(gw, gt)
        assert np.max(np.abs(rho_bar - expected)) < 1e-12, gt
        assert tail == rho_bar[dim - 1, dim - 1].real


@pytest.mark.parametrize("gt", [0.0, math.pi / 2, math.pi, -0.7])
def test_bar_marginal_at_growth_max_dim(gt):
    # the anti-squeezed corner forced onto the largest cutoff the search may reach,
    # where the rescaled factors of the marginal come closest to the double range
    p = GwSignalParams(alpha=2j, r=1.0, theta=0.0, nbar=2.0)
    dim = fock.GROWTH_MAX_DIM
    bar = fock.oracle_bar_state(p, gt, dim=dim)
    assert bar.dim == dim and np.all(np.isfinite(bar.rho))
    moments = evolved_bar_moments(p, gt)
    for n in range(7):
        assert abs(prob_n_generating(moments, n) - bar.rho[n, n].real) < 1e-8, n


def test_oracle_builds_each_density_once(monkeypatch):
    p = GwSignalParams(alpha=complex(0.9, -0.3), r=0.4, theta=0.5, nbar=0.3)
    built = []
    build = fock.build_gw_density

    def counted(*args, **kwargs):
        state = build(*args, **kwargs)
        built.append(state.dim)
        return state

    monkeypatch.setattr(fock, "build_gw_density", counted)
    fock.oracle_pn_table(p, 0.7, 5)
    assert len(built) == 1
    fock.oracle_moments_and_g2(p, 0.7)
    fock.oracle_normal_moment(p, 1, 1)
    assert len(built) == 3 and len(set(built)) == 1


def test_tail_rejection():
    with pytest.raises(ValueError):
        fock.build_gw_density(GwSignalParams(alpha=2.0, nbar=2.0), 12)


def test_oracle_reaches_past_max_dim_at_the_anti_squeezed_corner():
    # |alpha| = 2 along the anti-squeezed quadrature at r = 1, nbar = 2: the
    # tail at MAX_DIM is still above 1e-8, so the cutoff grows past it
    p = GwSignalParams(alpha=2.0, r=1.0, theta=math.pi, nbar=2.0)
    gt = 0.7
    table = fock.oracle_pn_table(p, gt, 6)
    assert fock.MAX_DIM < fock.oracle_bar_state(p, gt).dim <= fock.GROWTH_MAX_DIM
    bar = evolved_bar_moments(p, gt)
    for n in range(7):
        assert abs(prob_n_generating(bar, n) - table[n]) < 1e-8
