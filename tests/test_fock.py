import math
import threading
import time
import tracemalloc
import warnings

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


def bar_on_cutoff(p: GwSignalParams, gamma_t: float, dim: int) -> fock.TruncatedState:
    """The checked detector marginal on a fixed cutoff, one layer below the adaptive oracle."""
    rho_bar, tail = fock.evolved_bar_density(fock.build_gw_density(p, dim), gamma_t)
    return fock.TruncatedState(dim, rho_bar / np.trace(rho_bar).real, tail)


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
    # a density matrix of the wrong size, or not square
    for wrong in (np.eye(3) / 3.0, np.full((2, 3), 0.5), np.array([0.5, 0.5])):
        with pytest.raises(ValueError, match="expected a 2x2 density matrix"):
            fock.TruncatedState(2, wrong, 0.0)
    # a NaN or inf entry, on the diagonal or off it, fails the trace or Hermiticity test
    nan_off = rho.copy()
    nan_off[0, 1] = np.nan
    for broken in (np.full((2, 2), np.nan), nan_off, np.diag([np.inf, 0.3])):
        with pytest.raises(ValueError, match="non-finite"):
            fock.TruncatedState(2, broken, 0.0)


def test_truncated_state_leaves_the_matrix_bit_for_bit():
    # the positivity test shifts the diagonal of rho itself and restores it
    # from a saved copy, on success and on failure alike
    basis = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + 1j * np.eye(3))[0]
    # just below 1/2 the shift crosses a binade, so undoing it by arithmetic
    # would not give the bits back
    edge = 0.5 - 3 * 2.0**-54
    assert edge - fock.POSITIVITY_FLOOR + fock.POSITIVITY_FLOOR != edge
    cases = [(np.diag([edge, 1.0 - edge + 1e-9, -1e-9]).astype(complex), False)]
    cases.append((np.diag([edge, 1.0 - edge, 0.0]).astype(complex), True))
    for lowest, accepted in ((0.1, True), (-1e-9, False)):
        rho = (basis * [0.6 - lowest, 0.4, lowest]) @ basis.conj().T
        cases.append(((rho + rho.conj().T) / 2.0, accepted))
    for rho, accepted in cases:
        before = rho.view(np.uint64).copy()
        if accepted:
            assert fock.TruncatedState(3, rho, 0.0).rho is rho
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                fock.TruncatedState(3, rho, 0.0)
        assert np.array_equal(rho.view(np.uint64), before)
    # a read-only matrix is checked on a copy of its own
    frozen = np.diag([0.7, 0.3]).astype(complex)
    frozen.flags.writeable = False
    state = fock.TruncatedState(2, frozen, 0.0)
    assert state.rho.flags.writeable and np.array_equal(state.rho, frozen)
    rho = np.diag([1.0 + 1e-9, -1e-9]).astype(complex)
    rho.flags.writeable = False
    with pytest.raises(ValueError, match="negative eigenvalue"):
        fock.TruncatedState(2, rho, 0.0)


def test_build_hands_on_the_squeeze_stage_error(monkeypatch):
    # the squeeze chains run on a thread of their own; its error reaches the
    # caller, the thread is joined either way, and when both stages raise
    # the displacement's error comes first
    p, threads = GwSignalParams(alpha=0.5, r=0.5), threading.active_count()
    finished = []

    def squeeze_fails(*_):
        time.sleep(0.05)
        finished.append(True)
        raise RuntimeError("squeeze failed")

    monkeypatch.setattr(fock, "squeeze_blocks", squeeze_fails)
    with pytest.raises(RuntimeError, match="squeeze failed"):
        fock.build_gw_density(p, 20)
    assert threading.active_count() == threads

    def displacement_fails(*_):
        raise ArithmeticError("displacement failed")

    monkeypatch.setattr(fock, "displacement_op", displacement_fails)
    with pytest.raises(ArithmeticError, match="displacement failed"):
        fock.build_gw_density(p, 20)
    assert finished == [True, True] and threading.active_count() == threads


def peak_arrays(call, dim: int) -> float:
    """Largest number of dim x dim complex arrays' worth of memory that call() held at once."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - before) / (16 * dim * dim)


def test_oracle_draw_holds_fewer_than_four_density_sized_arrays(monkeypatch):
    # the densest draw of the benchmark's range, at cutoff 320: the checks
    # copy nothing full-size, and each full-size array goes before the next
    p, gamma_t = GwSignalParams(alpha=1.0, r=0.95, nbar=1.9), 0.7
    monkeypatch.setattr(fock, "_last_populations", None)
    dim = fock.MAX_DIM
    arrays = peak_arrays(lambda: fock.oracle_pn_table(p, gamma_t, 5), dim)
    assert fock.oracle_bar_state(p, gamma_t).dim == dim
    assert arrays < 4.0, arrays
    # the marginal's skew buffer is (dim + 1) x dim, not a zero-padded dim x 2 dim
    gw = fock.build_gw_density(p, dim)
    arrays = peak_arrays(lambda: fock.evolved_bar_density(gw, gamma_t), dim)
    assert arrays < 2.5, arrays


# 95 and 321 give squeeze chains of both parities with even and odd lengths,
# and a displacement chain whose odd length leaves a null vector in the SVD
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 21, 40, 95, 321])
def test_structured_operators_match_dense_expm(dim):
    a = fock.annihilation(dim)
    for alpha in (0.0, 1.3, -0.7, 1.1j, complex(0.8, -0.6), 2.3 * np.exp(0.4j)):
        d, leakage = fock.displacement_op(alpha, dim)
        ref = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(d - ref)) < 1e-12, alpha
        assert leakage < 1e-12
    for r, theta in ((0.4, 0.0), (1.0, math.pi), (0.7, 2.1), (1.2, -0.5)):
        xi = r * np.exp(1j * theta)
        s = np.zeros((dim, dim), dtype=complex)
        s[0::2, 0::2], s[1::2, 1::2], leakage = fock.squeeze_blocks(r, theta, dim)
        ref = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (a.T @ a.T)))
        assert np.max(np.abs(s - ref)) < 1e-12, (r, theta)
        assert leakage < 1e-12


def test_chain_exponential_at_the_growth_cutoff():
    dim = fock.GROWTH_MAX_DIM
    _, leakage = fock.displacement_op(2.0 * np.exp(0.3j), dim)
    assert leakage < 1e-12
    *_, leakage = fock.squeeze_blocks(1.0, 0.7, dim)
    assert leakage < 1e-12
    for total_n in (7, 12):
        u = fock._block_unitary(total_n, 0.0)
        np.testing.assert_allclose(u, np.eye(total_n + 1), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 21, 95])
def test_zero_coupling_chains_are_exactly_the_identity(dim):
    # build_gw_density runs alpha = 0 and r = 0 through the same products as
    # every other state; they keep their bits only because these are exact
    d, leakage = fock.displacement_op(0, dim)
    assert np.array_equal(d, np.eye(dim)) and leakage == 0.0
    for theta in (0.0, 0.7, -2.0):
        even, odd, leakage = fock.squeeze_blocks(0.0, theta, dim)
        assert np.array_equal(even, np.eye((dim + 1) // 2))
        assert np.array_equal(odd, np.eye(dim // 2))
        assert leakage == 0.0


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
    small = bar_on_cutoff(p, 0.6, dim).rho[2, 2].real
    large = bar_on_cutoff(p, 0.6, min(2 * dim, fock.MAX_DIM)).rho[2, 2].real
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
    bar = bar_on_cutoff(p, gt, dim)
    assert bar.dim == dim and np.all(np.isfinite(bar.rho))
    moments = evolved_bar_moments(p, gt)
    for n in range(7):
        assert abs(prob_n_generating(moments, n) - bar.rho[n, n].real) < 1e-8, n


def count_builds(monkeypatch) -> list[int]:
    """Start from an empty populations memo; the list gets the dim of every density built."""
    monkeypatch.setattr(fock, "_last_populations", None)
    built = []
    build = fock.build_gw_density

    def counted(*args, **kwargs):
        state = build(*args, **kwargs)
        built.append(state.dim)
        return state

    monkeypatch.setattr(fock, "build_gw_density", counted)
    return built


def test_oracle_builds_each_density_once(monkeypatch):
    p = GwSignalParams(alpha=complex(0.9, -0.3), r=0.4, theta=0.5, nbar=0.3)
    built = count_builds(monkeypatch)
    fock.oracle_pn_table(p, 0.7, 5)
    fock.oracle_moments_and_g2(p, 0.7)
    assert len(built) == 1
    fock.oracle_normal_moment(p, 1, 1)
    assert len(built) == 2 and len(set(built)) == 1
    # every input is in the memo's key to the bit: each change rebuilds once,
    # and the other entry point then reads the rebuilt marginal
    flat = GwSignalParams(alpha=complex(0.9, -0.3), r=0.4, theta=0.0, nbar=0.3)
    flipped = GwSignalParams(alpha=complex(0.9, -0.3), r=0.4, theta=-0.0, nbar=0.3)
    for count, q in enumerate((p, flat, flipped), start=len(built) + 1):
        fock.oracle_moments_and_g2(q, 0.8)
        fock.oracle_pn_table(q, 0.8, 5)
        assert len(built) == count
    # so is the tail tolerance, which only the moments take
    for _ in range(2):
        fock.oracle_moments_and_g2(flipped, 0.8, 10 * fock.DEFAULT_TAIL_TOL)
        assert len(built) == count + 1


def test_oracle_memo_hit_matches_fresh_build(monkeypatch):
    built = count_builds(monkeypatch)
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = GwSignalParams(
            alpha=complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
            r=rng.uniform(0, 0.8),
            theta=rng.uniform(0, 2 * math.pi),
            nbar=rng.uniform(0, 1.5),
        )
        gt = rng.uniform(0.02, 0.5 * math.pi)
        # the benchmark's order: the P_n table, then the moments as a hit
        monkeypatch.setattr(fock, "_last_populations", None)
        cold_table = fock.oracle_pn_table(p, gt, 5)
        hit_moments = np.array(fock.oracle_moments_and_g2(p, gt))
        monkeypatch.setattr(fock, "_last_populations", None)
        cold_moments = np.array(fock.oracle_moments_and_g2(p, gt))
        hit_table = fock.oracle_pn_table(p, gt, 5)
        assert hit_table.tobytes() == cold_table.tobytes()
        assert hit_moments.tobytes() == cold_moments.tobytes()
        # and the moments keep the bits of the marginal's own strided diagonal
        pops = np.diag(fock.oracle_bar_state(p, gt).rho).real
        levels = np.arange(len(pops))
        assert hit_moments[0] == levels @ pops and hit_moments[1] == (levels**2) @ pops
        # each table is the caller's own copy
        hit_table[:] = -1.0
        assert fock.oracle_pn_table(p, gt, 5).tobytes() == cold_table.tobytes()
    assert len(built) == 24

    # a failed build is not kept: the same call fails again (the search capped
    # at cutoff 12, where the tail of this state is too heavy)
    monkeypatch.setattr(fock, "MAX_DIM", 12)
    monkeypatch.setattr(fock, "GROWTH_MAX_DIM", 12)
    p = GwSignalParams(alpha=2.0, nbar=2.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="tail mass"):
            fock.oracle_pn_table(p, 0.7, 5)
    with pytest.raises(ValueError, match="tail mass"):
        fock.oracle_moments_and_g2(p, 0.7)


def test_tail_rejection():
    with pytest.raises(ValueError):
        fock.build_gw_density(GwSignalParams(alpha=2.0, nbar=2.0), 12)


def test_oracle_table_holds_every_level_asked_for():
    # the adaptive cutoff would be 22 for this state and 21 for the vacuum; a
    # shorter table asked for first must not be read back from the memo
    for p in (GwSignalParams(alpha=0.3), GwSignalParams()):
        assert len(fock.oracle_pn_table(p, 0.5, 5)) == 6
        assert len(fock.oracle_pn_table(p, 0.5, 30)) == 31
    p = GwSignalParams(alpha=0.3)
    with pytest.raises(ValueError, match="n_max must be at least 0, got -1"):
        fock.oracle_pn_table(p, 0.5, -1)
    with pytest.raises(ValueError, match="dim must be at least 1, got 0"):
        fock.build_gw_density(p, 0)
    with pytest.raises(ValueError, match=f"n_max {fock.GROWTH_MAX_DIM} needs a cutoff past"):
        fock.oracle_pn_table(p, 0.5, fock.GROWTH_MAX_DIM)


def test_marginal_weights_reject_a_cutoff_that_overflows():
    # at gamma_t = 0 the marginal's weights (c^2 dim)^k / k! overflow past a
    # cutoff of ~709, beyond where the search may grow; they raise without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"cutoff dim 800 at gamma_t 0\.0: .* overflow"):
            fock._marginal_weights(0.0, 800)
        assert np.isfinite(fock._marginal_weights(0.0, fock.GROWTH_MAX_DIM)).all()


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
