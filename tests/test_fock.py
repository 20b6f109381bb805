import math
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


def bar_on_cutoff(
    p: GwSignalParams, gamma_t: float, dim: int, min_levels: int = 1
) -> fock.TruncatedState:
    """The checked detector marginal of the wave on a fixed cutoff, one layer below the oracle.

    It holds the levels that carry the marginal's mass, at least min_levels of them.
    """
    rho_bar, tail = fock.evolved_bar_density(fock.build_gw_density(p, dim), gamma_t, min_levels)
    return fock.TruncatedState(len(rho_bar), rho_bar / np.trace(rho_bar).real, tail)


def displacement(alpha: complex, dim: int) -> tuple[np.ndarray, float]:
    """exp(alpha a† - alpha* a) and its leakage, as e^{i phi n} R e^{-i phi n}.

    alpha = |alpha| e^{i phi}, and R is the real chain exponential with
    couplings |alpha| sqrt(j + 1).
    """
    rotation, leakage = fock._chain_expm(abs(alpha) * np.sqrt(np.arange(1.0, dim)))
    phase = np.exp(1j * np.angle(alpha) * np.arange(dim))
    return phase[:, None] * fock._level_order(rotation) * phase.conj(), leakage


def squeeze(r: float, theta: float, dim: int) -> tuple[np.ndarray, float]:
    """exp((xi* a^2 - xi a†^2) / 2) and its leakage, as e^{i theta n/2} R e^{-i theta n/2}.

    xi = r e^{i theta}, and R keeps the parity of a level: one real chain on
    the even and one on the odd levels, with couplings
    -(r/2) sqrt((j + 1)(j + 2)).
    """
    rotation = np.zeros((dim, dim))
    leakage = 0.0
    for parity in range(min(2, dim)):
        j = np.arange(parity, dim - 2, 2, dtype=float)
        chain, chain_leakage = fock._chain_expm(-0.5 * r * np.sqrt((j + 1.0) * (j + 2.0)))
        rotation[parity::2, parity::2] = fock._level_order(chain)
        leakage = max(leakage, chain_leakage)
    phase = np.exp(0.5j * theta * np.arange(dim))
    return phase[:, None] * rotation * phase.conj(), leakage


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


def test_wave_density_is_built_from_the_weighty_thermal_levels():
    # at nbar = 0 only the ground level passes the floor: M is one column, and
    # rho is the outer product of D S |0>; at nbar = 1 the floor keeps the 81
    # levels 2^-n >= 2^-80 of the 200; either way rho is the dense M M† of every level
    for p, dim, columns in (
        (GwSignalParams(alpha=0.9 - 0.4j, r=0.7, theta=1.3), 60, 1),
        (GwSignalParams(alpha=0.5j, r=1.0, theta=0.2, nbar=1.0), 200, 81),
    ):
        pops = fock.thermal_populations(p.nbar, dim)
        assert np.count_nonzero(pops >= fock.THERMAL_FLOOR * pops[0]) == columns
        d, _ = displacement(p.alpha, dim)
        s, _ = squeeze(p.r, p.theta, dim)
        m = d @ s * np.sqrt(pops)
        dense = m @ m.conj().T
        dense /= np.trace(dense).real
        dense = (dense + dense.conj().T) / 2.0
        rho = fock.build_gw_density(p, dim).rho
        assert np.max(np.abs(rho - dense)) < 1e-15
        if columns == 1:
            v = d @ s[:, 0]
            assert np.max(np.abs(rho - np.outer(v, v.conj()) / np.vdot(v, v).real)) < 1e-15


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
    assert fock._gw_density(p, fock.DEFAULT_TAIL_TOL).dim == dim
    # the peak is the positivity check of the wave density: rho, numpy's
    # working copy and the Cholesky factor
    assert arrays < 3.01, arrays
    # the marginal holds a dim x L band and L x L products, L = 188 levels here
    gw = fock.build_gw_density(p, dim)
    arrays = peak_arrays(lambda: fock.evolved_bar_density(gw, gamma_t), dim)
    assert arrays < 1.1, arrays


# 95 and 321 give squeeze chains of both parities with even and odd lengths,
# and a displacement chain whose odd length leaves a null vector in the SVD
@pytest.mark.parametrize("dim", [1, 2, 3, 8, 21, 40, 95, 321])
def test_structured_operators_match_dense_expm(dim):
    a = fock.annihilation(dim)
    for alpha in (0.0, 1.3, -0.7, 1.1j, complex(0.8, -0.6), 2.3 * np.exp(0.4j)):
        d, leakage = displacement(alpha, dim)
        ref = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(d - ref)) < 1e-12, alpha
        assert leakage < 1e-12
    for r, theta in ((0.4, 0.0), (1.0, math.pi), (0.7, 2.1), (1.2, -0.5)):
        xi = r * np.exp(1j * theta)
        s, leakage = squeeze(r, theta, dim)
        ref = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (a.T @ a.T)))
        assert np.max(np.abs(s - ref)) < 1e-12, (r, theta)
        assert leakage < 1e-12


@pytest.mark.parametrize("size", [1, 2, 3, 8, 21, 160])
def test_chain_exponential_leading_columns(size):
    # build_gw_density forms a squeeze chain on the levels the thermal floor
    # keeps only: they are the leading columns of the whole exponential
    c = -0.6 * np.sqrt(np.arange(1.0, size) * np.arange(2.0, size + 1))
    whole = fock._level_order(fock._chain_expm(c)[0])
    for columns in range(1, min(size, 6) + 1):
        lead, leakage = fock._chain_expm(c, columns)
        assert lead.shape == (size, columns) and leakage < 1e-12
        np.testing.assert_allclose(fock._level_order(lead), whole[:, :columns], rtol=0, atol=1e-15)


def test_chain_exponential_at_the_growth_cutoff():
    dim = fock.GROWTH_MAX_DIM
    _, leakage = displacement(2.0 * np.exp(0.3j), dim)
    assert leakage < 1e-12
    _, leakage = squeeze(1.0, 0.7, dim)
    assert leakage < 1e-12
    for total_n in (7, 12):
        u = fock._block_unitary(total_n, 0.0)
        np.testing.assert_allclose(u, np.eye(total_n + 1), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 21, 95])
def test_zero_coupling_chains_are_exactly_the_identity(dim):
    # alpha = 0 and r = 0 run through the same products as every other state;
    # the real rotations they meet are exact: the displacement chain on dim
    # levels, each squeeze chain on its parity's levels, whole or on its
    # leading columns
    for size in {dim, (dim + 1) // 2, max(1, dim // 2)}:
        for columns in (size, (size + 1) // 2):
            rotation, leakage = fock._chain_expm(np.zeros(size - 1), columns)
            assert np.array_equal(fock._level_order(rotation), np.eye(size)[:, :columns])
            assert leakage == 0.0


@pytest.mark.parametrize("dim", [2, 3, 10, 47, 96, 151, 199, 200])
def test_wave_density_is_exactly_hermitian(dim):
    # rho = N N† is written as a symmetric real part and an antisymmetric
    # imaginary part, so rho equals its conjugate transpose bit for bit
    rng = np.random.default_rng(dim)
    for nbar in (0.0, 0.3, 1.7):
        p = GwSignalParams(
            alpha=complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            r=rng.uniform(0.0, 1.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            nbar=nbar,
        )
        rho = fock.build_gw_density(p, dim, tail_tol=1.0).rho
        assert np.array_equal(rho, rho.conj().T), (p, dim)
        assert np.all(rho.diagonal().imag == 0.0)


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
    dim = fock._gw_density(p, 1e-10).dim
    small = bar_on_cutoff(p, 0.6, dim, 3).rho[2, 2].real
    large = bar_on_cutoff(p, 0.6, min(2 * dim, fock.MAX_DIM), 3).rho[2, 2].real
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
        # every level asked for: every entry of the marginal
        rho_bar, tail = fock.evolved_bar_density(gw, gt, dim)
        assert np.max(np.abs(rho_bar - expected)) < 1e-12, gt
        assert tail == rho_bar[dim - 1, dim - 1].real
        # the levels that carry the mass: the leading block
        rho_bar, tail = fock.evolved_bar_density(gw, gt)
        levels = len(rho_bar)
        assert np.max(np.abs(rho_bar - expected[:levels, :levels])) < 1e-12, gt
        assert tail == rho_bar[levels - 1, levels - 1].real


@pytest.mark.parametrize(
    ("p", "gamma_t", "dim"),
    [
        # no exchange: the marginal is the vacuum, yet the levels asked for come back
        (GwSignalParams(alpha=0.8, r=0.3, theta=0.4, nbar=0.4), 0.0, 40),
        # a full swap: the marginal is the wave, whose top level is not negligible
        (GwSignalParams(alpha=0.8, r=0.3, theta=0.4, nbar=0.4), math.pi / 2, 40),
        (GwSignalParams(alpha=0.8 - 0.5j, r=0.6, theta=1.1, nbar=1.2), 0.9, 120),
        # the anti-squeezed corner on the largest cutoff the search may reach
        (GwSignalParams(alpha=2j, r=1.0, theta=0.0, nbar=2.0), 0.7, fock.GROWTH_MAX_DIM),
    ],
)
def test_level_cut_marginal_is_the_leading_block(p, gamma_t, dim):
    # the marginal is built on the fewest levels past which its population and
    # its n^2-weighted population are at most MARGINAL_FLOOR of their totals,
    # and never on fewer than asked for; those are the full marginal's leading block
    n_max = 5
    gw = fock.build_gw_density(p, dim)
    full, _ = fock.evolved_bar_density(gw, gamma_t, dim)
    cut, tail = fock.evolved_bar_density(gw, gamma_t, n_max + 1)
    levels = len(cut)
    assert cut.shape == (levels, levels) and n_max + 1 <= levels <= dim
    ulp = np.finfo(float).eps * np.max(np.abs(full))
    assert np.max(np.abs(cut - full[:levels, :levels])) <= 4 * ulp
    assert tail == cut[-1, -1].real
    pops = full.diagonal().real
    weighted = pops * np.arange(dim) ** 2

    def within_floor(first: int, slack: float) -> bool:
        floor = fock.MARGINAL_FLOOR * slack
        return all(x[first:].sum() <= floor * x.sum() for x in (pops, weighted))

    # the slack covers the rounding of the sums, not the floor
    assert within_floor(levels, 1 + 1e-9)
    if levels > n_max + 1:
        assert not within_floor(levels - 1, 1 - 1e-9)
    assert (levels == n_max + 1) == (gamma_t == 0.0)
    with pytest.raises(ValueError, match=f"min_levels must lie in 1..{dim}, got {dim + 1}"):
        fock.evolved_bar_density(gw, gamma_t, dim + 1)


@pytest.mark.parametrize("gt", [0.0, math.pi / 2, math.pi, -0.7])
def test_bar_marginal_at_growth_max_dim(gt):
    # the anti-squeezed corner forced onto the largest cutoff the search may reach,
    # where the rescaled factors of the marginal come closest to the double range
    p = GwSignalParams(alpha=2j, r=1.0, theta=0.0, nbar=2.0)
    bar = bar_on_cutoff(p, gt, fock.GROWTH_MAX_DIM, 7)
    assert bar.dim >= 7 and np.all(np.isfinite(bar.rho))
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
    assert fock.MAX_DIM < fock._gw_density(p, fock.DEFAULT_TAIL_TOL).dim <= fock.GROWTH_MAX_DIM
    bar = evolved_bar_moments(p, gt)
    for n in range(7):
        assert abs(prob_n_generating(bar, n) - table[n]) < 1e-8
