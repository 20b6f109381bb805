import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravoptics import fock
from gravoptics.counting import (
    _finalize_probability,
    closed_form_p012,
    counting_matrices,
    delta_p1_coherent_dominated,
    delta_p1_lowest_order,
    delta_pn,
    evolved_bar_moments,
    generating_pn_table,
    loop_hafnian,
    poisson_pn,
    rejected_p01_variant,
    prob_n_generating,
    prob_n_hafnian,
    scaled_params,
    aligned_closed_form_p01,
)
from gravoptics.states import GwSignalParams, make_gw_state, to_ladder

params = st.builds(
    GwSignalParams,
    alpha=st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False),
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi),
    nbar=st.floats(0.0, 2.0),
)


def test_poisson_examples():
    assert abs(poisson_pn(1.0, 1) - math.exp(-1.0)) < 1e-15
    assert poisson_pn(0.0, 0) == 1.0
    assert poisson_pn(0.0, 3) == 0.0
    assert abs(poisson_pn(2.0, 3) - math.exp(-2.0) * 8.0 / 6.0) < 1e-15


def test_counting_matrices_examples():
    vac = counting_matrices(evolved_bar_moments(GwSignalParams(), 0.3))
    assert np.max(np.abs(vac.amat)) < 1e-14
    assert np.max(np.abs(vac.fvec)) < 1e-14
    assert abs(vac.prefactor - 1.0) < 1e-14

    # fully swapped coherent / thermal states
    coh = counting_matrices(evolved_bar_moments(GwSignalParams(alpha=1.2), math.pi / 2))
    assert abs(coh.prefactor - math.exp(-1.44)) < 1e-12
    th = counting_matrices(evolved_bar_moments(GwSignalParams(nbar=0.8), math.pi / 2))
    assert abs(th.prefactor - 1.0 / 1.8) < 1e-12


def test_evolved_bar_moments_matches_state_pipeline():
    from gravoptics.dynamics import bar_marginal
    from gravoptics.states import make_vacuum

    p = GwSignalParams(alpha=complex(0.7, -0.2), r=0.6, theta=1.3, nbar=0.9)
    gt = 0.8
    direct = evolved_bar_moments(p, gt)
    via_state = to_ladder(bar_marginal(make_gw_state(p), make_vacuum(1), gt))
    assert np.max(np.abs(direct.sigma - via_state.sigma)) < 1e-12
    assert np.max(np.abs(direct.abar - via_state.abar)) < 1e-12


def test_loop_hafnian_small_cases():
    assert loop_hafnian(np.zeros((0, 0))) == 1.0
    b2 = np.array([[2.0, 5.0], [5.0, 3.0]])
    assert abs(loop_hafnian(b2) - (5.0 + 6.0)) < 1e-14

    rng = np.random.default_rng(3)
    a1, a2 = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    f1, f2 = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    b4 = np.array(
        [
            [f1, a1, a2, a1],
            [a1, f2, a1, a2],
            [a2, a1, f1, a1],
            [a1, a2, a1, f2],
        ]
    )
    expect = (a2 + f2 * f2) * (a2 + f1 * f1) + 4 * f1 * f2 * a1 + 2 * a1 * a1
    assert abs(loop_hafnian(b4) - expect) < 1e-12


def test_loop_hafnian_validation():
    with pytest.raises(ValueError):
        loop_hafnian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        loop_hafnian(np.zeros((20, 20)))
    with pytest.raises(ValueError):
        loop_hafnian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_coherent_matches_poisson_to_1e12():
    for mag in (0.5, 1.3, 2.0):
        for gt in (0.1, 0.8, 1.5):
            mu = mag * mag * math.sin(gt) ** 2
            p = GwSignalParams(alpha=mag)
            for n in range(6):
                ph = prob_n_hafnian(evolved_bar_moments(p, gt), n)
                assert abs(ph - poisson_pn(mu, n)) < 1e-12


def test_thermal_geometric_distribution():
    # fully swapped thermal nbar = 1: P_n = (1/2)(1/2)^n
    bar = evolved_bar_moments(GwSignalParams(nbar=1.0), math.pi / 2)
    for n in range(5):
        assert abs(prob_n_hafnian(bar, n) - 0.5**(n + 1)) < 1e-12


def test_squeezed_vacuum_parity():
    p = GwSignalParams(r=0.6)
    bar = evolved_bar_moments(p, math.pi / 2)
    assert prob_n_hafnian(bar, 1) < 1e-15
    assert prob_n_hafnian(bar, 3) < 1e-15
    assert prob_n_hafnian(bar, 2) > 1e-3
    oracle = fock.oracle_pn_table(p, math.pi / 2, 3)
    assert abs(prob_n_hafnian(bar, 2) - oracle[2]) < 1e-10


@given(params, st.floats(0.05, math.pi / 2))
@settings(max_examples=30, deadline=None)
def test_generating_equals_hafnian(p, gt):
    bar = evolved_bar_moments(p, gt)
    for n in range(6):
        assert abs(prob_n_hafnian(bar, n) - prob_n_generating(bar, n)) < 1e-10


def test_one_series_table_holds_every_level():
    # a table to degree n_max gives each (n, n) level the bits of a table to degree n
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = GwSignalParams(
            alpha=complex(*rng.uniform(-2.0, 2.0, 2)),
            r=rng.uniform(0.0, 1.0),
            theta=rng.uniform(0.0, 2 * math.pi),
            nbar=rng.uniform(0.0, 2.0),
        )
        bar = evolved_bar_moments(p, rng.uniform(0.05, math.pi / 2))
        table = generating_pn_table(bar, 8)
        assert all(table[: n + 1] == generating_pn_table(bar, n) for n in range(9))


def test_closed_form_examples():
    assert closed_form_p012(GwSignalParams(), 0.7) == (1.0, 0.0, 0.0)
    p = GwSignalParams(alpha=1.0, r=0.5, nbar=0.4)
    p0, p1, p2 = closed_form_p012(p, 1e-9)
    assert abs(p0 - 1.0) < 1e-12 and p1 < 1e-12 and p2 < 1e-12

    p = GwSignalParams(alpha=math.sqrt(2.0), r=0.4, nbar=0.3)
    gt = math.asin(math.sqrt(0.2))
    cf = closed_form_p012(p, gt)
    bar = evolved_bar_moments(p, gt)
    for n in range(3):
        assert abs(cf[n] - prob_n_hafnian(bar, n)) < 1e-9


@given(params, st.floats(0.05, math.pi / 2))
@settings(max_examples=30, deadline=None)
def test_closed_form_matches_hafnian(p, gt):
    cf = closed_form_p012(p, gt)
    bar = evolved_bar_moments(p, gt)
    for n in range(3):
        assert abs(cf[n] - prob_n_hafnian(bar, n)) < 1e-10 * max(1.0, cf[n])


def test_aligned_closed_form_matches_general():
    for a, r, nb, gt in [
        (1.2, 0.5, 0.3, 0.6),
        (0.0, 0.8, 0.0, 1.0),
        (2.0, 0.0, 1.5, 0.3),
        (0.7, 1.0, 2.0, 1.4),
    ]:
        p = GwSignalParams(alpha=a, r=r, nbar=nb)
        wt = aligned_closed_form_p01(p, gt)
        cf = closed_form_p012(p, gt)
        assert abs(wt[0] - cf[0]) < 1e-12
        assert abs(wt[1] - cf[1]) < 1e-12
    with pytest.raises(ValueError):
        aligned_closed_form_p01(GwSignalParams(r=0.3, theta=0.4), 0.5)


def test_rejected_denominator_variant_deviates():
    p = GwSignalParams(alpha=math.sqrt(2.0), r=0.4, nbar=0.3)
    gt = math.asin(math.sqrt(0.2))
    printed = rejected_p01_variant(p, gt)
    cf = closed_form_p012(p, gt)
    assert abs(printed[0] - cf[0]) > 1e-3  # deviates far beyond the route tolerance


def test_probability_table_normalization():
    p = GwSignalParams(alpha=0.8, r=0.3, nbar=0.4)
    total = sum(generating_pn_table(evolved_bar_moments(p, 0.5), 8))
    # modest occupation: the n <= 8 window carries nearly all the mass
    assert 0.0 <= 1.0 - total < 1e-6


def test_singular_sigma_q_rejected():
    from gravoptics.states import LadderMoments

    bad = LadderMoments(
        1, np.array([[0.0, -0.5], [-0.5, 0.0]]), np.zeros(2, dtype=complex)
    )
    with pytest.raises(ValueError):
        counting_matrices(bad)


def test_p0_is_the_prefactor_same_code_path():
    bar = evolved_bar_moments(GwSignalParams(alpha=0.7, r=0.4, theta=1.0, nbar=0.6), 0.8)
    assert prob_n_hafnian(bar, 0) == counting_matrices(bar).prefactor


def test_finalize_probability_clamp_policy():
    assert _finalize_probability(-5e-13, 0.0, "x") == 0.0
    with pytest.raises(ValueError):
        _finalize_probability(-1e-9, 0.0, "x")
    with pytest.raises(ValueError):
        _finalize_probability(0.5, 1.0, "x")


def test_delta_pn_zero_for_coherent():
    p = scaled_params(1.0, 0.0, "squeezed", 0.2)
    rows = delta_pn(p, 0.2, 3)
    assert [d.n for d in rows] == [0, 1, 2, 3]
    for d in rows:
        assert d.delta == 0.0
        assert d.ratio == 0.0


def test_delta_pn_ratio_flag():
    d = delta_pn(GwSignalParams(alpha=0.0, nbar=0.4), 1e-10, 1)[1]
    # reference P_1 underflows to 0 at vanishing coupling: ratio undefined
    assert d.ratio is None or d.pn_coherent > 0.0


def test_delta_p1_expansion_converges_at_second_order():
    # the lowest-order law describes the displaced-squeezed family with the
    # displacement along the squeezed axis; errors shrink as (gamma_t)^2 at
    # fixed x_total = n_grav (gamma_t)^2
    x_total, fraction = 1.0, 0.3
    gts = [0.2, 0.1, 0.05, 0.025, 0.0125]
    errs = []
    for gt in gts:
        p = scaled_params(x_total, fraction, "squeezed", gt)
        exact = delta_pn(p, gt, 1)[1].ratio
        n_grav = x_total / gt**2
        approx = delta_p1_lowest_order(fraction * n_grav, n_grav, gt)
        errs.append(abs(exact - approx))
    slope = np.polyfit(np.log(gts), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_delta_p1_coherent_dominated_regime():
    # |alpha|^2 >> n_q: the (1/2) n_grav [(2 nbar + 1) e^{2r} - 1] (gt)^4 form
    # describes the thermal family and the anti-aligned squeezed family
    gt = 1e-3
    n_grav = 1.0 / gt**2
    p_th = scaled_params(1.0, 1e-4, "thermal", gt)
    exact = delta_pn(p_th, gt, 1)[1].delta
    approx = delta_p1_coherent_dominated(p_th, n_grav, gt)
    assert abs(exact - approx) / abs(approx) < 1e-2

    p_sq = scaled_params(1.0, 1e-4, "squeezed", gt)
    anti = GwSignalParams(alpha=p_sq.alpha, r=p_sq.r, theta=math.pi)
    exact = delta_pn(anti, gt, 1)[1].delta
    approx = delta_p1_coherent_dominated(anti, n_grav, gt)
    assert abs(exact - approx) / abs(approx) < 1e-2
    # and the n_q scaling form holds as an order-of-magnitude statement
    n_q = anti.n_quantum
    scaling = 0.5 * n_grav * n_q * gt**4 * math.exp(-n_grav * gt * gt)
    assert 0.1 < abs(exact) / scaling < 10.0
    # Delta P_1 scales linearly in n_q across a decade of fractions
    anti2 = GwSignalParams(
        alpha=scaled_params(1.0, 1e-3, "squeezed", gt).alpha,
        r=scaled_params(1.0, 1e-3, "squeezed", gt).r,
        theta=math.pi,
    )
    ratio = delta_pn(anti2, gt, 1)[1].delta / exact
    assert abs(ratio - anti2.n_quantum / n_q) / (anti2.n_quantum / n_q) < 0.05


def test_scaled_params_splits():
    gt = 0.2
    coh = scaled_params(1.0, 0.0, "thermal", gt)
    assert coh.r == 0.0 and coh.nbar == 0.0
    assert abs(abs(coh.alpha) ** 2 - 1.0 / gt**2) < 1e-6

    th = scaled_params(1.0, 0.4, "thermal", gt)
    assert th.r == 0.0
    assert abs(th.nbar - 0.4 / gt**2) < 1e-9  # mostly thermal: nbar = n_q

    sq = scaled_params(1.0, 0.4, "squeezed", gt)
    assert sq.nbar == 0.0
    assert abs(math.sinh(sq.r) ** 2 - 0.4 / gt**2) < 1e-6  # n_q = sinh^2 r

    with pytest.raises(ValueError):
        scaled_params(1.0, 1.2, "thermal", gt)
    with pytest.raises(ValueError):
        scaled_params(1.0, 0.2, "other", gt)
    with pytest.raises(ValueError):
        scaled_params(1.0, 0.2, "thermal", 0.0)


def test_astrophysical_scale_pipeline_is_finite():
    # n_grav ~ 1e35 through the scaled route: every kernel stays conditioned
    gt = 1e-17
    p = scaled_params(1.0, 0.01, "squeezed", gt)
    assert p.mean_occupation > 1e33
    p0, p1, p2 = closed_form_p012(p, gt)
    assert 0.0 < p0 < 1.0 and 0.0 < p1 < 1.0 and 0.0 < p2 < 1.0
    bar = evolved_bar_moments(p, gt)
    assert abs(prob_n_hafnian(bar, 1) - p1) < 1e-12
    d = delta_pn(p, gt, 1)[1]
    assert abs(d.ratio) < 1.0
