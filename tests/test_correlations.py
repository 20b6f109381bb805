import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravoptics import fock
from gravoptics.correlations import (
    g2_bar_after_evolution,
    g2_ideal,
    g2_main_text_formula,
    g2_open,
    g2_open_closed_form,
    g2_ratio_estimator,
    g2_thermal_detector,
    g2_thermal_detector_closed_form,
)
from gravoptics.counting import closed_form_p012, poisson_pn
from gravoptics.dynamics import OpenChannelParams
from gravoptics.states import GwSignalParams


def test_number_moment_closed_form():
    p = GwSignalParams(alpha=complex(0.6, 0.8), r=0.7, theta=1.2, nbar=0.9)
    got = g2_ideal(p).mean_n
    expect = abs(p.alpha) ** 2 + (0.5 + p.nbar) * math.cosh(2 * p.r) - 0.5
    assert abs(got - expect) < 1e-12 * expect


def test_coherent_fourth_moment():
    # <a†^2 a^2> = <n^2> - <n> is |alpha|^4 for a coherent state
    rep = g2_ideal(GwSignalParams(alpha=complex(1.1, -0.4)))
    assert abs(rep.mean_n2 - rep.mean_n - abs(complex(1.1, -0.4)) ** 4) < 1e-12


def test_moments_match_oracle_to_1e8():
    p = GwSignalParams(alpha=complex(0.9, -0.4), r=0.7, theta=0.9, nbar=0.8)
    rep = g2_ideal(p)
    mean_n = fock.oracle_normal_moment(p, 1, 1, tail_tol=1e-11)
    m22 = fock.oracle_normal_moment(p, 2, 2, tail_tol=1e-11)
    assert abs(rep.mean_n - mean_n) < 1e-8
    assert abs(rep.mean_n2 - (m22 + mean_n)) < 1e-8


def test_g2_landmarks():
    assert abs(g2_ideal(GwSignalParams(alpha=1.3)).g2 - 1.0) < 1e-10
    assert abs(g2_ideal(GwSignalParams(nbar=0.7)).g2 - 2.0) < 1e-9
    # displaced thermal closed form
    a2, nb = 1.44, 0.6
    got = g2_ideal(GwSignalParams(alpha=1.2, nbar=0.6)).g2
    expect = 1.0 + (2 * a2 * nb + nb * nb) / (a2 + nb) ** 2
    assert abs(got - expect) < 1e-12
    # squeezed vacuum saturates the bound 3 + 1/sinh^2 r
    r = 0.8
    got = g2_ideal(GwSignalParams(r=r)).g2
    assert abs(got - (3.0 + 1.0 / math.sinh(r) ** 2)) < 1e-12


def test_g2_vacuum_undefined_variant():
    rep = g2_ideal(GwSignalParams())
    assert rep.g2 is None
    assert "vacuum" in rep.note
    assert rep.mean_n == 0.0


@given(st.floats(1e-3, 2.0), st.floats(0.0, 2.0))
def test_displaced_thermal_bounded_by_two(alpha_mag, nbar):
    rep = g2_ideal(GwSignalParams(alpha=alpha_mag, nbar=nbar))
    assert rep.g2 is not None
    assert rep.g2 <= 2.0 + 1e-12


def test_underflow_amplitude_reports_undefined():
    rep = g2_ideal(GwSignalParams(alpha=1e-200))
    assert rep.g2 is None


def test_main_text_formula_adjudication():
    # the moment route matches the oracle; the published sin(2 theta) variant
    # does not once displacement and squeezing coexist
    p = GwSignalParams(alpha=1.0, r=0.5, theta=0.0, nbar=0.0)
    _, _, oracle = fock.oracle_moments_and_g2(p, 0.6, tail_tol=1e-12)
    moment = g2_ideal(p).g2
    main_text = g2_main_text_formula(p)
    assert abs(moment - oracle) < 1e-9
    assert abs(main_text - oracle) > 1e-2


def test_transfer_law_gamma_t_independence():
    p = GwSignalParams(alpha=complex(0.8, 0.5), r=0.6, theta=1.1, nbar=0.4)
    values = [g2_bar_after_evolution(p, gt).g2 for gt in (1e-6, 1e-3, 0.1, 1.0)]
    assert max(values) - min(values) < 1e-9
    assert abs(values[0] - g2_ideal(p).g2) < 1e-12


def test_transfer_matches_naive_state_route_at_moderate_coupling():
    from gravoptics.counting import evolved_bar_moments

    p = GwSignalParams(alpha=1.0, r=0.4, theta=0.7, nbar=0.3)
    for gt in (0.1, 1.0):
        m = evolved_bar_moments(p, gt)
        mu = complex(m.sigma[0, 0])
        ntilde = float(m.sigma[0, 1].real) - 0.5
        abar = complex(m.abar[0])
        a2 = abs(abar) ** 2
        m22 = (
            a2 * a2
            + 2.0 * (np.conj(abar) ** 2 * mu).real
            + 4.0 * a2 * ntilde
            + 2.0 * ntilde**2
            + abs(mu) ** 2
        )
        naive = m22 / (a2 + ntilde) ** 2
        assert abs(naive - g2_bar_after_evolution(p, gt).g2) < 1e-9


def test_ratio_estimator_exact_cases():
    mu = 0.5
    p0, p1, p2 = (poisson_pn(mu, n) for n in range(3))
    assert abs(g2_ratio_estimator(p0, p1, p2) - 1.0) < 1e-14
    # geometric thermal: P_n = (1/2)^(n+1)
    assert abs(g2_ratio_estimator(0.5, 0.25, 0.125) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        g2_ratio_estimator(0.5, 0.0, 0.1)


def test_ratio_estimator_second_order_error():
    p = GwSignalParams(alpha=1.0, r=0.3, nbar=0.2)
    target = g2_ideal(p).g2
    errs = {}
    for gt in (1e-3, 1e-4):
        p0, p1, p2 = closed_form_p012(p, gt)
        errs[gt] = abs(g2_ratio_estimator(p0, p1, p2) - target)
    assert 80.0 < errs[1e-3] / errs[1e-4] < 125.0


def test_thermal_detector_reduction_and_bound():
    p = GwSignalParams(alpha=1.0, r=0.6)
    ideal = g2_ideal(p).g2
    for gt in (0.3, 1.0):
        got = g2_thermal_detector(p, 0.0, gt).g2
        assert abs(got - ideal) < 1e-12
    # nbar = 0 displaced squeezed: 1 <= g2 <= 3 + 1/sinh^2 r over t >= 0
    bound = 3.0 + 1.0 / math.sinh(0.6) ** 2
    for n_th in (0.05, 0.3, 1.0):
        for gt in np.linspace(0.01, math.pi / 2, 17):
            got = g2_thermal_detector(p, n_th, gt).g2
            assert 1.0 - 1e-12 <= got <= bound + 1e-9


def test_thermal_detector_discontinuity_flag_and_t0():
    rep = g2_thermal_detector(GwSignalParams(alpha=1.0), 0.0, 0.0)
    assert rep.g2 is None and "discontinuity" in rep.note
    rep = g2_thermal_detector(GwSignalParams(alpha=1.0), 0.4, 0.0)
    assert abs(rep.g2 - 2.0) < 1e-12


def test_thermal_detector_closed_form_equivalence():
    p = GwSignalParams(alpha=1.1, r=0.5, theta=0.9, nbar=0.4)
    for n_th in (0.2, 1.3):
        for gt in (0.25, 0.8):
            a = g2_thermal_detector(p, n_th, gt).g2
            b = g2_thermal_detector_closed_form(p, n_th, gt)
            assert abs(a - b) < 1e-12


def test_small_detector_noise_is_negligible_when_subdominant():
    # n_th = 1e-9 with n_th << n_grav (gt)^2 by 1e3: within 1e-6 of ideal,
    # and the residual contamination scales linearly in n_th
    p = GwSignalParams(alpha=1.0, nbar=0.5)
    gt = math.sqrt(1e-6 * 1e3 / p.mean_occupation)
    assert p.mean_occupation * gt * gt > 1e3 * 1e-9
    dev = abs(g2_thermal_detector(p, 1e-9, gt).g2 - g2_ideal(p).g2)
    assert dev < 1e-6
    dev10 = abs(g2_thermal_detector(p, 1e-8, gt).g2 - g2_ideal(p).g2)
    assert abs(dev10 / dev - 10.0) < 0.1


def test_g2_open_limits_and_closed_form():
    p = GwSignalParams(alpha=1.0, r=0.5, nbar=0.3)
    ideal = g2_ideal(p).g2
    rep = g2_open(p, OpenChannelParams(kappa=0.0, nbar=1.0), 0.4, 2.0)
    assert abs(rep.g2 - ideal) < 1e-12
    rep = g2_open(p, OpenChannelParams(kappa=50.0, nbar=0.3), 0.4, 1.0)
    assert abs(rep.g2 - 2.0) < 1e-6
    for t in (0.2, 1.0):
        ch = OpenChannelParams(kappa=1.5, nbar=0.3)
        assert abs(g2_open(p, ch, 0.4, t).g2 - g2_open_closed_form(p, ch, 0.4, t)) < 1e-12


def test_g2_open_heating_condition_report():
    p = GwSignalParams(alpha=30.0)
    ch = OpenChannelParams(kappa=0.01, nbar=1.0)
    rep = g2_open(p, ch, 0.03, 1.0)
    assert rep.params["gamma_th_t"] == pytest.approx(0.01)
    assert rep.params["n_grav_gt2"] == pytest.approx(900.0 * 0.03**2)
    assert rep.params["heating_condition_met"] == (0.01 < 900.0 * 0.03**2)


@given(
    st.floats(0.1, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2.0),
)
@settings(max_examples=40)
def test_quantum_bound_on_g2(alpha_mag, r, theta, nbar):
    p = GwSignalParams(alpha=alpha_mag, r=r, theta=theta, nbar=nbar)
    rep = g2_ideal(p)
    assert rep.g2 >= 1.0 - 1.0 / rep.mean_n - 1e-10
