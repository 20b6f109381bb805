"""The 80-digit referee against textbook limits.

Run from the root of a checkout with ``python -m pytest perfbench``; the
referee never imports gravoptics, so these tests need mpmath alone.
"""

import math

import mpmath
import pytest

import referee


def close(value, expected, rel=1e-60):
    return abs(value - expected) <= rel * abs(expected)


@pytest.mark.parametrize("alpha, gamma_t", [(0.7, 0.3), (1.5 - 0.4j, 1.1), (2.0j, 1.5)])
def test_coherent_input_gives_poisson_counts(alpha, gamma_t):
    got = referee.counts(referee.direct(alpha=alpha), gamma_t, 8)
    with mpmath.workdps(referee.DPS):
        mean = mpmath.sin(mpmath.mpf(gamma_t)) ** 2 * abs(mpmath.mpc(alpha)) ** 2
        for n in range(9):
            poisson = mpmath.exp(-mean) * mean**n / mpmath.factorial(n)
            assert close(got.p[n], poisson)
            assert close(got.p_coherent[n], poisson)
            assert abs(got.ratio[n]) < mpmath.mpf(10) ** -70


@pytest.mark.parametrize("nbar, gamma_t", [(0.3, 0.4), (2.0, 1.2), (7.5, 0.05)])
def test_undisplaced_thermal_input_gives_geometric_counts(nbar, gamma_t):
    got = referee.pn(referee.direct(nbar=nbar), gamma_t, 8)
    with mpmath.workdps(referee.DPS):
        mean = mpmath.sin(mpmath.mpf(gamma_t)) ** 2 * mpmath.mpf(nbar)
        for n in range(9):
            assert close(got[n], mean**n / (1 + mean) ** (n + 1))


def test_counts_sum_to_one():
    state = referee.direct(alpha=0.8 + 0.3j, r=0.9, theta=2.1, nbar=0.6)
    assert abs(1 - mpmath.fsum(referee.pn(state, 0.9, 200))) < 1e-15


@pytest.mark.parametrize(
    "state, expected",
    [
        (referee.direct(alpha=1.3 - 0.2j), 1.0),
        (referee.direct(nbar=0.7), 2.0),
        (referee.direct(r=0.8, theta=1.0), 3.0 + 1.0 / math.sinh(0.8) ** 2),
    ],
)
def test_landmark_g2(state, expected):
    g2, g2_minus_1 = referee.g2(state)
    assert close(g2, expected, 1e-15)
    assert abs(g2_minus_1 - (expected - 1.0)) < 1e-15


def test_squeezed_vacuum_g2_at_full_precision():
    # 3 + 1/sinh^2 r with r taken as the exact binary value of the float 0.8
    with mpmath.workdps(referee.DPS):
        expected = 3 + 1 / mpmath.sinh(mpmath.mpf(0.8)) ** 2
    assert close(referee.g2(referee.direct(r=0.8))[0], expected)


def test_scaled_parameterization_resolves_the_cancellation():
    # x_total = 1 at gamma_t = 1e-17: g2 - 1 is ~2 fraction_q^2, far below
    # double-precision rounding of g2 itself, and still exact here
    for frac in (1e-9, 1e-12):
        _, g2_minus_1 = referee.g2(referee.Scaled(1.0, frac, "squeezed"), 1e-17)
        assert close(g2_minus_1, 2 * mpmath.mpf(frac) ** 2, 1e-6)
        ratio = referee.counts(referee.Scaled(1.0, frac, "squeezed"), 1e-17, 2).ratio
        assert all(0 < abs(r) < 10 * frac**2 for r in ratio)


def test_scaled_thermal_state_matches_direct_parameters():
    gamma_t, x_total, frac = 0.1, 2.0, 0.25
    n_grav = x_total / gamma_t**2
    direct = referee.direct(alpha=math.sqrt(n_grav * (1 - frac)), nbar=frac * n_grav)
    scaled = referee.Scaled(x_total, frac, "thermal")
    for a, b in zip(referee.pn(direct, gamma_t, 4), referee.pn(scaled, gamma_t, 4)):
        assert close(a, b, 1e-14)
