"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion; plain ``pytest`` enforces the same assertions silently.
"""

import math
import time
from pathlib import Path

import numpy as np

from gravoptics import fock
from gravoptics.cli import main as cli_main
from gravoptics.correlations import (
    g2_bar_after_evolution,
    g2_ideal,
    g2_main_text_formula,
    g2_open,
    g2_ratio_estimator,
)
from gravoptics.counting import (
    closed_form_p012,
    delta_p1_lowest_order,
    delta_pn,
    evolved_bar_moments,
    poisson_pn,
    prob_n_generating,
    prob_n_hafnian,
    scaled_state,
)
from gravoptics.dynamics import (
    OpenChannelParams,
    evolve_open,
    lyapunov_bar_marginal,
    squeezing_transfer_variance,
)
from gravoptics.physical import graviton_flux
from gravoptics.states import GwSignalParams, make_gw_state
from gravoptics.tomography import (
    LocalOscillator,
    classical_lo_noise,
    delta_g2_terms,
    quadrature_variance_normal,
    reconstruct_gaussian,
    separate_terms_by_beta,
    simulate_phase_sweep,
    snr_quadrature,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def shared_draws(count: int = 200):
    rng = np.random.default_rng(20240901)
    draws = []
    for _ in range(count):
        mag = rng.uniform(0.0, 2.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        draws.append(
            (
                GwSignalParams(
                    alpha=mag * np.exp(1j * phase),
                    r=rng.uniform(0.0, 1.0),
                    theta=rng.uniform(0.0, 2.0 * math.pi),
                    nbar=rng.uniform(0.0, 2.0),
                ),
                rng.uniform(0.02, 0.5 * math.pi),
            )
        )
    return draws


def test_criterion_01_poisson_baseline():
    start = time.time()
    worst = 0.0
    for mag in (0.3, 0.9, 1.5, 2.0):
        for gt in (0.05, 0.4, 0.9, 1.3, 1.5):
            p = GwSignalParams(alpha=mag)
            mu = mag * mag * math.sin(gt) ** 2
            bar = evolved_bar_moments(p, gt)
            for n in range(6):
                worst = max(worst, abs(prob_n_hafnian(bar, n) - poisson_pn(mu, n)))
    elapsed = time.time() - start
    report(
        "1 Poisson baseline",
        worst < 1e-12 and elapsed < 1.0,
        f"max abs error {worst:.3e} (tol 1e-12), runtime {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_02_and_03_oracle_and_route_equivalence():
    start = time.time()
    draws = shared_draws(200)
    worst_oracle = 0.0
    worst_route = 0.0
    worst_tail = 0.0
    for p, gt in draws:
        bar_state = fock.oracle_bar_state(p, gt)
        worst_tail = max(worst_tail, bar_state.tail_mass)
        table = np.diag(bar_state.rho).real[:6]
        bar = evolved_bar_moments(p, gt)
        for n in range(6):
            ph = prob_n_hafnian(bar, n)
            worst_oracle = max(worst_oracle, abs(ph - table[n]))
            worst_route = max(worst_route, abs(ph - prob_n_generating(bar, n)))
    elapsed = time.time() - start
    report(
        "2 Oracle equivalence",
        worst_oracle < 1e-8 and worst_tail < 1e-8 and elapsed < 120.0,
        f"200 draws, max |pipeline - oracle| {worst_oracle:.3e} (tol 1e-8), "
        f"max tail {worst_tail:.2e}, runtime {elapsed:.1f} s (< 120 s)",
    )
    report(
        "3 Route equivalence",
        worst_route < 1e-10,
        f"max |hafnian - generating| {worst_route:.3e} (tol 1e-10)",
    )


def test_criterion_04_g2_transfer_law_and_adjudication():
    p = GwSignalParams(alpha=complex(0.9, 0.5), r=0.6, theta=1.3, nbar=0.4)
    values = [g2_bar_after_evolution(p, gt).g2 for gt in (1e-6, 1e-3, 0.1, 1.0)]
    spread = max(values) - min(values)
    _, _, oracle = fock.oracle_moments_and_g2(p, 0.4, tail_tol=1e-12)
    moment_err = abs(values[0] - oracle)
    main_text_err = abs(g2_main_text_formula(p) - oracle)
    report(
        "4 g2 transfer law",
        spread < 1e-9 and moment_err < 1e-8 and main_text_err > 1e-3,
        f"spread {spread:.2e} over 4 decades (tol 1e-9); moment route vs oracle "
        f"{moment_err:.2e}; adjudication: cross term is cos(theta - 2 arg alpha) "
        f"(moment derivation), published sin(2 theta) variant off by {main_text_err:.2e}",
    )


def test_criterion_05_landmark_g2_values():
    coherent = abs(g2_ideal(GwSignalParams(alpha=1.4)).g2 - 1.0)
    thermal = abs(g2_ideal(GwSignalParams(nbar=1.2)).g2 - 2.0)
    displaced_ok = True
    for mag in np.linspace(0.1, 2.0, 8):
        for nb in np.linspace(0.0, 2.0, 8):
            rep = g2_ideal(GwSignalParams(alpha=mag, nbar=nb))
            displaced_ok &= rep.g2 <= 2.0 + 1e-12
    squeezed_ok = True
    for r in np.linspace(0.2, 1.5, 8):
        rep = g2_ideal(GwSignalParams(r=r))
        squeezed_ok &= rep.g2 <= 3.0 + 1.0 / math.sinh(r) ** 2 + 1e-9
    report(
        "5 Landmark g2 values",
        coherent < 1e-10 and thermal < 1e-9 and displaced_ok and squeezed_ok,
        f"coherent err {coherent:.1e} (tol 1e-10), thermal err {thermal:.1e} (tol 1e-9), "
        "displaced-thermal <= 2, squeezed-vacuum bound respected",
    )


def test_criterion_06_ratio_test_order():
    p = GwSignalParams(alpha=1.0, r=0.3, nbar=0.2)
    target = g2_ideal(p).g2
    gts = np.geomspace(1e-3, 3e-2, 7)
    errs = []
    for gt in gts:
        p0, p1, p2 = closed_form_p012(p, gt)
        errs.append(abs(g2_ratio_estimator(p0, p1, p2) - target))
    slope = np.polyfit(np.log(gts), np.log(errs), 1)[0]
    report(
        "6 Ratio-test convergence order",
        abs(slope - 2.0) < 0.1,
        f"fitted order {slope:.3f} (target 2.0 +- 0.1)",
    )


def test_criterion_07_flux_landmark():
    n_grav = graviton_flux(1e-22, 2.0 * math.pi * 100.0)
    report(
        "7 Graviton-flux landmark",
        5e34 <= n_grav <= 2e35,
        f"n_grav = {n_grav:.3e} for h = 1e-22 at 2 pi x 100 Hz (window [5e34, 2e35])",
    )


def test_criterion_08_fig2_endpoints():
    gt = 0.1
    p0 = GwSignalParams(*scaled_state(1.0, 0.0, "squeezed", gt))
    s = math.sin(gt)
    endpoint = delta_pn(p0.detector_scalars(s * s), 1).ratio[1]
    endpoint_ok = endpoint is not None and abs(endpoint) < 1e-10

    x_total, fraction = 1.0, 0.3
    gts = [0.2, 0.1, 0.05, 0.025, 0.0125]
    errs = []
    for g in gts:
        p = GwSignalParams(*scaled_state(x_total, fraction, "squeezed", g))
        s = math.sin(g)
        exact = delta_pn(p.detector_scalars(s * s), 1).ratio[1]
        n_grav = x_total / g**2
        errs.append(abs(exact - delta_p1_lowest_order(fraction * n_grav, n_grav, g)))
    slope = np.polyfit(np.log(gts), np.log(errs), 1)[0]
    report(
        "8 Fig. 2 endpoints",
        endpoint_ok and abs(slope - 2.0) < 0.2,
        f"delta ratio at fraction 0: {endpoint:.1e} (tol 1e-10); "
        f"expansion error order {slope:.3f} (target 2.0 +- 0.2)",
    )


def test_criterion_09_squeezing_transfer():
    worst = 0.0
    for r in (0.25, 0.5, 0.75, 1.0):
        for gt in (0.3, 0.8, 1.4):
            closed = squeezing_transfer_variance(r, gt).min_var
            oracle, _ = fock.oracle_min_quadrature_variance(GwSignalParams(r=r), gt)
            worst = max(worst, abs(closed - oracle))
    report(
        "9 Squeezing transfer",
        worst < 1e-8,
        f"max |closed - oracle minimization| {worst:.3e} (tol 1e-8, r <= 1)",
    )


def test_criterion_10_open_dynamics():
    p = GwSignalParams(alpha=1.0, r=0.5, nbar=0.3)
    late = abs(g2_open(p, OpenChannelParams(kappa=50.0, nbar=0.4), 0.5, 1.0).g2 - 2.0)
    closed_red = abs(g2_open(p, OpenChannelParams(kappa=0.0), 0.5, 1.0).g2 - g2_ideal(p).g2)
    gw_state = make_gw_state(GwSignalParams(alpha=complex(0.7, 0.3), r=0.6, theta=0.8, nbar=0.9))
    ch = OpenChannelParams(kappa=1.3, nbar=0.2)
    closed = evolve_open(gw_state, 0.8, ch, 0.9)
    ode = lyapunov_bar_marginal(gw_state, 0.8, ch, 0.9)
    lyap = max(np.max(np.abs(closed.cov - ode.cov)), np.max(np.abs(closed.disp - ode.disp)))
    report(
        "10 Open dynamics",
        late < 1e-6 and closed_red < 1e-12 and lyap < 1e-8,
        f"g2(kt=50) - 2 = {late:.1e} (tol 1e-6); kappa=0 reduction {closed_red:.1e} "
        f"(tol 1e-12); Lyapunov ODE vs closed form {lyap:.2e} (tol 1e-8)",
    )


def test_criterion_11_tomography_round_trip():
    true = GwSignalParams(alpha=1.0, r=0.5, theta=0.7, nbar=0.2)
    gt, beta = 0.3, 1.7
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    sweep = simulate_phase_sweep(true, beta, gt, phis)
    dg0 = delta_g2_terms(true, LocalOscillator(beta, 0.0), gt).dG0
    rec = reconstruct_gaussian(sweep, gt, beta, dg0)
    rel = max(
        abs(rec.alpha_mag - 1.0),
        abs(rec.r - 0.5) / 0.5,
        abs(rec.theta - 0.7) / 0.7,
        abs(rec.nbar - 0.2) / 0.2,
    )

    eps, phi = 1e-3, 0.8
    betas = [0.5, 1.0, 1.5, 2.2, 3.0, 4.0]
    coeffs = separate_terms_by_beta(
        [(b, delta_g2_terms(true, LocalOscillator(b, phi, epsilon=eps), gt).total) for b in betas]
    )
    unit = delta_g2_terms(true, LocalOscillator(1.0, phi, epsilon=eps), gt)
    sep_err = max(
        abs(coeffs[0] - unit.dG0),
        abs(coeffs[1] - unit.dG1),
        abs(coeffs[2] - unit.dG2),
        abs(coeffs[3]),
        abs(coeffs[4] - classical_lo_noise(LocalOscillator(1.0, phi, epsilon=eps), gt)),
    )

    matched = math.sqrt(math.sin(gt) ** 2 * quadrature_variance_normal(true, phi))
    snr_err = abs(
        snr_quadrature(true, LocalOscillator(matched, phi, epsilon=eps), gt) - 1.0 / (4.0 * eps)
    )
    report(
        "11 Tomography round trip",
        rel < 1e-6 and sep_err < 1e-9 and snr_err < 1e-9,
        f"max relative parameter error {rel:.2e} (tol 1e-6); beta-separation error "
        f"{sep_err:.2e} (tol 1e-9); matched-beta SNR error {snr_err:.2e} (tol 1e-9)",
    )


def test_criterion_12_large_squeezing_limits():
    r, gt, beta, amag = 5.0, 0.01, 2.0, 1.5
    # displacement referenced to the drive: pi/4 to the squeezing axis
    p = GwSignalParams(alpha=amag * np.exp(1j * math.pi / 4.0), r=r, theta=0.0)
    worst1 = worst2 = 0.0
    for phi in (0.4, 1.0, 2.1, 2.8):
        terms = delta_g2_terms(p, LocalOscillator(beta, phi), gt)
        lim1 = 0.5 * beta * math.sin(gt) ** 3 * math.cos(phi) * amag * math.exp(2 * r)
        lim2 = 0.5 * beta**2 * math.sin(gt) ** 2 * math.sin(phi) ** 2 * math.exp(2 * r)
        worst1 = max(worst1, abs(terms.dG1 / lim1 - 1.0))
        worst2 = max(worst2, abs(terms.dG2 / lim2 - 1.0))
    report(
        "12 Large-squeezing limits",
        worst1 < 1e-3 and worst2 < 1e-3,
        f"r = 5, theta = 0: dG1 rel err {worst1:.2e}, dG2 rel err {worst2:.2e} (tol 1e-3)",
    )


def test_criterion_13_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        code = cli_main(
            ["probs", "--config", str(SCRIPTS / "fig2_probs.json"), "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    csv_ok = outs[0] == outs[1]

    touts = []
    for name in ("a", "b"):
        out = tmp_path / f"t{name}.json"
        code = cli_main(
            [
                "tomo",
                "--config",
                str(SCRIPTS / "tomo_roundtrip.json"),
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        touts.append(out.read_bytes())
    json_ok = touts[0] == touts[1]
    report(
        "13 Determinism",
        csv_ok and json_ok,
        "repeated runs with identical config and seed are byte-identical (csv and json)",
    )
