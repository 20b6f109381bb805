"""Production numbers against the benchmark's 80-digit mpmath referee.

The referee (``perfbench/referee.py``) is loaded by path and shares no code
with the package.  It covers the checked-in figure configs, the deep slice of
the paper's regime (x_total 1, gamma_t 1e-17, squeezed), where g2 - 1 comes
from cancellation, and the log-G P_n kernel over a seeded desk box.
"""

import csv
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gravoptics import counting
from gravoptics.cli import main
from gravoptics.states import GwSignalParams

ROOT = Path(__file__).resolve().parent.parent
REFEREE = ROOT / "perfbench" / "referee.py"
SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="module")
def referee():
    # loading it leaves no bytecode cache behind in perfbench/
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_referee", REFEREE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def run_rows(tmp_path, command: str, config: Path) -> list[dict]:
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    with out.open() as fh:
        return list(csv.DictReader(fh))


def test_fig2_pn_from_n3_matches_referee(tmp_path, referee):
    rows = run_rows(tmp_path, "probs", SCRIPTS / "fig2_probs.json")
    worst = 0.0
    for row in rows:
        n = int(row["n"])
        if n < 3:
            continue
        state = referee.Scaled(1.0, float(row["fraction_q"]), "squeezed")
        worst = max(worst, abs(float(row["p_n"]) - float(referee.pn(state, 1e-17, n)[n])))
    assert worst <= 1e-16, worst


def test_fig3_g2_matches_referee(tmp_path, referee):
    rows = run_rows(tmp_path, "g2", SCRIPTS / "fig3_g2.json")
    assert len(rows) == 1000
    worst_g2 = worst_m1 = 0.0
    for row in rows:
        state = referee.Scaled(float(row["x_total"]), float(row["fraction_q"]), "squeezed")
        g2, g2m1 = (float(v) for v in referee.g2(state, 1e-17))
        worst_g2 = max(worst_g2, abs(float(row["g2"]) - g2) / g2)
        worst_m1 = max(worst_m1, abs(float(row["g2_minus_1"]) - g2m1) / g2m1)
    assert worst_g2 <= 4e-15, worst_g2
    assert worst_m1 <= 1e-13, worst_m1


def test_deep_slice_g2_minus_1_matches_referee(tmp_path, referee):
    # g2 - 1 ~ 2 fraction_q^2 here: 1.0 + it rounds away every digit from 1e-9 on
    config = tmp_path / "deep.json"
    config.write_text(
        '{"gw": {"x_total": 1.0, "split": "squeezed"}, "detector": {"gamma_t": 1e-17},'
        ' "sweep": [{"parameter": "fraction_q", "min": 1e-3, "max": 1e-12, "steps": 4,'
        ' "scale": "log"}]}'
    )
    rows = run_rows(tmp_path, "g2", config)
    for row, fraction in zip(rows, (1e-3, 1e-6, 1e-9, 1e-12)):
        assert math.isclose(float(row["fraction_q"]), fraction, rel_tol=1e-12)
        _, g2m1 = referee.g2(referee.Scaled(1.0, float(row["fraction_q"]), "squeezed"), 1e-17)
        assert abs(float(row["g2_minus_1"]) - float(g2m1)) <= 1e-13 * float(g2m1), row
        assert float(row["g2_minus_2"]) == float(row["g2_minus_1"]) - 1.0


def desk_draws():
    # |alpha| <= 2 sqrt 2 over the disc, nbar <= 2, r <= 1 on half the draws
    # and r <= 2 on the rest; then the coherent case (D = 1) and gamma_t = pi/2
    rng = np.random.default_rng(20261018)
    draws = []
    for i in range(40):
        alpha = 2.0 * math.sqrt(2.0 * rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        p = GwSignalParams(
            alpha=complex(alpha),
            r=rng.uniform(0.0, 2.0 if i % 2 else 1.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            nbar=rng.uniform(0.0, 2.0),
        )
        draws.append((p, rng.uniform(0.05, 0.5 * math.pi)))
    draws.append((GwSignalParams(alpha=complex(1.7, -0.9)), 0.9))
    draws.append(
        (GwSignalParams(alpha=complex(0.6, 1.1), r=1.3, theta=2.1, nbar=0.4), 0.5 * math.pi)
    )
    draws.append((GwSignalParams(r=2.0, theta=0.4), 0.5 * math.pi))
    return draws


def test_log_series_pn_matches_referee_on_desk_box(referee):
    n_max = 32
    worst = 0.0
    for p, gamma_t in desk_draws():
        s = math.sin(gamma_t)
        table = counting.pn_series(p.detector_scalars(s * s), n_max)
        ref = referee.pn(referee.direct(p.alpha, p.r, p.theta, p.nbar), gamma_t, n_max)
        worst = max(worst, max(abs(value - float(exact)) for value, exact in zip(table, ref)))
    assert worst <= 1e-15, worst
