"""Seeded inputs of the three workloads, as rounds of ops.

A round is a fixed list of ops made from the seed; a run repeats its round
until the measured time is used up, so every run attempts whole rounds and
the share of ops that fail is the same in every run.  The make-up of each
round (how many ops of each kind, their sizes, the parameter boxes) is fixed
here and documented in README.md; the seed only draws the parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Deep slice: the paper's regime, where Delta P_n / P_{n,c} and g2 - 1 come
# from cancellation (x_total = 1, gamma_t = 1e-17, squeezed split).
DEEP_GAMMA_T = 1e-17
DEEP_FRACTIONS = (1e-9, 1e-12)
DEEP_N_MAX = 7

# Per-point wall cost of a probs sweep point by n_max, in ms, measured on a
# 2-core 2.0 GHz Xeon with one BLAS thread.  Only used to size configs so
# that every sweeps op costs about TARGET_MS: fixed numbers, never measured
# at run time, so the inputs depend on the seed alone.
PROBS_POINT_MS = {3: 1.0, 4: 1.8, 5: 3.7, 6: 8.4, 7: 18.0, 8: 38.0}
TARGET_MS = 25.0
G2_POINTS = 1000  # ~23 ms per grid
TOMO_PHASES = 2048  # ~22 ms per round trip
TOMO_BETAS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]

# Oracle box: acceptance criterion 2's box.  r and nbar sit at the centres
# of an ORACLE_GRID grid, so the corner (|alpha|, r, nbar) = (2, 1, 2),
# where the Fock cutoff cap makes the oracle fail, is never drawn.
ORACLE_GRID = (8, 4)  # r levels x nbar levels: 32 draws per round
ORACLE_R_MAX = 1.0
ORACLE_NBAR_MAX = 2.0
ORACLE_ALPHA_MAX = 2.0
ORACLE_GT = (0.02, 0.5 * math.pi)
ORACLE_N_MAX = 5

# The five commands of scripts/reproduce_figure_data.sh.
CLI_COMMANDS = (
    ("probs", ("--config", "scripts/fig2_probs.json")),
    ("g2", ("--config", "scripts/fig3_g2.json")),
    ("tomo", ("--config", "scripts/tomo_roundtrip.json", "--seed", "11")),
    ("physical", ("--config", "scripts/weber_bar.json")),
    ("oracle-check", ()),
)


@dataclass
class Op:
    """One timed operation and what its checker needs to know."""

    kind: str  # probs | g2 | tomo | physical | oracle-check | oracle
    argv: list = field(default_factory=list)  # CLI arguments
    config: dict | None = None  # the scenario config the argv points at
    known_fault: bool = False  # deep-slice op: fails until the named fault is mended
    params: dict | None = None  # oracle draw: alpha, r, theta, nbar, gamma_t, with_g2
    key: str = ""  # stable name, used to cache the referee's answers


def sweep_points(config: dict) -> int:
    """Number of grid points a config's sweep axes span (1 without a sweep)."""
    return math.prod(int(axis["steps"]) for axis in config.get("sweep", []))


def _write_config(work: Path, name: str, config: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(config))
    return str(path)


def _direct_gw(rng: np.random.Generator) -> dict:
    return {
        "alpha_mag": float(rng.uniform(0.2, 2.0)),
        "alpha_phase": float(rng.uniform(0.0, 2.0 * math.pi)),
        "r": float(rng.uniform(0.0, 1.0)),
        "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
        "nbar": float(rng.uniform(0.0, 2.0)),
    }


_DIRECT_AXES = {
    "r": (0.0, 1.0),
    "nbar": (0.0, 2.0),
    "alpha_mag": (0.2, 2.0),
    "theta": (0.0, 2.0 * math.pi),
    "gamma_t": (0.05, 1.5),
}


def _direct_axis(rng: np.random.Generator, name: str, steps: int) -> dict:
    lo, hi = _DIRECT_AXES[name]
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return {"parameter": name, "min": float(a), "max": float(b), "steps": steps, "scale": "lin"}


def _probs_config(rng: np.random.Generator, param: str, n_max: int) -> dict:
    points = max(1, round(TARGET_MS / PROBS_POINT_MS[n_max]))
    if param == "direct":
        gw = _direct_gw(rng)
        gamma_t = float(rng.uniform(0.05, 1.5))
        axis = str(rng.choice(list(_DIRECT_AXES)))
        sweep = [_direct_axis(rng, axis, points)] if points > 1 else []
    else:
        # fraction_q from 0 keeps a coherent point in every sweep; the first
        # non-zero fraction stays >= 4e-3, where today's Delta P_n is accurate
        gamma_t = float(10.0 ** rng.uniform(-17.0, -2.0))
        gw = {"x_total": float(10.0 ** rng.uniform(-0.6, 0.6)), "split": param}
        if points > 1:
            gw["fraction_q"] = 0.0
            sweep = [
                {
                    "parameter": "fraction_q",
                    "min": 0.0,
                    "max": float(rng.uniform(0.1, 0.9)),
                    "steps": points,
                    "scale": "lin",
                }
            ]
        else:
            gw["fraction_q"] = float(rng.uniform(0.01, 0.9))
            sweep = []
    cfg = {"gw": gw, "detector": {"gamma_t": gamma_t}, "n_max": n_max, "output": {"format": "csv"}}
    if sweep:
        cfg["sweep"] = sweep
    return cfg


def _g2_config(rng: np.random.Generator, param: str) -> dict:
    a = int(rng.integers(20, 51))
    b = round(G2_POINTS / a)
    if param == "direct":
        names = rng.choice(["r", "nbar", "alpha_mag", "theta"], size=2, replace=False)
        return {
            "gw": _direct_gw(rng),
            "sweep": [_direct_axis(rng, str(names[0]), a), _direct_axis(rng, str(names[1]), b)],
            "output": {"format": "csv"},
        }
    return {
        "gw": {"x_total": 1.0, "fraction_q": 0.0, "split": param},
        "detector": {"gamma_t": float(10.0 ** rng.uniform(-17.0, -2.0))},
        "sweep": [
            {
                "parameter": "fraction_q",
                "min": float(10.0 ** rng.uniform(-6.0, -3.0)),
                "max": float(rng.uniform(0.5, 0.99)),
                "steps": a,
                "scale": "log",
            },
            {
                "parameter": "x_total",
                "min": float(10.0 ** rng.uniform(-0.6, -0.1)),
                "max": float(10.0 ** rng.uniform(0.1, 0.6)),
                "steps": b,
                "scale": "log",
            },
        ],
        "output": {"format": "csv"},
    }


def _tomo_config(rng: np.random.Generator) -> dict:
    # r, nbar and |alpha| bounded away from 0 keep theta and alpha identifiable
    return {
        "gw": {
            "alpha_mag": float(rng.uniform(0.3, 2.0)),
            "alpha_phase": float(rng.uniform(0.0, 2.0 * math.pi)),
            "r": float(rng.uniform(0.1, 1.0)),
            "theta": float(rng.uniform(0.3, 2.0 * math.pi - 0.3)),
            "nbar": float(rng.uniform(0.1, 2.0)),
        },
        "detector": {"gamma_t": float(rng.uniform(0.1, 1.4))},
        "noise": {"epsilon": 0.0},
        "beta_mag": float(rng.uniform(0.5, 4.0)),
        "phases": TOMO_PHASES,
        "betas": TOMO_BETAS,
        "output": {"format": "json"},
    }


def _deep_configs() -> list[tuple[str, dict]]:
    out = []
    for frac in DEEP_FRACTIONS:
        gw = {"x_total": 1.0, "fraction_q": frac, "split": "squeezed"}
        det = {"gamma_t": DEEP_GAMMA_T}
        out.append(("probs", {"gw": gw, "detector": det, "n_max": DEEP_N_MAX}))
        out.append(("g2", {"gw": gw, "detector": det}))
    return out


def sweeps_round(seed: int, work: Path) -> list[Op]:
    """40 ops: 18 probs, 9 g2 grids, 9 tomo round trips and 4 deep-slice ops."""
    rng = np.random.default_rng(seed)
    specs: list[tuple[str, dict, bool]] = []
    for n_max in range(3, 9):
        for param in ("thermal", "squeezed", "direct"):
            specs.append(("probs", _probs_config(rng, param, n_max), False))
    for param in ("thermal", "squeezed", "direct"):
        for _ in range(3):
            specs.append(("g2", _g2_config(rng, param), False))
    for _ in range(9):
        specs.append(("tomo", _tomo_config(rng), False))
    specs += [(kind, cfg, True) for kind, cfg in _deep_configs()]
    ops = []
    for i, (kind, cfg, deep) in enumerate(specs):
        key = f"{kind}-{i}"
        argv = [kind, "--config", _write_config(work, key, cfg)]
        if kind == "tomo":
            argv += ["--seed", str(seed)]
        ops.append(Op(kind, argv, cfg, known_fault=deep, key=key))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def sweeps_warmup(work: Path) -> list[Op]:
    """Small fixed configs of each kind, run once before timing starts."""
    direct = {"alpha_mag": 1.0, "alpha_phase": 0.3, "r": 0.5, "theta": 0.7, "nbar": 0.2}
    configs = [
        ("probs", {"gw": direct, "detector": {"gamma_t": 0.3}, "n_max": 4}),
        (
            "g2",
            {
                "gw": direct,
                "sweep": [
                    {"parameter": "r", "min": 0.1, "max": 0.9, "steps": 5},
                    {"parameter": "nbar", "min": 0.1, "max": 0.9, "steps": 5},
                ],
            },
        ),
        ("tomo", {"gw": direct, "detector": {"gamma_t": 0.3}, "phases": 16}),
    ]
    return [
        Op(kind, [kind, "--config", _write_config(work, f"warmup-{kind}", cfg)], cfg, key=f"warmup-{kind}")
        for kind, cfg in configs
    ]


def oracle_round(seed: int) -> list[Op]:
    """32 draws, one per (r, nbar) cell; a quarter of them also ask for g2.

    r and nbar set the Fock cutoff, and the cost grows like its cube, so they
    take the cell centres: every round then has the same mix of cheap and
    expensive draws, and the seed draws the rest.  |alpha| is Latin-hypercube
    sampled (uniform over the disc), the phases and gamma_t are uniform.
    """
    rng = np.random.default_rng(seed)
    gr, gn = ORACLE_GRID
    n = gr * gn
    radius = ORACLE_ALPHA_MAX * np.sqrt((rng.permutation(n) + rng.uniform(size=n)) / n)
    ops = []
    for i in range(gr):
        for j in range(gn):
            params = {
                "alpha": complex(radius[i * gn + j] * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))),
                "r": ORACLE_R_MAX * (i + 0.5) / gr,
                "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
                "nbar": ORACLE_NBAR_MAX * (j + 0.5) / gn,
                "gamma_t": float(rng.uniform(*ORACLE_GT)),
                "with_g2": (i + j) % 4 == 0,
            }
            ops.append(Op("oracle", params=params, key=f"oracle-{i}-{j}"))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def oracle_warmup() -> list[Op]:
    params = {"alpha": 1.0 + 0.5j, "r": 0.5, "theta": 0.7, "nbar": 0.5, "gamma_t": 0.7, "with_g2": True}
    return [Op("oracle", params=params, key="warmup-oracle")]


def cli_round(seed: int) -> list[Op]:
    """The five figure-data commands, in a seeded order."""
    rng = np.random.default_rng(seed)
    ops = []
    for name, args in CLI_COMMANDS:
        cfg = None
        if "--config" in args:
            cfg = json.loads(Path(args[args.index("--config") + 1]).read_text())
        ops.append(Op(name, [name, *args], cfg, key=f"cli-{name}"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
