"""Command-line front end: parameter sweeps, tomography round trips, checks.

Subcommands
-----------
probs        excitation probabilities and coherent-reference deviations
g2           second-order coherence over a two-axis state sweep
tomo         simulated homodyne-correlation tomography round trip
oracle-check cross-route validation suite (exit 2 on any tolerance breach)
physical     coupling / flux / threshold calculator

Configs are JSON (schema in the README); outputs are CSV or JSON with fixed
column order and 17-significant-digit floats, so identical configs and seeds
reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import counting, fock, tomography
from .correlations import (
    g2_bar_after_evolution,
    g2_ideal,
    g2_main_text_formula,
    g2_open,
    g2_open_closed_form,
    g2_ratio_estimator,
    g2_thermal_detector,
    g2_thermal_detector_closed_form,
    wick_g2_minus_1,
)
from .dynamics import (
    OpenChannelParams,
    evolve_open,
    lyapunov_bar_marginal,
    squeezing_transfer_variance,
)
from .physical import DetectorConfig, coupling_gamma, graviton_flux, noise_thresholds
from .states import GwSignalParams, check_wave, detector_scalars, each, make_gw_state
from .tomography import LocalOscillator

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

# upper bounds of the array lengths a config sets, each far above any checked-in value:
# a larger one is a config error before anything is allocated
MAX_PHASES = 10**6
MAX_STEPS = 10**4
# the top-level sections; every other top-level key goes to ScenarioConfig.extra
SECTIONS = ("gw", "detector", "noise", "sweep", "output")

# gw keys (and sweep axes) each wave parameterization reads
SCALED_KEYS = ("x_total", "fraction_q", "split")
POLAR_KEYS = ("alpha_mag", "alpha_phase", "r", "theta", "nbar")
CARTESIAN_KEYS = ("alpha_re", "alpha_im", "r", "theta", "nbar")

# detector keys of a physical detector (the alternative is gamma_t alone),
# with the lower bound each number must exceed (">") or reach (">=")
PHYSICAL_KEYS = {
    "mass": ">",
    "length": ">",
    "omega_ell": ">",
    "ell": ">",
    "gw_volume": ">",
    "quality_factor": ">",
    "temperature": ">=",
    "nu": ">",
    "t": ">=",
}
PHYSICAL_REQUIRED = ("mass", "length", "omega_ell")
NOISE_KEYS = ("epsilon",)
OUTPUT_KEYS = ("path", "format")


class ConfigError(Exception):
    """Configuration problem, reported with the offending key path."""


def _check_integer(value, key: str, lo: int, hi: float = math.inf) -> None:
    """Reject all but a JSON integer in [lo, hi] (an integral float such as 3.0 counts)."""
    try:
        integral = type(value) in (int, float) and float(value).is_integer()
    except OverflowError:  # an integer beyond float range
        integral = False
    if not integral or not lo <= value <= hi:
        raise ConfigError(f"{key}: must be an integer in [{lo}, {hi}], got {value!r}")


def _check_number(value, key: str, bound: str = "") -> None:
    """Reject all but a finite JSON number, > 0 or >= 0 when bound says so."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite or (bound == ">" and value <= 0) or (bound == ">=" and value < 0):
        need = f" {bound} 0" if bound else ""
        raise ConfigError(f"{key}: must be a finite number{need}, got {value!r}")


def _check_drive(value, key: str, bound: str) -> None:
    """A drive amplitude: the tomography terms raise it to the fourth power."""
    _check_number(value, key, bound)
    v = float(value)
    if not math.isfinite(v * v * v * v):
        raise ConfigError(f"{key}: {value!r} overflows: |beta|^4 must be finite")


def _check_keys(section: dict, name: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown key (choose from {', '.join(known)})")


def _physical_detector(det: dict) -> tuple[DetectorConfig, float, float, float]:
    """(config, nu, t, gamma_g) of a physical detector with a finite gamma_g > 0 and gamma_g t."""
    # DetectorConfig holds the defaults of its own keys; nu and t are not among them
    given = {key: int(v) if key == "ell" else float(v) for key, v in det.items()}
    cfg = DetectorConfig(**{key: v for key, v in given.items() if key not in ("nu", "t")})
    nu = given.get("nu", cfg.omega_ell)
    t = given.get("t", 0.0)
    try:
        gamma = coupling_gamma(cfg, nu)
    except (OverflowError, ZeroDivisionError):  # a power or quotient beyond float range
        gamma = math.inf
    if not (0.0 < gamma < math.inf and math.isfinite(gamma * t)):
        raise ConfigError(
            f"detector: the coupling gamma_g = {gamma!r} and gamma_g * t = {gamma * t!r} "
            "must be finite, with gamma_g > 0"
        )
    return cfg, nu, t, gamma


@dataclass
class ScenarioConfig:
    """Validated scenario: wave state, coupling, noise, sweep axes, output."""

    gw: dict = field(default_factory=dict)
    detector: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    sweep: list = field(default_factory=list)
    output: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    # (config, nu, t, gamma_g) of a physical detector, computed once by validate()
    physical: tuple[DetectorConfig, float, float, float] | None = field(default=None, init=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        keys = set().union(*(reads for _, _, reads in SUBCOMMANDS.values()))
        unknown = sorted(set(raw) - keys)
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown top-level key (choose from {sorted(keys)})")
        for key in ("gw", "detector", "noise", "output"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(f"{key}: must be a JSON object")
        if not isinstance(raw.get("sweep", []), list):
            raise ConfigError("sweep: must be a list of axes")
        cfg = cls(
            gw=dict(raw.get("gw", {})),
            detector=dict(raw.get("detector", {})),
            noise=dict(raw.get("noise", {})),
            sweep=list(raw.get("sweep", [])),
            output=dict(raw.get("output", {})),
            extra={k: v for k, v in raw.items() if k not in SECTIONS},
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        self._check_detector()
        if len(self.sweep) > 2:
            raise ConfigError("sweep: at most 2 axes supported")
        sweepable = {"gamma_t", *SCALED_KEYS, *POLAR_KEYS, *CARTESIAN_KEYS} - {"split"}
        swept: dict[str, int] = {}
        for i, axis in enumerate(self.sweep):
            if not isinstance(axis, dict):
                raise ConfigError(f"sweep[{i}]: must be a JSON object")
            for key in ("parameter", "min", "max", "steps"):
                if key not in axis:
                    raise ConfigError(f"sweep[{i}].{key}: required")
            if not isinstance(axis["parameter"], str) or axis["parameter"] not in sweepable:
                raise ConfigError(
                    f"sweep[{i}].parameter: {axis['parameter']!r} is not sweepable "
                    f"(choose from {sorted(sweepable)})"
                )
            if axis["parameter"] in swept:
                raise ConfigError(
                    f"sweep[{i}].parameter: {axis['parameter']!r} is already swept by "
                    f"sweep[{swept[axis['parameter']]}]"
                )
            swept[axis["parameter"]] = i
            scale = axis.get("scale", "lin")
            if scale not in ("lin", "log"):
                raise ConfigError(f"sweep[{i}].scale: must be 'lin' or 'log'")
            for key in ("min", "max"):
                _check_number(axis[key], f"sweep[{i}].{key}", ">" if scale == "log" else "")
            _check_integer(axis["steps"], f"sweep[{i}].steps", 1, MAX_STEPS)
        self._check_parameterization()
        for key, value in self.gw.items():
            # a float is a number; check_wave rejects a non-finite one in grid order
            if key != "split" and type(value) is not float:
                _check_number(value, f"gw.{key}")
        self._check_extra()
        _check_keys(self.noise, "noise", NOISE_KEYS)
        if "epsilon" in self.noise:
            _check_number(self.noise["epsilon"], "noise.epsilon", ">=")
        _check_keys(self.output, "output", OUTPUT_KEYS)
        path = self.output.get("path")
        if path is not None and not (isinstance(path, str) and path):
            raise ConfigError(f"output.path: must be a non-empty string, got {path!r}")
        fmt = self.output.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError("output.format: must be 'csv' or 'json'")

    def check_reads(self, command: str) -> None:
        """Reject a top-level key the subcommand does not read; an empty section is absent."""
        reads = SUBCOMMANDS[command][2]
        for key in [key for key in SECTIONS if getattr(self, key)] + list(self.extra):
            if key not in reads:
                raise ConfigError(f"{key}: not read by {command} (it reads {', '.join(reads)})")

    def _check_extra(self) -> None:
        """The top-level numbers a subcommand reads."""
        extra = self.extra
        if "n_max" in extra:
            _check_integer(extra["n_max"], "n_max", 0, counting.PN_MAX)
        if "phases" in extra:
            _check_integer(extra["phases"], "phases", tomography.MIN_PHASES, MAX_PHASES)
        if "h_strain" in extra:
            _check_number(extra["h_strain"], "h_strain", ">")
        if "beta_mag" in extra:
            _check_drive(extra["beta_mag"], "beta_mag", ">")
        if "betas" in extra:
            betas = extra["betas"]
            if not isinstance(betas, list):
                raise ConfigError(f"betas: must be a list of drive amplitudes, got {betas!r}")
            for i, beta in enumerate(betas):
                _check_drive(beta, f"betas[{i}]", ">=")
            if len(set(betas)) < 5:
                raise ConfigError("betas: needs at least 5 distinct values to separate orders 0..4")

    def _check_detector(self) -> None:
        """gamma_t alone, or a physical detector whose every number is in range."""
        det = self.detector
        _check_keys(det, "detector", ("gamma_t", *PHYSICAL_KEYS))
        if "gamma_t" in det:
            others = [key for key in det if key != "gamma_t"]
            if others:
                raise ConfigError(
                    f"detector.{others[0]}: a physical-detector key is not read next to gamma_t"
                )
            _check_number(det["gamma_t"], "detector.gamma_t")
            return
        if det and not set(PHYSICAL_REQUIRED).issubset(det):
            raise ConfigError(
                f"detector: incomplete physical spec (needs {', '.join(PHYSICAL_REQUIRED)})"
            )
        for key, value in det.items():
            _check_number(value, f"detector.{key}", PHYSICAL_KEYS[key])
        if "ell" in det:
            _check_integer(det["ell"], "detector.ell", 1)
            if det["ell"] % 2 == 0:
                raise ConfigError(f"detector.ell: must be odd, got {det['ell']!r}")
        if det:
            self.physical = _physical_detector(det)

    @property
    def scaled(self) -> bool:
        """Whether the wave uses the scaled (x_total, ...) parameterization."""
        return "x_total" in self.gw or any(a["parameter"] == "x_total" for a in self.sweep)

    def _check_parameterization(self) -> None:
        """Every gw key and state sweep axis must be one the parameterization reads."""
        axes = [a["parameter"] for a in self.sweep]
        if self.scaled:
            name, reads = "scaled", SCALED_KEYS
        elif "alpha_mag" in self.gw or "alpha_mag" in axes:
            name, reads = "direct (alpha_mag, alpha_phase)", POLAR_KEYS
        else:
            name, reads = "direct (alpha_re, alpha_im)", CARTESIAN_KEYS
        where = [(f"gw.{key}", key) for key in self.gw]
        where += [(f"sweep[{i}].parameter", a) for i, a in enumerate(axes) if a != "gamma_t"]
        for path, key in where:
            if key not in reads:
                raise ConfigError(
                    f"{path}: {key!r} is not read by the {name} parameterization "
                    f"(it reads {', '.join(reads)})"
                )

    def gamma_t(self, columns: dict):
        """gamma_t: its grid column, detector.gamma_t, or gamma_g t of a physical detector."""
        if "gamma_t" in columns:
            return columns["gamma_t"]
        if "gamma_t" in self.detector:
            return float(self.detector["gamma_t"])
        if self.physical is None:
            raise ConfigError("detector: gamma_t or a physical detector is required")
        _, _, t, gamma = self.physical
        return gamma * t

    def wave(self, columns: dict) -> tuple:
        """Checked (alpha, r, theta, nbar) of the gw section over grid columns ({} for one point).

        A swept number is its column and an unswept one a float, so each
        array keeps the broadcast shape of the axes it depends on.
        """
        gw = {**self.gw, **{k: v for k, v in columns.items() if k != "gamma_t"}}

        def num(key: str):
            value = gw.get(key, 0.0)
            return value if isinstance(value, np.ndarray) else float(value)

        with np.errstate(all="ignore"):  # an overflow is a rejected point, not a warning
            try:
                if self.scaled:
                    gamma_t = self.gamma_t(columns)
                    split = str(gw.get("split", "thermal"))
                    state = counting.scaled_state(num("x_total"), num("fraction_q"), split, gamma_t)
                else:
                    if "alpha_mag" in gw:
                        alpha = num("alpha_mag") * each(_unit_phasor, num("alpha_phase"), complex)
                    else:
                        alpha = _complex(num("alpha_re"), num("alpha_im"))
                    state = alpha, num("r"), num("theta"), num("nbar")
                check_wave(*state)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"gw: {exc}") from exc
        return state


def _unit_phasor(phase: float) -> complex:
    return np.exp(1j * phase)


def _complex(re, im):
    """complex(re, im) of scalars or arrays; re + 1j * im would lose the sign of a zero re."""
    if not isinstance(re, np.ndarray) and not isinstance(im, np.ndarray):
        return complex(re, im)
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), complex)
    out.real, out.imag = re, im
    return out


def load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig.from_dict({})
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"--config: cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return ScenarioConfig.from_dict(raw)


def _axis_values(axis: dict) -> np.ndarray:
    steps = int(axis["steps"])
    lo, hi = float(axis["min"]), float(axis["max"])
    if steps == 1:
        return np.array([lo])
    if axis.get("scale", "lin") == "log":
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def _grid(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """The sweep axes by parameter, in broadcast shape ({} without a sweep).

    Axis i has shape (1, ..., steps_i, ..., 1), so the axes broadcast to the
    grid with the first axis slowest.
    """
    ndim = len(cfg.sweep)
    return {
        axis["parameter"]: _axis_values(axis).reshape([-1 if j == i else 1 for j in range(ndim)])
        for i, axis in enumerate(cfg.sweep)
    }


def _flat(values) -> list[np.ndarray]:
    """Arrays broadcast to their common grid shape, each flat in grid order."""
    shape = np.broadcast_shapes(*map(np.shape, values))
    return [np.broadcast_to(x, shape).ravel() for x in values]


def _over_grid(cfg: ScenarioConfig, columns: dict, evaluate):
    """evaluate(columns, wave) of the checked wave over the grid columns.

    A grid that is rejected or fails anywhere is replayed one point at a
    time in grid order, with Python floats, through the single-state path:
    the first point that raises is the error, as in a per-point loop.  The
    grid's own error stands if no point raises.
    """
    try:
        return evaluate(columns, cfg.wave(columns))
    except (ConfigError, ValueError):
        for values in zip(*(x.tolist() for x in _flat(columns.values()))):
            point = dict(zip(columns, values))
            evaluate(point, cfg.wave(point))
        raise


@dataclass
class GridRows:
    """Table rows over a grid: the axis values, then one column per grid point in grid order."""

    axes: list[np.ndarray]
    columns: list[np.ndarray]

    def __iter__(self):
        points = itertools.product(*(axis.tolist() for axis in self.axes))
        cells = zip(*(column.tolist() for column in self.columns))
        return (point + row for point, row in zip(points, cells))


def _cell(kind: type) -> str:
    if issubclass(kind, float):
        return "%.17g"
    return "%.0s" if kind is type(None) else "%s"  # None, an undefined value, prints empty


def _column(column: np.ndarray) -> tuple[str, list]:
    """The %-format of a grid column and its cells, formatted one by one where None mixes in."""
    cells = column.tolist()
    if column.dtype == object and None in cells:
        return "%s", [_cell(type(x)) % x for x in cells]
    return _cell(type(cells[0])), cells


def _grid_lines(rows: GridRows) -> str:
    """CSV lines of a grid table, each axis value formatted once and repeated over the grid."""
    texts = [["%.17g," % x for x in axis.tolist()] for axis in rows.axes]
    formats, cells = zip(*map(_column, rows.columns))
    line = "%s" + ",".join(formats) + "\n"
    points = map("".join, itertools.product(*texts))
    return (line * len(cells[0])) % tuple(itertools.chain.from_iterable(zip(points, *cells)))


def _row_lines(rows: list) -> str:
    """CSV lines of a list of rows, each cell formatted by its type."""
    return "".join(",".join(_cell(type(x)) % x for x in row) + "\n" for row in rows)


class Run(NamedTuple):
    """What a subcommand hands to the writer: a table, or a JSON document where header is None."""

    header: list[str] | None
    rows: list | GridRows | dict
    status: int = EXIT_OK


def _emit(header: list[str] | None, rows: list | GridRows | dict, out, fmt: str) -> None:
    """Write a table as CSV or JSON records, or a document (header None) as JSON."""
    if header is None or fmt == "json":
        payload = rows if header is None else [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        return
    body = _grid_lines(rows) if isinstance(rows, GridRows) else _row_lines(rows)
    out.write(",".join(header) + "\n" + body)


# ----------------------------------------------------------------------------
# subcommands


def cmd_probs(cfg: ScenarioConfig, args) -> Run:
    n_max = int(cfg.extra.get("n_max", 3))

    def table(columns: dict, wave: tuple) -> counting.DeltaPn:
        """P_n, P_{n,c} and their ratio of a checked wave, in one array pass."""
        s = each(math.sin, cfg.gamma_t(columns))
        return counting.delta_pn(detector_scalars(*wave, gain=s * s), n_max)

    columns = _grid(cfg)
    cfg.gamma_t(columns)  # a missing detector is reported before any wave
    d = _over_grid(cfg, columns, table)
    shape = [*(int(axis["steps"]) for axis in cfg.sweep), n_max + 1]
    header = [*columns, "n", "p_n", "p_n_coherent", "delta_ratio"]
    axes = [*(values.ravel() for values in columns.values()), np.arange(n_max + 1)]
    cells = [np.broadcast_to(x, shape).ravel() for x in (d.pn, d.pn_coherent, d.ratio)]
    return Run(header, GridRows(axes, cells))


def _g2_minus_1(columns: dict, wave: tuple) -> np.ndarray:
    """g2 - 1 of a checked wave in one array pass, in its broadcast shape."""
    with np.errstate(all="ignore"):  # the vacuum's 0 / 0 is a failure, not a warning
        g2_minus_1 = wick_g2_minus_1(detector_scalars(*wave))
    if not np.isfinite(g2_minus_1).all():
        raise ValueError("g2 undefined for the vacuum input at a sweep point")
    return g2_minus_1


def cmd_g2(cfg: ScenarioConfig, args) -> Run:
    sweep_names = [axis["parameter"] for axis in cfg.sweep]
    if not cfg.scaled and "gamma_t" in sweep_names:
        raise ConfigError(
            f"sweep[{sweep_names.index('gamma_t')}].parameter: g2 of direct gw parameters "
            "does not depend on gamma_t, so a gamma_t axis would give identical rows"
        )
    if not cfg.scaled and cfg.detector:
        raise ConfigError(
            "detector: g2 of direct gw parameters does not depend on the detector, "
            "so a detector section would not be read"
        )
    if cfg.scaled and not (cfg.detector or "gamma_t" in sweep_names):
        raise ConfigError("g2: the scaled parameterization needs detector.gamma_t")
    columns = _grid(cfg)
    g2_minus_1 = _over_grid(cfg, columns, _g2_minus_1)
    shape = [int(axis["steps"]) for axis in cfg.sweep]
    g2_minus_1 = np.broadcast_to(g2_minus_1, shape).ravel()
    g2 = 1.0 + g2_minus_1
    header = sweep_names + ["g2", "g2_minus_1", "g2_minus_2", "exceeds_thermal"]
    axes = [values.ravel() for values in columns.values()]
    return Run(header, GridRows(axes, [g2, g2_minus_1, g2_minus_1 - 1.0, (g2 > 2.0).astype(int)]))


def cmd_physical(cfg: ScenarioConfig, args) -> Run:
    if cfg.physical is None:
        raise ConfigError(f"physical: detector needs {', '.join(PHYSICAL_REQUIRED)}")
    dcfg, nu, t, gamma = cfg.physical
    strain = float(cfg.extra.get("h_strain", 1e-22))
    try:
        n_grav = graviton_flux(strain, nu)
    except (OverflowError, ZeroDivisionError):  # h_strain^2 or nu^2 beyond float range
        n_grav = math.inf
    if not 0.0 < n_grav < math.inf:
        raise ConfigError(
            f"h_strain: n_grav = h_strain^2 / (32 pi nu^2 t_planck^2) = {n_grav!r} "
            "must be finite and > 0"
        )
    gamma_t = gamma * t
    try:
        report = noise_thresholds(dcfg, nu, gamma_t, n_grav)
        thresholds = [report.gamma_th, report.n_th]
    except ZeroDivisionError:  # hbar Q or hbar omega_ell below float range
        thresholds = [math.inf]
    if not all(map(math.isfinite, [n_grav * gamma_t * gamma_t, *thresholds])):
        raise ConfigError(
            "detector: n_grav (gamma_g t)^2 and the noise thresholds k_B T / (hbar Q), "
            "k_B T / (hbar omega_ell) must be finite"
        )
    header = [
        "gamma_g",
        "n_grav",
        "gamma_t",
        "n_grav_gt2",
        "gamma_th",
        "n_th",
        "heating_ok",
        "occupation_ok",
    ]
    row = [
        gamma,
        n_grav,
        gamma_t,
        n_grav * gamma_t * gamma_t,
        *thresholds,
        # gamma_th and n_th do not depend on t; the two comparisons need t > 0
        int(report.heating_ok) if t > 0 else -1,
        int(report.occupation_ok) if t > 0 else -1,
    ]
    return Run(header, [row])


def cmd_tomo(cfg: ScenarioConfig, args) -> Run:
    if cfg.output.get("format", "json") != "json":
        raise ConfigError("output.format: tomo writes JSON only")
    gamma_t = cfg.gamma_t({})
    p = GwSignalParams(*cfg.wave({}))
    beta_mag = float(cfg.extra.get("beta_mag", 2.0))
    n_phases = int(cfg.extra.get("phases", 16))
    epsilon = float(cfg.noise.get("epsilon", 0.0))
    betas = [float(b) for b in cfg.extra.get("betas", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])]
    rng = np.random.default_rng(args.seed)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)

    sweep = tomography.simulate_phase_sweep(
        p, beta_mag, gamma_t, phis, epsilon=epsilon, rng=rng if epsilon > 0 else None
    )
    lo0 = LocalOscillator(beta_mag, 0.0, epsilon=epsilon)
    terms0 = tomography.delta_g2_terms(p, lo0, gamma_t)
    rec = tomography.reconstruct_gaussian(sweep, gamma_t, beta_mag, terms0.dG0)

    beta_sweep = [
        (b, tomography.delta_g2_terms(p, LocalOscillator(b, 0.0, epsilon=epsilon), gamma_t).total)
        for b in betas
    ]
    coeffs = tomography.separate_terms_by_beta(beta_sweep)

    vq = tomography.quadrature_variance_normal(p, lo0.phi)
    matched = math.sqrt(max(math.sin(gamma_t) ** 2 * vq, 0.0))
    snr = (
        tomography.snr_quadrature(p, LocalOscillator(matched, lo0.phi, epsilon=epsilon), gamma_t)
        if epsilon > 0 and matched > 0
        else math.inf
    )
    true_err = {
        "alpha_mag": abs(rec.alpha_mag - abs(p.alpha)),
        "r": abs(rec.r - p.r),
        "theta": abs((rec.theta - p.theta + math.pi) % (2 * math.pi) - math.pi),
        "nbar": abs(rec.nbar - p.nbar),
    }
    document = {
        "true": {
            "alpha_mag": abs(p.alpha),
            "alpha_phase": float(np.angle(p.alpha)),
            "r": p.r,
            "theta": p.theta,
            "nbar": p.nbar,
        },
        "recovered": {
            "alpha_mag": rec.alpha_mag,
            "alpha_phase": rec.alpha_phase,
            "r": rec.r,
            "theta": rec.theta,
            "nbar": rec.nbar,
            "residual": rec.residual,
            "theta_identifiable": rec.theta_identifiable,
            "alpha_identifiable": rec.alpha_identifiable,
        },
        "absolute_errors": true_err,
        "beta_polynomial_coefficients": [float(c) for c in coeffs],
        "snr_matched_beta": snr,
        "config_echo": {
            "gamma_t": gamma_t,
            "beta_mag": beta_mag,
            "phases": n_phases,
            "epsilon": epsilon,
            "seed": args.seed,
        },
    }
    return Run(None, document)


# ----------------------------------------------------------------------------
# oracle-check suite


def cmd_oracle_check(cfg: ScenarioConfig, args) -> Run:
    rng = np.random.default_rng(args.seed if args.seed is not None else 20240901)
    rows: list[list] = []

    def record(name: str, max_err: float, tol: float, detail: str = "") -> None:
        rows.append([name, max_err, tol, int(max_err < tol), detail])

    # Poisson baseline
    err = 0.0
    for mag in (0.4, 1.1, 2.0):
        for gt in (0.2, 0.9, 1.4):
            p = GwSignalParams(alpha=mag)
            mu = mag * mag * math.sin(gt) ** 2
            for n in range(6):
                ph = counting.prob_n_hafnian(counting.evolved_bar_moments(p, gt), n)
                err = max(err, abs(ph - counting.poisson_pn(mu, n)))
    record("poisson_baseline", err, 1e-12)

    # random draws shared by the route checks
    draws = []
    for _ in range(12):
        draws.append(
            (
                GwSignalParams(
                    alpha=complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)),
                    r=rng.uniform(0.0, 1.0),
                    theta=rng.uniform(0.0, 2.0 * math.pi),
                    nbar=rng.uniform(0.0, 2.0),
                ),
                rng.uniform(0.05, 0.5 * math.pi),
            )
        )

    err_routes = 0.0
    err_oracle = 0.0
    err_closed = 0.0
    for p, gt in draws:
        bar = counting.evolved_bar_moments(p, gt)
        table = fock.oracle_pn_table(p, gt, 5)
        cf = counting.closed_form_p012(p, gt)
        for n in range(6):
            ph = counting.prob_n_hafnian(bar, n)
            pg = counting.prob_n_generating(bar, n)
            err_routes = max(err_routes, abs(ph - pg))
            err_oracle = max(err_oracle, abs(ph - table[n]))
            if n <= 2:
                err_closed = max(err_closed, abs(ph - cf[n]))
    record("hafnian_vs_generating", err_routes, 1e-10)
    record("pipeline_vs_fock_oracle", err_oracle, 1e-8)
    record("closed_form_p012_vs_hafnian", err_closed, 1e-9)

    # closed-form denominator adjudication at a theta = 0 point
    p0 = GwSignalParams(alpha=math.sqrt(2.0), r=0.4, nbar=0.3)
    gt0 = math.asin(math.sqrt(0.2))
    wt = counting.aligned_closed_form_p01(p0, gt0)
    cf = counting.closed_form_p012(p0, gt0)
    variant = counting.rejected_p01_variant(p0, gt0)
    err_wt = max(abs(wt[0] - cf[0]), abs(wt[1] - cf[1]))
    record(
        "aligned_closed_form_vs_general",
        err_wt,
        1e-10,
        "the (cos^2 + 1) denominator structure is authoritative",
    )
    sep = max(abs(variant[0] - cf[0]), abs(variant[1] - cf[1]))
    record(
        "alternate_denominator_variant_rejected",
        1e-6 / max(sep, 1e-300),
        1.0,
        f"(cos^2 + 2) variant deviates by {sep:.3e}; (cos^2 + 1) is correct",
    )

    # g2 variants: fixed moderate states keep the oracle's fourth-moment
    # truncation error well below the tolerance
    err_g2 = 0.0
    g2_states = [
        GwSignalParams(alpha=1.2, r=0.5, theta=1.1, nbar=0.3),
        GwSignalParams(alpha=complex(0.4, 0.8), nbar=0.9),
        GwSignalParams(r=0.7, theta=2.0),
        GwSignalParams(alpha=0.9, r=0.4, theta=4.0, nbar=0.5),
    ]
    for p in g2_states:
        for gt in (0.3, 1.0):
            _, _, g2o = fock.oracle_moments_and_g2(p, gt, tail_tol=1e-12)
            rep = g2_bar_after_evolution(p, gt)
            err_g2 = max(err_g2, abs(rep.g2 - g2o))
    record("g2_moments_vs_fock_oracle", err_g2, 1e-8)

    # cross-term adjudication: the displacement-squeezing cross term of g2 is
    # cos(theta - 2 arg alpha); the circulating sin(2 theta) variant is not
    p_adj = GwSignalParams(alpha=1.0, r=0.5, theta=0.0)
    _, _, g2_adj = fock.oracle_moments_and_g2(p_adj, 0.6, tail_tol=1e-12)
    variant_sep = abs(g2_main_text_formula(p_adj) - g2_adj)
    record(
        "g2_cross_term_variant_rejected",
        1e-3 / max(variant_sep, 1e-300),
        1.0,
        f"sin(2 theta) variant deviates from the oracle by {variant_sep:.3e}; "
        "the moment-route cos(theta - 2 arg alpha) cross term is correct",
    )

    p = GwSignalParams(alpha=1.1, r=0.5, nbar=0.4)
    err_th = max(
        abs(g2_thermal_detector(p, nth, gt).g2 - g2_thermal_detector_closed_form(p, nth, gt))
        for nth in (0.2, 1.0)
        for gt in (0.3, 1.0)
    )
    record("g2_thermal_detector_closed_form", err_th, 1e-12)

    ch = OpenChannelParams(kappa=1.5, nbar=0.3)
    err_open = max(
        abs(g2_open(p, ch, 0.5, t).g2 - g2_open_closed_form(p, ch, 0.5, t)) for t in (0.2, 1.0)
    )
    err_open = max(err_open, abs(g2_open(p, OpenChannelParams(0.0), 0.5, 1.0).g2 - g2_ideal(p).g2))
    record("g2_open_closed_form_and_reduction", err_open, 1e-12)

    # open dynamics vs Lyapunov integration
    gw_state = make_gw_state(GwSignalParams(alpha=complex(0.7, 0.3), r=0.6, theta=0.8, nbar=0.9))
    ch = OpenChannelParams(kappa=1.3, nbar=0.2)
    closed = evolve_open(gw_state, 0.8, ch, 0.9)
    ode = lyapunov_bar_marginal(gw_state, 0.8, ch, 0.9)
    err_lyap = max(np.max(np.abs(closed.cov - ode.cov)), np.max(np.abs(closed.disp - ode.disp)))
    record("evolve_open_vs_lyapunov_ode", err_lyap, 1e-8)

    # squeezing transfer vs oracle quadrature minimization
    err_sq = 0.0
    for r, gt in ((0.5, 0.7), (1.0, 0.3)):
        closed_min = squeezing_transfer_variance(r, gt).min_var
        oracle_min, _ = fock.oracle_min_quadrature_variance(GwSignalParams(r=r), gt)
        err_sq = max(err_sq, abs(closed_min - oracle_min))
    record("squeezing_transfer_vs_oracle", err_sq, 1e-8)

    # ratio estimator converges at second order
    p = GwSignalParams(alpha=1.0, r=0.3, nbar=0.2)
    target = g2_ideal(p).g2
    errs = []
    gts = [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2]
    for gt in gts:
        p0v, p1v, p2v = counting.closed_form_p012(p, gt)
        errs.append(abs(g2_ratio_estimator(p0v, p1v, p2v) - target))
    slope = np.polyfit(np.log(gts), np.log(errs), 1)[0]
    record("ratio_estimator_order", abs(slope - 2.0), 0.1, f"fitted slope {slope:.4f}")

    header = ["check", "max_error", "tolerance", "passed", "detail"]
    return Run(header, rows, EXIT_OK if all(row[3] for row in rows) else EXIT_NUMERICAL)


# ----------------------------------------------------------------------------
# entry point


def _seed(text: str) -> int:
    """The --seed type: a non-negative decimal integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravoptics",
        description="Gaussian wave-detector counting statistics, coherence, and tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, descr, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=descr)
        sp.add_argument("--config", default=None, help="JSON scenario config")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if name != "tomo":  # tomo writes one JSON document
            sp.add_argument("--format", default=None, choices=("csv", "json"))
        if name in ("tomo", "oracle-check"):  # no other subcommand draws random numbers
            sp.add_argument("--seed", type=_seed, default=None, help="random-draw seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ConfigError("--out: must be a non-empty string, got ''")
        cfg = load_config(args.config)
        cfg.check_reads(args.command)
        out_path = args.out or cfg.output.get("path")
        run = SUBCOMMANDS[args.command][0](cfg, args)

        # the output file is opened only once the command has succeeded
        try:
            out_file = open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)
        except OSError as exc:  # a directory, a missing parent, no permission
            key = "--out" if args.out else "output.path"
            raise ConfigError(f"{key}: cannot write {out_path}: {exc.strerror}") from exc
        with out_file as out:
            fmt = getattr(args, "format", None) or cfg.output.get("format", "csv")  # no tomo flag
            _emit(run.header, run.rows, out, fmt)
        return run.status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"numerical check failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


# each subcommand: its function, its help text and the top-level keys it reads;
# any other top-level key it is given is a config error
SUBCOMMANDS = {
    "probs": (cmd_probs, "excitation probabilities and coherent-reference deviations",
              ("gw", "detector", "sweep", "n_max", "output")),
    "g2": (cmd_g2, "second-order coherence sweep", ("gw", "detector", "sweep", "output")),
    "tomo": (cmd_tomo, "tomography simulation round trip",
             ("gw", "detector", "noise", "beta_mag", "phases", "betas", "output")),
    "oracle-check": (cmd_oracle_check, "cross-route validation suite", ("output",)),
    "physical": (cmd_physical, "coupling / flux / noise-threshold calculator",
                 ("detector", "h_strain", "output")),
}

if __name__ == "__main__":
    sys.exit(main())
