"""Output checks for every op, against the referee and properties of the method.

Each ``check_*`` returns a list of failure messages; an empty list is a pass.
Tolerances are fixed here, before any run, and documented in README.md.
Referee answers are cached per op key, so a run pays for them once per
distinct input, outside the timed region.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import mpmath

import referee
from workloads import ORACLE_N_MAX, sweep_points

EPS = 2.0**-52
# probabilities: absolute, as in acceptance criteria 2 and 3
P_ABS_TOL = 1e-12
SUM_SLACK = 1e-12
# Delta P_n / P_{n,c} on ordinary ops: relative plus an absolute floor in
# units of 1 + |ratio| ~ P_n / P_{n,c}, since a difference of two rounded
# probabilities is only good to their rounding (worst seen: 2e-13)
RATIO_RTOL = 1e-9
RATIO_ATOL = 1e-11
# g2 relative; g2 - 1 and g2 - 2 on ordinary ops: relative plus a floor of
# a few ulps of g2, the rounding of g2 - 1.0 (worst seen: 18 ulps)
G2_RTOL = 1e-12
G2M_ULPS = 128.0
# deep slice: relative only, the accuracy the paper's regime needs
DEEP_RTOL = 1e-8
# noise-free tomography round trip, as in the README (acceptance criterion 11)
TOMO_RTOL = 1e-6
# Fock oracle against the referee / the generating-function route
ORACLE_P_TOL = 1e-8
ORACLE_G2_RTOL = 1e-6


def _close(value: float, ref, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - float(ref)) <= rtol * abs(float(ref)) + atol


def _state(gw: dict):
    """Referee state for a merged gw dict (the config's gw plus a sweep point)."""
    if "x_total" in gw:
        return referee.Scaled(
            float(gw["x_total"]), float(gw.get("fraction_q", 0.0)), str(gw.get("split", "thermal"))
        )
    if "alpha_mag" in gw:
        alpha = cmath.rect(float(gw["alpha_mag"]), float(gw.get("alpha_phase", 0.0)))
    else:
        alpha = complex(float(gw.get("alpha_re", 0.0)), float(gw.get("alpha_im", 0.0)))
    return referee.direct(alpha, gw.get("r", 0.0), gw.get("theta", 0.0), gw.get("nbar", 0.0))


def _is_coherent(gw: dict) -> bool:
    if "x_total" in gw:
        return float(gw.get("fraction_q", 0.0)) == 0.0
    return float(gw.get("r", 0.0)) == 0.0 and float(gw.get("nbar", 0.0)) == 0.0


def _points(config: dict, rows: list[dict]) -> list[tuple[dict, float]]:
    """(merged gw dict, gamma_t) of each output row, from its sweep columns."""
    names = [axis["parameter"] for axis in config.get("sweep", [])]
    out = []
    for row in rows:
        point = {name: float(row[name]) for name in names}
        gw = {**config.get("gw", {}), **{k: v for k, v in point.items() if k != "gamma_t"}}
        gamma_t = point.get("gamma_t", config.get("detector", {}).get("gamma_t", 1.0))
        out.append((gw, float(gamma_t)))
    return out


def _rows(op, text: str) -> list[dict]:
    """Output rows as dicts, from CSV or from the JSON list of records."""
    if (op.config or {}).get("output", {}).get("format") == "json":
        return [{k: str(v) for k, v in rec.items()} for rec in json.loads(text)]
    return list(csv.DictReader(io.StringIO(text)))


def check_probs(op, rc: int, text: str, cache: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    n_max = int(op.config.get("n_max", 3))
    rows = _rows(op, text)
    steps = sweep_points(op.config)
    if len(rows) != steps * (n_max + 1):
        return [f"{len(rows)} rows, expected {steps * (n_max + 1)}"]
    points = _points(op.config, rows)
    errors = []
    for start in range(0, len(rows), n_max + 1):
        gw, gamma_t = points[start]
        ck = (op.key, start)
        if ck not in cache:
            cache[ck] = referee.counts(_state(gw), gamma_t, n_max)
        ref = cache[ck]
        block = rows[start : start + n_max + 1]
        total = 0.0
        for n, row in enumerate(block):
            p, pc, ratio = float(row["p_n"]), float(row["p_n_coherent"]), float(row["delta_ratio"])
            where = f"row {start + n} (n={n})"
            total += p
            if int(row["n"]) != n:
                errors.append(f"{where}: level column reads {row['n']}")
            if not 0.0 <= p <= 1.0:
                errors.append(f"{where}: P_n = {p!r} outside [0, 1]")
            if not _close(p, ref.p[n], 0.0, P_ABS_TOL):
                errors.append(f"{where}: P_n = {p!r}, referee {mpmath.nstr(ref.p[n], 17)}")
            if not _close(pc, ref.p_coherent[n], 0.0, P_ABS_TOL):
                errors.append(f"{where}: P_n,c = {pc!r}, referee {mpmath.nstr(ref.p_coherent[n], 17)}")
            if _is_coherent(gw) and (ratio != 0.0 or p != pc):
                errors.append(f"{where}: coherent input but Delta P_n / P_n,c = {ratio!r}")
            if ref.ratio[n] is None:
                continue
            floor = RATIO_ATOL * (1.0 + abs(float(ref.ratio[n])))
            if not _close(ratio, ref.ratio[n], RATIO_RTOL, floor):
                errors.append(f"{where}: ratio {ratio!r}, referee {mpmath.nstr(ref.ratio[n], 17)}")
            elif op.known_fault and n <= 2 and not _close(ratio, ref.ratio[n], DEEP_RTOL):
                errors.append(
                    f"{where}: deep-slice ratio {ratio!r}, referee {mpmath.nstr(ref.ratio[n], 17)}"
                )
        if total > 1.0 + SUM_SLACK:
            errors.append(f"rows {start}..{start + n_max}: sum of P_n = {total!r} > 1")
    return errors


def check_g2(op, rc: int, text: str, cache: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    rows = _rows(op, text)
    steps = sweep_points(op.config)
    if len(rows) != steps:
        return [f"{len(rows)} rows, expected {steps}"]
    if op.key not in cache:
        cache[op.key] = [referee.g2(_state(gw), gamma_t) for gw, gamma_t in _points(op.config, rows)]
    errors = []
    for i, (row, (ref_g2, ref_m1)) in enumerate(zip(rows, cache[op.key])):
        g2, m1, m2 = float(row["g2"]), float(row["g2_minus_1"]), float(row["g2_minus_2"])
        floor = G2M_ULPS * EPS * float(ref_g2)
        if not _close(g2, ref_g2, G2_RTOL):
            errors.append(f"row {i}: g2 = {g2!r}, referee {mpmath.nstr(ref_g2, 17)}")
        if not _close(m1, ref_m1, G2_RTOL, floor):
            errors.append(f"row {i}: g2 - 1 = {m1!r}, referee {mpmath.nstr(ref_m1, 17)}")
        elif op.known_fault and not _close(m1, ref_m1, DEEP_RTOL):
            errors.append(f"row {i}: deep-slice g2 - 1 = {m1!r}, referee {mpmath.nstr(ref_m1, 17)}")
        if not _close(m2, ref_g2 - 2, G2_RTOL, floor):
            errors.append(f"row {i}: g2 - 2 = {m2!r}, referee {mpmath.nstr(ref_g2 - 2, 17)}")
        if int(row["exceeds_thermal"]) != int(g2 > 2.0):
            errors.append(f"row {i}: exceeds_thermal = {row['exceeds_thermal']} with g2 = {g2!r}")
    return errors


def _rel(value: float, true: float) -> float:
    return abs(value - true) / abs(true)


def _unwrapped(rec: dict, true: dict, name: str) -> float:
    """Recovered value; theta is taken to the branch nearest the true angle."""
    if name != "theta":
        return rec[name]
    return true[name] + (rec[name] - true[name] + math.pi) % (2 * math.pi) - math.pi


def check_tomo(op, rc: int, text: str, cache: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    out = json.loads(text)
    gw = op.config["gw"]
    true, rec = out["true"], out["recovered"]
    errors = []
    for name in ("alpha_mag", "r", "theta", "nbar"):
        if not _close(true[name], gw[name], 1e-15):
            errors.append(f"true.{name} = {true[name]!r}, config gives {gw[name]!r}")
        error = abs(_unwrapped(rec, true, name) - true[name])
        if not _close(out["absolute_errors"][name], error, 1e-12, 1e-15):
            errors.append(f"absolute_errors.{name} disagrees with recovered - true")
    epsilon = float(op.config.get("noise", {}).get("epsilon", 0.0))
    if epsilon == 0.0:
        for name in ("alpha_mag", "r", "theta", "nbar"):
            if _rel(_unwrapped(rec, true, name), gw[name]) > TOMO_RTOL:
                errors.append(f"recovered {name} = {rec[name]!r}, true {gw[name]!r}")
        if not (rec["theta_identifiable"] and rec["alpha_identifiable"]):
            errors.append("identifiable state flagged unidentifiable")
        if out["snr_matched_beta"] != math.inf:
            errors.append(f"noise-free SNR reads {out['snr_matched_beta']!r}")
    else:
        # matched-drive SNR is exactly 1 / (4 epsilon) (acceptance criterion 11);
        # no drive can be matched to a quadrature squeezed below vacuum
        half = gw["nbar"] + 0.5
        variance = half * (math.cosh(2 * gw["r"]) - math.sinh(2 * gw["r"]) * math.cos(gw["theta"])) - 0.5
        expected = 1.0 / (4.0 * epsilon) if variance > 0 else math.inf
        snr = out["snr_matched_beta"]
        if not (snr == expected or _close(snr, expected, 1e-9)):
            errors.append(f"matched SNR {snr!r}, expected {expected!r}")
        # a noisy fit recovers the state to the noise level, not to rounding:
        # within twice the relative spread sqrt(epsilon) of one drive sample
        for name in ("alpha_mag", "r", "theta", "nbar"):
            if _rel(_unwrapped(rec, true, name), gw[name]) > 2.0 * math.sqrt(epsilon):
                errors.append(f"noisy fit: recovered {name} = {rec[name]!r}, true {gw[name]!r}")
    return errors


# CODATA values as in the package; t_planck = sqrt(hbar G / c^5)
_G, _C, _HBAR, _KB = 6.67430e-11, 299792458.0, 1.054571817e-34, 1.380649e-23


def check_physical(op, rc: int, text: str, cache: dict) -> list[str]:
    """Coupling, flux and noise thresholds recomputed from the paper's formulas."""
    if rc != 0:
        return [f"exit code {rc}"]
    det = op.config["detector"]
    with mpmath.workdps(30):
        m, length, omega = (mpmath.mpf(det[k]) for k in ("mass", "length", "omega_ell"))
        ell, vol = mpmath.mpf(det.get("ell", 1)), mpmath.mpf(det.get("gw_volume", 1.0))
        q, temp = mpmath.mpf(det.get("quality_factor", 1e6)), mpmath.mpf(det.get("temperature", 0.0))
        nu, t = mpmath.mpf(det.get("nu", det["omega_ell"])), mpmath.mpf(det.get("t", 0.0))
        h = mpmath.mpf(op.config.get("h_strain", 1e-22))
        pi = mpmath.pi
        gamma = mpmath.sqrt(8 * pi * _G * m * nu**3 * length**3 / (omega * _C**2 * vol * pi**4 * ell**4))
        t_planck2 = mpmath.mpf(_HBAR) * _G / mpmath.mpf(_C) ** 5
        n_grav = h**2 / (32 * pi * nu**2 * t_planck2)
        gamma_t = gamma * t
        signal = n_grav * gamma_t**2
        gamma_th = _KB * temp / (_HBAR * q)
        n_th = _KB * temp / (_HBAR * omega)
        expected = {
            "gamma_g": gamma,
            "n_grav": n_grav,
            "gamma_t": gamma_t,
            "n_grav_gt2": signal,
            "gamma_th": gamma_th,
            "n_th": n_th,
            "heating_ok": int(gamma_th * t < signal),
            "occupation_ok": int(n_th < signal),
        }
    rows = _rows(op, text)
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    errors = []
    for name, want in expected.items():
        got = float(rows[0][name])
        if not _close(got, want, 1e-12):
            errors.append(f"{name} = {got!r}, expected {mpmath.nstr(want, 17)}")
    return errors


def check_oracle_check(op, rc: int, text: str, cache: dict) -> list[str]:
    rows = _rows(op, text)
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if not rows:
        errors.append("no check rows")
    for row in rows:
        err, tol = float(row["max_error"]), float(row["tolerance"])
        if row["passed"] != "1" or not err < tol:
            errors.append(f"{row['check']}: max_error {err!r} against tolerance {tol!r}")
    return errors


CLI_CHECKS = {
    "probs": check_probs,
    "g2": check_g2,
    "tomo": check_tomo,
    "physical": check_physical,
    "oracle-check": check_oracle_check,
}


def check_cli(op, rc: int, text: str, cache: dict) -> list[str]:
    try:
        return CLI_CHECKS[op.kind](op, rc, text, cache)
    except (KeyError, ValueError) as exc:  # malformed output
        return [f"unreadable output: {exc!r}"]


def check_oracle(op, result: dict, cache: dict) -> list[str]:
    """Oracle P_0..P_5 against the referee; P_3..P_5 also against the generating route."""
    from gravoptics import counting
    from gravoptics.states import GwSignalParams

    prm = op.params
    levels = range(ORACLE_N_MAX + 1)
    state = referee.direct(prm["alpha"], prm["r"], prm["theta"], prm["nbar"])
    if op.key not in cache:
        p = GwSignalParams(alpha=prm["alpha"], r=prm["r"], theta=prm["theta"], nbar=prm["nbar"])
        bar = counting.evolved_bar_moments(p, prm["gamma_t"])
        cache[op.key] = (
            referee.pn(state, prm["gamma_t"], ORACLE_N_MAX),
            {n: counting.prob_n_generating(bar, n) for n in levels if n >= 3},
            referee.g2(state)[0] if prm["with_g2"] else None,
        )
    ref, generating, ref_g2 = cache[op.key]
    table = result["table"]
    if len(table) != len(levels):
        return [f"table has {len(table)} levels, expected {len(levels)}"]
    errors = []
    for n in levels:
        if not _close(float(table[n]), ref[n], 0.0, ORACLE_P_TOL):
            errors.append(f"P_{n} = {table[n]!r}, referee {mpmath.nstr(ref[n], 17)}")
    for n, value in generating.items():
        if not _close(float(table[n]), value, 0.0, ORACLE_P_TOL):
            errors.append(f"P_{n} = {table[n]!r}, generating route {value!r}")
    if ref_g2 is not None and not _close(result["g2"], ref_g2, ORACLE_G2_RTOL):
        errors.append(f"g2 = {result['g2']!r}, referee {mpmath.nstr(ref_g2, 17)}")
    return errors
