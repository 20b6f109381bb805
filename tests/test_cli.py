import itertools
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gravoptics import cli, counting, states
from gravoptics.cli import ConfigError, ScenarioConfig, load_config, main
from gravoptics.correlations import g2_ideal
from gravoptics.counting import PN_MAX, scaled_state
from gravoptics.states import GwSignalParams

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gravoptics.cli", *args], capture_output=True, text=True
    )


def test_config_round_trip(tmp_path):
    raw = {
        "gw": {"alpha_mag": 1.0, "r": 0.5, "theta": 0.7, "nbar": 0.2},
        "detector": {"gamma_t": 0.3},
        "noise": {"epsilon": 0.001},
        "sweep": [{"parameter": "r", "min": 0.0, "max": 1.0, "steps": 3, "scale": "lin"}],
        "output": {"format": "csv"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    serialized = {
        "gw": cfg.gw,
        "detector": cfg.detector,
        "noise": cfg.noise,
        "sweep": cfg.sweep,
        "output": cfg.output,
    }
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(serialized))
    cfg2 = load_config(str(path2))
    assert cfg2.gw == cfg.gw and cfg2.sweep == cfg.sweep and cfg2.output == cfg.output


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"detector": {"gamma_t": 0.1, "mass": 1.0, "length": 1.0, "omega_ell": 1.0}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"sweep": [{"parameter": "r"}]})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(
            {"sweep": [{"parameter": "r", "min": 0, "max": 1, "steps": 2}] * 3}
        )
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"output": {"format": "xml"}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"gw": {"x_total": 1.0, "r": 0.3}})


def test_probs_single_point(tmp_path):
    cfg = {
        "gw": {"alpha_mag": 1.0},
        "detector": {"gamma_t": 0.5},
        "n_max": 2,
        "output": {"format": "csv"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert main(["probs", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,p_n,p_n_coherent,delta_ratio"
    assert len(lines) == 4  # header + n = 0, 1, 2
    first = lines[1].split(",")
    mu = math.sin(0.5) ** 2
    assert abs(float(first[1]) - math.exp(-mu)) < 1e-12
    assert float(first[3]) == 0.0


def test_probs_fraction_sweep_endpoint(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["probs", "--config", str(SCRIPTS / "fig2_probs.json"), "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    zero_rows = [r for r in rows if float(r[0]) == 0.0]
    assert zero_rows and all(abs(float(r[4])) < 1e-10 for r in zero_rows)


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["probs", "--config", str(SCRIPTS / "fig2_probs.json"), "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    for out in (t1, t2):
        assert (
            main(
                [
                    "tomo",
                    "--config",
                    str(SCRIPTS / "tomo_roundtrip.json"),
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert t1.read_bytes() == t2.read_bytes()


def test_g2_sweep_structure(tmp_path):
    cfg = {
        "gw": {"x_total": 1.0, "fraction_q": 0.0, "split": "thermal"},
        "detector": {"gamma_t": 1e-8},
        "sweep": [
            {"parameter": "fraction_q", "min": 1e-4, "max": 0.9, "steps": 12, "scale": "log"}
        ],
        "output": {"format": "csv"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g2.csv"
    assert main(["g2", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    g2s = [float(r[1]) for r in rows]
    # thermal split never exceeds the thermal locus
    assert all(v <= 2.0 + 1e-12 for v in g2s)
    assert all(int(r[4]) == 0 for r in rows)

    cfg["gw"]["split"] = "squeezed"
    path.write_text(json.dumps(cfg))
    assert main(["g2", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert any(float(r[2]) > 1.0 for r in rows)  # squeezing pushes g2 - 1 above 1


def test_tomo_roundtrip_noiseless(tmp_path):
    cfg = json.loads((SCRIPTS / "tomo_roundtrip.json").read_text())
    cfg["noise"]["epsilon"] = 0.0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.json"
    assert main(["tomo", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for key in ("alpha_mag", "r", "theta", "nbar"):
        true = payload["true"][key]
        err = payload["absolute_errors"][key]
        assert err < 1e-6 * max(1.0, abs(true))


def test_tomo_survives_negative_drive_draw(tmp_path):
    # at epsilon 0.5 the seed-3 draws include 1 + xi < 0, a drive at phase phi + pi
    cfg = json.loads((SCRIPTS / "tomo_roundtrip.json").read_text())
    cfg["noise"]["epsilon"] = 0.5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # epsilon >= 0.1 warns
        assert main(["tomo", "--config", str(path), "--seed", "3", "--out", str(out)]) == 0
    recovered = json.loads(out.read_text())["recovered"]
    assert all(math.isfinite(recovered[key]) for key in ("alpha_mag", "r", "theta", "nbar"))


def test_repeated_main_calls_do_not_share_state(capsys):
    # main reuses one parser per process; no call may see a flag of the one before
    commands = [
        ["g2", "--config", str(SCRIPTS / "fig3_g2.json"), "--format", "json"],
        ["g2", "--config", str(SCRIPTS / "fig3_g2.json")],
        ["tomo", "--config", str(SCRIPTS / "tomo_roundtrip.json"), "--seed", "11"],
    ]
    in_process = []
    for argv in commands:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    assert in_process[0] != in_process[1]  # json, then the config's csv
    for argv, out in zip(commands, in_process):
        alone = run_cli(argv)
        assert alone.returncode == 0
        assert out == alone.stdout


def test_oracle_check_exit_codes(capsys, monkeypatch):
    assert main(["oracle-check"]) == 0
    passing = capsys.readouterr().out.splitlines()
    # a real breach: the generating-function route off by 1e-6
    generating = counting.prob_n_generating
    monkeypatch.setattr(counting, "prob_n_generating", lambda bar, n: generating(bar, n) + 1e-6)
    assert main(["oracle-check"]) == 2
    failing = capsys.readouterr().out.splitlines()
    assert len(failing) == len(passing)
    changed = [row for row, before in zip(failing, passing) if row != before]
    assert len(changed) == 1
    name, _, _, passed, _ = changed[0].split(",")
    assert (name, passed) == ("hafnian_vs_generating", "0")


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    proc = run_cli(["probs", "--config", str(path)])
    assert proc.returncode == 1
    assert "config error" in proc.stderr


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        pytest.param({"r": math.nan}, "r must be finite", id="nan-r must be finite"),
        pytest.param({"r": 400.0}, "overflows cosh(2r)", id="400.0-overflows cosh(2r)"),
        pytest.param({"r": 300.0}, "nu^2", id="300.0-nu^2"),
        # |alpha|^2 overflows; |alpha|^2 is finite but <a†a>^2 is not
        pytest.param({"alpha_mag": 1e200}, "|alpha|^2", id="alpha_mag 1e200"),
        pytest.param({"alpha_mag": 1e100}, "<a†a>^2", id="alpha_mag 1e100"),
    ],
)
def test_bad_gw_number_exit_code(tmp_path, capsys, bad, message):
    path = tmp_path / "bad.json"
    cfg = {"gw": {"alpha_mag": 1.0, "r": 0.2, "nbar": 0.1, **bad}, "detector": {"gamma_t": 0.3}}
    path.write_text(json.dumps(cfg))
    for command in ("probs", "g2"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: gw: ") and message in err, (command, err)


@pytest.mark.parametrize("alpha_mag", [1e70, 1e50, 1e30])
def test_probs_huge_displacement_gives_zero_rows(tmp_path, alpha_mag):
    # P_0 underflows to zero and the log-G series carries the zero to every
    # level: zero probabilities, exit 0 and no floating-point warning.  The
    # coherent reference vanishes too, so the ratio is undefined: an empty CSV
    # cell and a JSON null, never NaN
    path = tmp_path / "c.json"
    cfg = {"gw": {"alpha_mag": alpha_mag, "r": 0.3}, "detector": {"gamma_t": 0.3}, "n_max": 8}
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["probs", "--config", str(path), "--out", str(out)]) == 0
        as_json = ["--out", str(out) + ".json", "--format", "json"]
        assert main(["probs", "--config", str(path), *as_json]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(9))
    assert all(row[1:] == ["0", "0", ""] for row in rows), rows

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    records = json.loads(Path(str(out) + ".json").read_text(), parse_constant=reject)
    assert [r["n"] for r in records] == list(range(9))
    assert all(r["p_n"] == r["p_n_coherent"] == 0.0 and r["delta_ratio"] is None for r in records)


def test_probs_non_finite_row_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a NaN reaching the P_n kernel raises: no NaN row may be printed with exit 0
    from gravoptics import counting

    real = counting.pn_series
    monkeypatch.setattr(counting, "pn_series", lambda sc, n: real(sc._replace(b_minus=math.nan), n))
    path = tmp_path / "c.json"
    cfg = {"gw": {"alpha_mag": 1.0, "r": 0.3}, "detector": {"gamma_t": 0.3}, "n_max": 4}
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    assert main(["probs", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical check failure: P_") and "non-finite" in err, err
    assert not out.exists()


WEBER = json.loads((SCRIPTS / "weber_bar.json").read_text())["detector"]
DESK_PROBS = {
    "gw": {"alpha_mag": 1.1, "alpha_phase": 0.4, "r": 0.5, "theta": 0.9, "nbar": 0.3},
    "detector": {"gamma_t": 0.8},
}


def test_probs_high_n_max_matches_fock_oracle(tmp_path):
    from gravoptics import fock
    from gravoptics.states import GwSignalParams

    path = tmp_path / "c.json"
    path.write_text(json.dumps({**DESK_PROBS, "n_max": 12}))
    out = tmp_path / "o.csv"
    assert main(["probs", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(13))
    gw = DESK_PROBS["gw"]
    p = GwSignalParams(
        alpha=gw["alpha_mag"] * complex(math.cos(gw["alpha_phase"]), math.sin(gw["alpha_phase"])),
        r=gw["r"],
        theta=gw["theta"],
        nbar=gw["nbar"],
    )
    oracle = fock.oracle_pn_table(p, DESK_PROBS["detector"]["gamma_t"], 12)
    assert max(abs(float(r[1]) - oracle[n]) for n, r in enumerate(rows)) < 1e-8


def test_probs_point_builds_one_series_table_per_state(tmp_path, monkeypatch):
    from gravoptics import counting

    calls = {"series": 0, "closed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(counting, "pn_series", counted("series", counting.pn_series))
    monkeypatch.setattr(counting, "closed_form_p012", counted("closed", counting.closed_form_p012))
    path = tmp_path / "c.json"
    # one series over the whole grid of an op, and no closed form
    sweep = [_axis("r", 0.0, 1.0, 5), _axis("nbar", 0.0, 2.0, 4)]
    for config in ({**DESK_PROBS, "n_max": 7}, {**DESK_PROBS, "n_max": 2, "sweep": sweep}):
        calls.update(series=0, closed=0)
        path.write_text(json.dumps(config))
        assert main(["probs", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == {"series": 1, "closed": 0}, config


@pytest.mark.parametrize(
    ("change", "key"),
    [
        ({"n_max": 2.5}, "n_max"),
        ({"n_max": -1}, "n_max"),
        ({"n_max": PN_MAX + 1}, "n_max"),
        ({"sweep": [{"parameter": "r", "min": 0.1, "max": 0.9, "steps": 2.7}]}, "sweep[0].steps"),
        ({"phases": 7}, "phases"),
        (
            {
                "gw": {"x_total": 1.0, "fraction_q": 0.1, "split": "squeezed"},
                "sweep": [{"parameter": "alpha_mag", "min": 0.1, "max": 0.9, "steps": 3}],
            },
            "sweep[0].parameter",
        ),
        ({"gw": {"x_total": 1.0, "fraction_q": 0.1, "theta": 0.5}}, "gw.theta"),
        ({"gw": {"alpha_re": 1.0, "alpha_phase": 0.5}}, "gw.alpha_phase"),
        (
            {
                "subcommand": "g2",
                "detector": {},
                "sweep": [{"parameter": "gamma_t", "min": 0.1, "max": 1.0, "steps": 3}],
            },
            "sweep[0].parameter",
        ),
        (
            {
                "subcommand": "tomo",
                "sweep": [{"parameter": "r", "min": 0.1, "max": 0.9, "steps": 3}],
            },
            "sweep",
        ),
        # keys that nothing reads
        (
            {"subcommand": "physical", "detector": {**WEBER, "temprature": 0.01}},
            "detector.temprature",
        ),
        ({"output": {"pth": "o.csv"}}, "output.pth"),
        ({"noise": {"bogus": 1}}, "noise.bogus"),
        ({"detector": {"gamma_t": 0.3, "mass": 3}}, "detector.mass"),
        # values of the wrong shape or size
        ({"subcommand": "tomo", "betas": 3}, "betas"),
        ({"gw": [1, 2]}, "gw"),
        ({"subcommand": "tomo", "beta_mag": 1e300}, "beta_mag"),
        ({"output": {"path": 3}}, "output.path"),
        ({"sweep": [3]}, "sweep[0]"),
        ({"gw": {"alpha_mag": 1.0, "r": None}}, "gw.r"),
        ({"subcommand": "tomo", "betas": [1, 1, 1, 2, 2]}, "betas"),
        # bad numbers outside gw
        ({"detector": {"gamma_t": "x"}}, "detector.gamma_t"),
        ({"detector": {"gamma_t": math.nan}}, "detector.gamma_t"),
        ({"subcommand": "physical", "detector": {**WEBER, "mass": "a"}}, "detector.mass"),
        ({"subcommand": "physical", "detector": {**WEBER, "mass": -1800}}, "detector.mass"),
        ({"subcommand": "physical", "detector": {**WEBER, "t": -1}}, "detector.t"),
        ({"subcommand": "physical", "detector": {**WEBER, "ell": 2}}, "detector.ell"),
        ({"subcommand": "physical", "detector": WEBER, "h_strain": "x"}, "h_strain"),
        ({"subcommand": "physical", "detector": WEBER, "h_strain": -1}, "h_strain"),
        ({"subcommand": "tomo", "beta_mag": "x"}, "beta_mag"),
        ({"subcommand": "tomo", "beta_mag": -1}, "beta_mag"),
        ({"subcommand": "tomo", "beta_mag": 0}, "beta_mag"),
        ({"subcommand": "tomo", "noise": {"epsilon": -1}}, "noise.epsilon"),
        ({"subcommand": "tomo", "noise": {"epsilon": "nan"}}, "noise.epsilon"),
        ({"sweep": [{"parameter": "r", "min": "a", "max": 0.9, "steps": 3}]}, "sweep[0].min"),
        (
            {"sweep": [{"parameter": "r", "min": 0.0, "max": 0.9, "steps": 1, "scale": "log"}]},
            "sweep[0].min",
        ),
        # physical detectors whose every number is in range but whose coupling,
        # flux or thresholds leave float range
        ({"subcommand": "physical", "detector": {**WEBER, "nu": 1e200}}, "detector"),
        ({"subcommand": "tomo", "detector": {**WEBER, "nu": 1e200}}, "detector"),
        ({"subcommand": "physical", "detector": WEBER, "h_strain": 1e200}, "h_strain"),
        ({"subcommand": "physical", "detector": {**WEBER, "nu": 1e-200}}, "detector"),
        (
            {"subcommand": "physical", "detector": {**WEBER, "mass": 1e-300, "length": 1e-100}},
            "detector",
        ),
        (
            {"subcommand": "physical", "detector": {**WEBER, "mass": 1e300, "length": 1e100}},
            "detector",
        ),
        ({"subcommand": "physical", "detector": {**WEBER, "t": 1e300}}, "detector"),
        ({"subcommand": "physical", "detector": {**WEBER, "quality_factor": 1e-300}}, "detector"),
        # a parameter swept twice: one of its axes would be ignored
        (
            {
                "subcommand": "g2",
                "sweep": [
                    {"parameter": "r", "min": 0.1, "max": 0.5, "steps": 3},
                    {"parameter": "r", "min": 0.2, "max": 0.3, "steps": 2},
                ],
            },
            "sweep[1].parameter",
        ),
        # gamma_t^2 underflows, so n_grav = x_total / gamma_t^2 has no value
        (
            {"gw": {"x_total": 1.0, "fraction_q": 0.1}, "detector": {"gamma_t": 1e-170}},
            "gw",
        ),
        # gw values that are no JSON number, or an integer beyond float range
        ({"gw": {"alpha_mag": 1.0, "r": "0.5"}}, "gw.r"),
        ({"gw": {"alpha_mag": True}}, "gw.alpha_mag"),
        ({"subcommand": "g2", "gw": {"x_total": 1.0, "fraction_q": "0.1"}}, "gw.fraction_q"),
        ({"gw": {"alpha_mag": 10**400}}, "gw.alpha_mag"),
        # tomo writes JSON only
        ({"subcommand": "tomo", "output": {"format": "csv"}}, "output.format"),
        # top-level keys the subcommand does not read
        ({"beta_mag": 2.0}, "beta_mag"),
        ({"h_strain": 1e-22}, "h_strain"),
        ({"phases": 16}, "phases"),
        ({"betas": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]}, "betas"),
        ({"noise": {"epsilon": 0.001}}, "noise"),
        ({"subcommand": "g2", "n_max": 3}, "n_max"),
        ({"subcommand": "g2", "noise": {"epsilon": 0.001}}, "noise"),
        ({"subcommand": "g2", "beta_mag": 2.0}, "beta_mag"),
        ({"subcommand": "tomo", "n_max": 3}, "n_max"),
        ({"subcommand": "tomo", "h_strain": 1e-22}, "h_strain"),
        ({"subcommand": "physical", "detector": WEBER, "gw": DESK_PROBS["gw"]}, "gw"),
        (
            {
                "subcommand": "physical",
                "detector": WEBER,
                "sweep": [{"parameter": "r", "min": 0.1, "max": 0.9, "steps": 3}],
            },
            "sweep",
        ),
        ({"subcommand": "physical", "detector": WEBER, "noise": {"epsilon": 0.001}}, "noise"),
        ({"subcommand": "physical", "detector": WEBER, "n_max": 3}, "n_max"),
        ({"subcommand": "oracle-check", "gw": DESK_PROBS["gw"]}, "gw"),
        ({"subcommand": "oracle-check", "detector": DESK_PROBS["detector"]}, "detector"),
        ({"subcommand": "oracle-check", "n_max": 3}, "n_max"),
    ],
)
def test_config_boundary_exit_code(tmp_path, capsys, change, key):
    # a case runs probs unless it names another subcommand; the subcommands that
    # read a wave start from DESK_PROBS, and physical and oracle-check from nothing
    command = change.get("subcommand", "probs")
    config = {**(DESK_PROBS if command in ("probs", "g2", "tomo") else {}), **change}
    config.pop("subcommand", None)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


UNDEFINED_G2 = "g2 undefined for the vacuum input at a sweep point"


def _reference_wave(gw: dict, gamma_t) -> GwSignalParams:
    """The wave of one point, spelled out from the config values alone.

    scaled_state for the scaled form, a polar or cartesian alpha otherwise:
    a bug in ScenarioConfig.wave cannot pass both sides of a parity test.
    """
    if "x_total" in gw:
        fraction_q, split = gw.get("fraction_q", 0.0), gw.get("split", "thermal")
        return GwSignalParams(*scaled_state(gw["x_total"], fraction_q, split, gamma_t))
    if "alpha_mag" in gw:
        alpha = gw["alpha_mag"] * np.exp(1j * gw.get("alpha_phase", 0.0))
    else:
        alpha = complex(gw.get("alpha_re", 0.0), gw.get("alpha_im", 0.0))
    return GwSignalParams(alpha, gw.get("r", 0.0), gw.get("theta", 0.0), gw.get("nbar", 0.0))


def _cell(x) -> str:
    if x is None:
        return ""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _point_by_point(command: str, raw: dict) -> tuple[int, str]:
    """(exit code, CSV or JSON output, or stderr) of probs or g2 replayed one point at a time.

    Each point's wave is _reference_wave of the raw config values, in
    itertools.product order, and the replay stops at the first point that is
    rejected or fails: the per-point loop that the grid passes of cmd_probs
    and cmd_g2 replaced.
    """
    cfg = ScenarioConfig.from_dict(raw)
    names = [axis["parameter"] for axis in cfg.sweep]
    axes = []
    for axis in cfg.sweep:
        lo, hi, steps = float(axis["min"]), float(axis["max"]), int(axis["steps"])
        space = np.geomspace if axis.get("scale") == "log" else np.linspace
        axes.append([lo] if steps == 1 else space(lo, hi, steps).tolist())
    if command == "probs":
        header = names + ["n", "p_n", "p_n_coherent", "delta_ratio"]
    else:
        header = names + ["g2", "g2_minus_1", "g2_minus_2", "exceeds_thermal"]
    rows = []
    for point in itertools.product(*axes):
        gw = {**raw.get("gw", {}), **dict(zip(names, point))}
        gamma_t = gw.pop("gamma_t", None)
        try:
            if gamma_t is None and (command == "probs" or "x_total" in gw):
                gamma_t = cfg.gamma_t({})
            p = _reference_wave(gw, gamma_t)
        except ConfigError as exc:
            return 1, f"config error: {exc}\n"
        except ValueError as exc:
            return 1, f"config error: gw: {exc}\n"
        if command == "probs":
            # P_n from the point's own log-G series, P_{n,c} from the Poisson
            # law of its mean count, the input itself where it is coherent
            s = math.sin(gamma_t)
            sc = p.detector_scalars(s * s)
            n_max = int(raw.get("n_max", 3))
            try:
                probs = counting.pn_series(sc, n_max)
            except ValueError as exc:
                return 2, f"numerical check failure: {exc}\n"
            refs = probs
            if not (sc.ntilde == 0.0 and sc.m == 0.0):
                refs = [counting.poisson_pn(sc.mean_n, n) for n in range(n_max + 1)]
            for n, (pn, pnc) in enumerate(zip(probs, refs)):
                rows.append([*point, n, pn, pnc, None if pnc == 0.0 else (pnc - pn) / pnc])
            continue
        report = g2_ideal(p)
        if report.g2 is None:
            return 2, f"numerical check failure: {UNDEFINED_G2}\n"
        g2_minus_1 = report.g2_minus_1
        rows.append([*point, report.g2, g2_minus_1, g2_minus_1 - 1.0, int(report.g2 > 2.0)])
    if cfg.output.get("format") == "json":
        return 0, json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    return 0, "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def _axis(name: str, lo: float, hi: float, steps: int, scale: str = "lin") -> dict:
    return {"parameter": name, "min": lo, "max": hi, "steps": steps, "scale": scale}


POLAR = {"alpha_mag": 1.3, "alpha_phase": 2.1, "r": 0.4, "theta": 0.9, "nbar": 0.3}
CARTESIAN = {"alpha_re": -0.7, "alpha_im": 0.4, "r": 0.6, "theta": 4.0, "nbar": 0.2}


@pytest.mark.parametrize(
    "raw",
    [
        # direct polar: r from 0, a log nbar axis; then alpha_phase and theta
        {"gw": POLAR, "sweep": [_axis("r", 0.0, 1.5, 9), _axis("nbar", 1e-3, 2.0, 7, "log")]},
        {"gw": POLAR, "sweep": [_axis("alpha_phase", -3.0, 3.0, 8), _axis("theta", 0.0, 6.2, 6)]},
        # direct cartesian with a physical detector, whose gamma_t g2 does not read
        {
            "gw": CARTESIAN,
            "detector": json.loads((SCRIPTS / "weber_bar.json").read_text())["detector"],
            "sweep": [_axis("alpha_re", -2.0, 2.0, 9), _axis("alpha_im", 0.0, 1.0, 1)],
        },
        # scaled, fraction_q from 0, thermal and squeezed
        {
            "gw": {"x_total": 1.0, "split": "thermal"},
            "detector": {"gamma_t": 1e-9},
            "sweep": [_axis("fraction_q", 0.0, 0.9, 7), _axis("x_total", 0.3, 3.0, 5, "log")],
        },
        {
            "gw": {"x_total": 1.0, "split": "squeezed"},
            "detector": {"gamma_t": 1e-17},
            "sweep": [_axis("fraction_q", 1e-12, 0.99, 9, "log"), _axis("x_total", 0.5, 2.0, 4)],
        },
        # a gamma_t axis of the scaled parameterization, and one 1-step axis
        {
            "gw": {"x_total": 2.0, "fraction_q": 0.3, "split": "squeezed"},
            "sweep": [_axis("gamma_t", 1e-6, 1.4, 6, "log"), _axis("fraction_q", 0.2, 0.2, 1)],
        },
        # no sweep
        {"gw": POLAR},
        {
            "gw": {"x_total": 1.0, "fraction_q": 1e-6, "split": "squeezed"},
            "detector": {"gamma_t": 1e-3},
        },
        # one axis: the imaginary part of a cartesian alpha, then theta alone
        {"gw": CARTESIAN, "sweep": [_axis("alpha_im", -1.0, 1.0, 7)]},
        {"gw": POLAR, "sweep": [_axis("theta", 0.0, 6.0, 11)]},
        # JSON, whose axis cells stay numbers
        {
            "gw": POLAR,
            "sweep": [_axis("r", 0.0, 1.0, 4), _axis("alpha_mag", 0.5, 2.0, 3)],
            "output": {"format": "json"},
        },
    ],
    ids=["polar", "polar-phases", "cartesian-physical", "thermal", "squeezed", "gamma_t-axis",
         "polar-point", "squeezed-point", "alpha_im-axis", "theta-axis", "json"],
)
def test_g2_grid_matches_per_point_path(tmp_path, capsys, raw):
    # the array pass over the grid gives the bytes of the per-point path
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    code, expected = _point_by_point("g2", raw)
    assert code == 0
    assert main(["g2", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == expected
    if raw.get("output", {}).get("format") == "json":
        rows = json.loads(out)
        assert len(rows) == math.prod(axis["steps"] for axis in raw["sweep"])
        assert all(type(row[axis["parameter"]]) is float for row in rows for axis in raw["sweep"])


@pytest.mark.parametrize(
    ("raw", "code"),
    [
        # a vacuum point (x_total = 0) before an out-of-range fraction_q
        (
            {
                "gw": {"x_total": 1.0, "split": "thermal"},
                "detector": {"gamma_t": 0.1},
                "sweep": [_axis("x_total", 0.0, 1.0, 2), _axis("fraction_q", 0.5, 1.5, 3)],
            },
            2,
        ),
        # the same points in the reverse order
        (
            {
                "gw": {"x_total": 1.0, "split": "thermal"},
                "detector": {"gamma_t": 0.1},
                "sweep": [_axis("fraction_q", 1.5, 0.5, 3), _axis("x_total", 0.0, 1.0, 2)],
            },
            1,
        ),
        # cosh(2r) overflows from the second r on, after a vacuum-free first row
        (
            {
                "gw": {"alpha_mag": 1.0, "nbar": 0.1},
                "sweep": [_axis("r", 0.1, 400.0, 3), _axis("nbar", 0.1, 0.2, 2)],
            },
            1,
        ),
        # a vacuum point after the overflowing r: the overflow comes first
        ({"gw": {"alpha_mag": 0.0}, "sweep": [_axis("r", 400.0, 0.0, 3)]}, 1),
        # the vacuum at the last point of a grid
        (
            {
                "gw": {"alpha_mag": 0.0},
                "sweep": [_axis("r", 0.5, 0.0, 4), _axis("nbar", 0.2, 0.0, 3)],
            },
            2,
        ),
        # an unknown split rejects the first point
        (
            {
                "gw": {"x_total": 1.0, "split": "coherent"},
                "detector": {"gamma_t": 0.1},
                "sweep": [_axis("fraction_q", 0.1, 0.5, 3)],
            },
            1,
        ),
        # only the second axis fails: nbar falls below 0 in the first row of r
        (
            {
                "gw": {"alpha_mag": 1.0},
                "sweep": [_axis("r", 0.1, 0.5, 3), _axis("nbar", 0.2, -0.2, 3)],
            },
            1,
        ),
        # the same with a vacuum point (r = 0, nbar = 0) before the negative nbar
        (
            {
                "gw": {"alpha_mag": 0.0},
                "sweep": [_axis("r", 0.0, 0.5, 3), _axis("nbar", 0.2, -0.2, 3)],
            },
            2,
        ),
    ],
    ids=["vacuum-first", "fraction_q-first", "cosh-overflow", "overflow-before-vacuum",
         "vacuum-last", "unknown-split", "nbar-second-axis", "vacuum-before-nbar"],
)
def test_g2_grid_error_matches_per_point_path(tmp_path, capsys, raw, code):
    # the first failing point in grid order decides the error, as point by point
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    expected = _point_by_point("g2", raw)
    assert expected[0] == code
    assert main(["g2", "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (expected[1], "")


@pytest.mark.parametrize(
    "raw",
    [
        # direct polar: r from 0 and a log nbar axis, then alpha_phase and theta
        {
            "gw": POLAR,
            "detector": {"gamma_t": 0.7},
            "sweep": [_axis("r", 0.0, 1.2, 4), _axis("nbar", 1e-3, 2.0, 3, "log")],
        },
        {
            "gw": POLAR,
            "detector": {"gamma_t": 0.4},
            "sweep": [_axis("alpha_phase", -3.0, 3.0, 4), _axis("theta", 0.0, 6.2, 3)],
            "n_max": 5,
        },
        # direct cartesian with a physical detector, a 1-step second axis
        {
            "gw": CARTESIAN,
            "detector": {**WEBER, "t": 1e-3},
            "sweep": [_axis("alpha_re", -2.0, 2.0, 5), _axis("alpha_im", 0.0, 1.0, 1)],
        },
        # scaled, fraction_q from 0, thermal and squeezed
        {
            "gw": {"x_total": 1.0, "split": "thermal"},
            "detector": {"gamma_t": 1e-3},
            "sweep": [_axis("fraction_q", 0.0, 0.9, 4), _axis("x_total", 0.3, 3.0, 3, "log")],
        },
        {
            "gw": {"x_total": 1.0, "split": "squeezed"},
            "detector": {"gamma_t": 1e-17},
            "sweep": [_axis("fraction_q", 1e-3, 0.9, 5, "log")],
            "n_max": 4,
        },
        # gamma_t axes of the scaled and the direct parameterization
        {
            "gw": {"x_total": 2.0, "fraction_q": 0.3, "split": "squeezed"},
            "sweep": [_axis("gamma_t", 1e-6, 1.4, 4, "log"), _axis("fraction_q", 0.2, 0.2, 1)],
        },
        {"gw": CARTESIAN, "sweep": [_axis("gamma_t", 0.1, 1.4, 3), _axis("r", 0.0, 0.8, 3)]},
        # no sweep
        {**DESK_PROBS, "n_max": 6},
        {
            "gw": {"x_total": 1.0, "fraction_q": 1e-6, "split": "squeezed"},
            "detector": {"gamma_t": 1e-3},
        },
        # JSON, whose axis cells stay numbers
        {
            "gw": POLAR,
            "detector": {"gamma_t": 0.3},
            "sweep": [_axis("r", 0.0, 1.0, 3), _axis("alpha_mag", 0.5, 2.0, 2)],
            "output": {"format": "json"},
        },
    ],
    ids=["polar", "polar-phases", "cartesian-physical", "thermal", "squeezed", "gamma_t-axis",
         "gamma_t-axis-direct", "polar-point", "squeezed-point", "json"],
)
def test_probs_grid_matches_per_point_path(tmp_path, capsys, raw):
    # the checked grid gives the bytes of the per-point path
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    code, expected = _point_by_point("probs", raw)
    assert code == 0
    assert main(["probs", "--config", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_probs_grid_prints_undefined_ratios_as_empty_cells_and_nulls(tmp_path, capsys):
    # P_{n,c} underflows from some |alpha| on: the ratio column mixes numbers
    # with undefined cells, an empty CSV cell and a JSON null, never NaN
    raw = {
        "gw": {"alpha_mag": 1.0, "r": 0.3},
        "detector": {"gamma_t": 0.3},
        "sweep": [_axis("alpha_mag", 1.0, 1e30, 7, "log"), _axis("nbar", 0.0, 0.5, 2)],
    }
    path = tmp_path / "c.json"
    for fmt in ("csv", "json"):
        raw["output"] = {"format": fmt}
        path.write_text(json.dumps(raw))
        code, expected = _point_by_point("probs", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["probs", "--config", str(path)]) == code == 0
        out = capsys.readouterr().out
        assert out == expected
        if fmt == "csv":
            ratios = [line.split(",")[-1] for line in out.splitlines()[1:]]
        else:
            ratios = [row["delta_ratio"] for row in json.loads(out, parse_constant=float)]
            ratios = ["" if ratio is None else repr(ratio) for ratio in ratios]
        assert len(ratios) == 7 * 2 * 4
        assert ratios[0] != "" and ratios[-1] == ""  # defined at |alpha| 1, undefined at 1e30
        assert all(ratio == "" or math.isfinite(float(ratio)) for ratio in ratios)


def _failing_scalars(nbar: float):
    """states.detector_scalars with a NaN b_minus, so a non-finite P_n, at waves of the given nbar.

    The grid pass and the per-point replay both build their scalars through
    it, so the NaN reaches counting.pn_series at the same grid point on both.
    """
    real = states.detector_scalars

    def detector_scalars(alpha, r, theta, nbar_, gain=1.0, added=0.0):
        sc = real(alpha, r, theta, nbar_, gain, added)
        return sc._replace(b_minus=np.where(nbar_ == nbar, math.nan, sc.b_minus))

    return detector_scalars


@pytest.mark.parametrize(
    ("raw", "fail_at", "code"),
    [
        # delta_pn fails at nbar = 0, the point before a negative nbar
        (
            {**DESK_PROBS, "sweep": [_axis("r", 0.1, 0.5, 3), _axis("nbar", 0.2, -0.2, 3)]},
            0.0,
            2,
        ),
        # the same points in the reverse order: the negative nbar comes first
        (
            {**DESK_PROBS, "sweep": [_axis("r", 0.1, 0.5, 3), _axis("nbar", -0.2, 0.2, 3)]},
            0.0,
            1,
        ),
        # delta_pn fails in the first row, r falls below 0 in the third
        (
            {**DESK_PROBS, "sweep": [_axis("r", 0.1, -0.1, 3), _axis("nbar", 0.3, 0.5, 2)]},
            0.5,
            2,
        ),
        # fraction_q passes 1 at the third point, with no failing delta_pn
        (
            {
                "gw": {"x_total": 1.0, "split": "thermal"},
                "detector": {"gamma_t": 0.1},
                "sweep": [_axis("x_total", 0.5, 1.0, 2), _axis("fraction_q", 0.5, 1.5, 3)],
            },
            None,
            1,
        ),
        # gamma_t^2 underflows at the last point of a gamma_t axis
        (
            {
                "gw": {"x_total": 1.0, "fraction_q": 0.2, "split": "squeezed"},
                "sweep": [_axis("gamma_t", 1e-3, 1e-200, 3, "log")],
            },
            None,
            1,
        ),
        # cosh(2r) overflows from the second r on
        ({**DESK_PROBS, "sweep": [_axis("r", 0.1, 400.0, 3)]}, None, 1),
        # an unknown split rejects the first point
        (
            {
                "gw": {"x_total": 1.0, "split": "coherent"},
                "detector": {"gamma_t": 0.1},
                "sweep": [_axis("fraction_q", 0.1, 0.5, 3)],
            },
            None,
            1,
        ),
        # no detector: reported before the negative nbar of the first point
        ({"gw": POLAR, "sweep": [_axis("nbar", -0.5, 0.5, 3)]}, None, 1),
    ],
    ids=["delta_pn-before-nbar", "nbar-before-delta_pn", "delta_pn-rows-before-r",
         "fraction_q", "gamma_t-underflow", "cosh-overflow", "unknown-split", "no-detector"],
)
def test_probs_grid_error_matches_per_point_path(tmp_path, capsys, monkeypatch, raw, fail_at, code):
    # the first failing point in grid order decides the error, as point by point
    if fail_at is not None:
        failing = _failing_scalars(fail_at)
        monkeypatch.setattr(states, "detector_scalars", failing)
        monkeypatch.setattr(cli, "detector_scalars", failing)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    expected = _point_by_point("probs", raw)
    assert expected[0] == code
    assert main(["probs", "--config", str(path)]) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (expected[1], "")


def test_grid_is_replayed_only_on_failure_and_only_up_to_the_failing_point(
    tmp_path, capsys, monkeypatch
):
    # a passing grid checks its wave once, in one array pass; a failing one is
    # replayed point by point, with floats, up to the first failing point
    calls = []
    wave = ScenarioConfig.wave

    def recorded(self, columns):
        calls.append(columns)
        return wave(self, columns)

    monkeypatch.setattr(ScenarioConfig, "wave", recorded)
    path = tmp_path / "c.json"
    sweep = [_axis("r", 0.0, 1.0, 4), _axis("nbar", 0.0, 1.0, 3)]
    passing = [("probs", {**DESK_PROBS, "sweep": sweep}), ("g2", {"gw": POLAR, "sweep": sweep})]
    for command, raw in passing:
        calls.clear()
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 0
        assert len(calls) == 1 and all(isinstance(x, np.ndarray) for x in calls[0].values())

    failing = [
        # nu^2 overflows from the third r on: rejected, exit 1
        (_axis("r", 0.1, 400.1, 5), 2, 1),
        # the second alpha_mag is the vacuum, whose g2 is undefined: exit 2
        (_axis("alpha_mag", 1.0, -2.0, 4), 1, 2),
    ]
    for axis, k, code in failing:
        calls.clear()
        path.write_text(json.dumps({"gw": {"alpha_mag": 1.0}, "sweep": [axis]}))
        assert main(["g2", "--config", str(path)]) == code
        values = np.linspace(axis["min"], axis["max"], axis["steps"])[: k + 1].tolist()
        assert calls[1:] == [{axis["parameter"]: value} for value in values]
        assert all(type(point[axis["parameter"]]) is float for point in calls[1:])
    capsys.readouterr()


def test_g2_grid_evaluates_each_axis_quantity_once_per_axis_value(tmp_path, monkeypatch):
    # the grid stays in broadcast shape: a quantity of one axis is mapped over
    # that axis alone, and an unswept one stays a scalar
    from gravoptics import cli, counting, states

    calls = []

    def counted(fn, x, dtype=float):
        calls.append((fn.__name__, np.size(x)))
        return each(fn, x, dtype)

    each = states.each
    for module in (states, counting, cli):
        monkeypatch.setattr(module, "each", counted)
    path = tmp_path / "c.json"
    sweep = [_axis("r", 0.0, 1.0, 30), _axis("nbar", 0.0, 2.0, 33)]
    path.write_text(json.dumps({"gw": POLAR, "sweep": sweep}))
    assert main(["g2", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    assert calls and max(size for _, size in calls) <= 33, calls

    calls.clear()
    waves = []
    scaled_state = counting.scaled_state

    def recorded(*args):
        waves.append(scaled_state(*args))
        return waves[-1]

    monkeypatch.setattr(counting, "scaled_state", recorded)
    gw = {"x_total": 1.0, "split": "thermal"}
    sweep = [_axis("fraction_q", 0.0, 0.9, 20), _axis("x_total", 0.3, 3.0, 10, "log")]
    path.write_text(json.dumps({"gw": gw, "detector": {"gamma_t": 1e-9}, "sweep": sweep}))
    assert main(["g2", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
    (alpha, r, theta, nbar), = waves
    assert (type(r), type(theta)) == (float, float)
    assert alpha.dtype == float and nbar.shape == (20, 10)
    assert calls and all(size == 1 for _, size in calls), calls  # r and the phase stay scalars


def test_unknown_top_level_key_exit_code(tmp_path, capsys):
    cfg = json.loads((SCRIPTS / "fig2_probs.json").read_text())
    cfg["detectr"] = cfg.pop("detector")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    assert main(["probs", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert "detectr" in capsys.readouterr().err


def test_subcommands_do_not_import_scipy(tmp_path):
    """All five subcommands and the Fock oracle load no scipy module: numpy is the one dependency."""
    code = f"""
import sys
import gravoptics.cli as cli
from gravoptics import fock
from gravoptics.states import GwSignalParams
scripts, out = {str(SCRIPTS)!r}, {str(tmp_path)!r}
for argv in (
    ["probs", "--config", scripts + "/fig2_probs.json"],
    ["g2", "--config", scripts + "/fig3_g2.json"],
    ["tomo", "--config", scripts + "/tomo_roundtrip.json", "--seed", "11"],
    ["physical", "--config", scripts + "/weber_bar.json"],
    ["oracle-check"],
):
    assert cli.main(argv + ["--out", out + "/" + argv[0]]) == 0, argv
p = GwSignalParams(alpha=0.8 + 0.3j, r=0.4, theta=0.9, nbar=0.3)
fock.oracle_pn_table(p, 0.7, 4)
fock.oracle_moments_and_g2(p, 0.7)
fock.oracle_normal_moment(p, 1, 1)
fock.oracle_min_quadrature_variance(p, 0.7)
leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not leaked, leaked
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tomo_does_not_import_numpy_ma(tmp_path):
    """A fresh tomo process loads no numpy.ma, which np.unique would import (~30 ms)."""
    code = f"""
import sys
from gravoptics import cli
argv = ["tomo", "--config", {str(SCRIPTS / "tomo_roundtrip.json")!r}, "--seed", "11"]
assert cli.main(argv + ["--out", {str(tmp_path / "t.json")!r}]) == 0
assert "numpy.ma" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    ("command", "config"),
    [
        ("probs", "fig2_probs.json"),
        ("g2", "fig3_g2.json"),
        ("physical", "weber_bar.json"),
        ("tomo", "tomo_roundtrip.json"),
    ],
)
def test_seed_is_an_unknown_flag_where_nothing_is_drawn(capsys, command, config):
    # only tomo and oracle-check draw random numbers; elsewhere a seed would be
    # ignored.  Likewise tomo writes JSON only, so it has no --format.
    flag = "--format" if command == "tomo" else "--seed"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(SCRIPTS / config), flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("t", [None, 0])
def test_physical_without_t_prints_thresholds(tmp_path, t):
    # gamma_th and n_th do not depend on t; only the two comparisons are left open
    from gravoptics.physical import HBAR, K_B

    detector = {
        "mass": 1800, "length": 3, "omega_ell": 5600, "temperature": 0.01, "quality_factor": 1e7
    }
    if t is not None:
        detector["t"] = t
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"detector": detector}))
    out = tmp_path / "p.csv"
    assert main(["physical", "--config", str(path), "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert "nan" not in row
    assert float(fields["gamma_th"]) == K_B * 0.01 / (HBAR * 1e7)
    assert float(fields["n_th"]) == K_B * 0.01 / (HBAR * 5600)
    assert (fields["heating_ok"], fields["occupation_ok"]) == ("-1", "-1")


def test_physical_landmark(tmp_path):
    out = tmp_path / "p.json"
    assert main(["physical", "--config", str(SCRIPTS / "weber_bar.json"), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())[0]
    assert 5e34 <= payload["n_grav"] <= 2e35
    assert payload["gamma_g"] > 0.0
