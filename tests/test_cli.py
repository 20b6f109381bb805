import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gravoptics.cli import ConfigError, ScenarioConfig, load_config, main
from gravoptics.counting import PN_MAX

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


def test_oracle_check_exit_codes():
    proc = run_cli(["oracle-check"])
    assert proc.returncode == 0
    proc = run_cli(["oracle-check", "--inject-fault", "hafnian_vs_generating"])
    assert proc.returncode == 2
    assert "hafnian_vs_generating" in proc.stdout
    failing = [line for line in proc.stdout.splitlines() if ",0," in line]
    assert any("hafnian_vs_generating" in line for line in failing)


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
    # coherent reference vanishes too, so the ratio is undefined (NaN)
    path = tmp_path / "c.json"
    cfg = {"gw": {"alpha_mag": alpha_mag, "r": 0.3}, "detector": {"gamma_t": 0.3}, "n_max": 8}
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["probs", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(9))
    assert all(row[1:3] == ["0", "0"] and row[3] == "nan" for row in rows), rows


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
    for n_max, expected in ((7, {"series": 2, "closed": 2}), (2, {"series": 0, "closed": 2})):
        calls.update(series=0, closed=0)
        path.write_text(json.dumps({**DESK_PROBS, "n_max": n_max}))
        assert main(["probs", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        assert calls == expected, n_max


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
        ({"gw": {"alpha_mag": 1.0, "r": None}}, "gw"),
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
    ],
)
def test_config_boundary_exit_code(tmp_path, capsys, change, key):
    # a case runs probs unless it names another subcommand
    config = {**DESK_PROBS, **change}
    command = config.pop("subcommand", "probs")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


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
