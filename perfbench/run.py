"""Benchmark of gravoptics: one workload, timed end to end, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cli,sweeps,oracle} --seed N --seconds S --trace {0,1}

The program is the checkout's own ``src/gravoptics`` (byte-compiled first, as
an installed package would be); nothing installed elsewhere is used.  One
closed-loop client runs one op at a time in a single worker process, with
one BLAS thread, so the run uses at most the machine's 2 cores.  The last
line of standard output is the JSON result; see README.md for the
workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 160

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.total_ms": "ms",
    "import.scipy_ms": "ms",
    "cli.load_config_ms": "ms/op",
    "cli.grid_ms": "ms/op",
    "cli.emit_ms": "ms/op",
    "cli.emit_bytes": "bytes/op",
    "counting.delta_pn.calls": "calls/op",
    "counting.delta_pn.self_ms": "ms/op",
    "counting.closed_form_p012.self_ms": "ms/op",
    "counting.prob_n_hafnian.calls": "calls/op",
    "counting.loop_hafnian.self_ms": "ms/op",
    "series.exp_bivariate_quadratic.calls": "calls/op",
    "series.exp_bivariate_quadratic.self_ms": "ms/op",
    "counting.counting_matrices.calls_per_pn": "calls/P_n",
    "correlations.g2_ideal.self_ms": "ms/op",
    "tomography.simulate_phase_sweep.self_ms": "ms/op",
    "tomography.reconstruct_gaussian.self_ms": "ms/op",
    "tomography.delta_g2_terms.calls": "calls/op",
    "fock.build_gw_density.calls_per_op": "calls/op",
    "fock.build_gw_density.self_ms": "ms/op",
    "fock.evolved_bar_density.self_ms": "ms/op",
    "fock.splitting_column.calls": "calls/op",
    "fock.TruncatedState.init_ms": "ms/op",
    "fock.dim.p50": "dim",
    "fock.dim.max": "dim",
    "dynamics.lyapunov_bar_marginal.self_ms": "ms/op",
    "tracing.overhead_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=("cli", "sweeps", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # keeps the benchmark's own directory clean
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_worker(args, env: dict) -> tuple[float, str]:
    """Run the measuring worker; returns (spawn stamp, its standard output)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--budget={args.seconds}",
        f"--trace={args.trace}",
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        # timed out or terminated: stop the worker and every process it started
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    return spawned, out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "gravoptics" / "__init__.py").is_file():
        print(f"no src/gravoptics under {root}: run from the root of a gravoptics checkout", file=sys.stderr)
        return 2
    env = worker_env(root)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "gravoptics")],
        env=env,
        check=True,
        timeout=120,
    )
    try:
        spawned, out = run_worker(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])
    op_s = report["op_s"]
    setups = [report["ready"] - spawned, *report["setup_samples"]]
    if args.trace:
        layers = report["per_layer"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_p50_ms": 1e3 * statistics.median(op_s),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "ops": report["attempted"],
        "ops_per_round": report["round_size"],
        "known_fault_ops_per_round": report["known_faults"],
        "setup_samples_s": setups,
        "unexpected_failures": report["unexpected"],
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not report["unexpected"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
