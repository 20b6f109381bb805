"""One fresh interpreter of a benchmark run: set-up, timed ops, checks.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Set-up is the
import of gravoptics, making the inputs from the seed and a fixed warm-up;
its end is stamped with ``time.monotonic()`` (CLOCK_MONOTONIC, shared by all
processes), so the parent can take set-up time from its own spawn stamp.
The worker then runs whole rounds until ``--budget`` seconds of op time are
spent and prints one JSON line with the time of each op (its best repeat,
or for `cli` its median repeat) and the check outcomes.
Between rounds it starts SETUP_SAMPLES - 1 more set-up-only workers, spread
over the run, so that set-up time is a median of fresh interpreters taken
at different moments rather than one sample.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

OUT_DIR = ".perfbench_out"
IMPORT_SAMPLES = 3
SETUP_SAMPLES = 5
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("cli", "sweeps", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of op time")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


# -- op execution ---------------------------------------------------------


def run_in_process(op) -> tuple[int, str]:
    from gravoptics import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op.argv)
    return rc, buf.getvalue()


class CliProcesses:
    """Runs each op as a fresh `python -m gravoptics.cli` process.

    Keeps the peak resident memory over those processes: os.wait4 returns
    each child's own rusage, where RUSAGE_CHILDREN would also count the
    set-up-only workers.
    """

    def __init__(self):
        self.peak_mb = 0.0

    def __call__(self, op) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gravoptics.cli", *op.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_mb = max(self.peak_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, out


def run_oracle(op) -> dict:
    from gravoptics import fock
    from gravoptics.states import GwSignalParams
    from workloads import ORACLE_N_MAX

    prm = op.params
    p = GwSignalParams(alpha=prm["alpha"], r=prm["r"], theta=prm["theta"], nbar=prm["nbar"])
    result = {"table": fock.oracle_pn_table(p, prm["gamma_t"], ORACLE_N_MAX)}
    if prm["with_g2"]:
        result["g2"] = fock.oracle_moments_and_g2(p, prm["gamma_t"])[2]
    return result


def make_inputs(workload: str, seed: int, work: Path, in_process: bool):
    """(round of ops, warm-up ops, executor, checker) of a workload."""
    import workloads

    if workload == "sweeps":
        return workloads.sweeps_round(seed, work), workloads.sweeps_warmup(work), run_in_process, check_cli
    if workload == "oracle":
        return workloads.oracle_round(seed), workloads.oracle_warmup(), run_oracle, check_oracle
    executor = run_in_process if in_process else CliProcesses()
    return workloads.cli_round(seed), [], executor, check_cli


# The checkers import mpmath and the referee on first use, after set-up ends.
def check_cli(op, result, cache) -> list[str]:
    import checks

    return checks.check_cli(op, *result, cache)


def check_oracle(op, result, cache) -> list[str]:
    import checks

    return checks.check_oracle(op, result, cache)


# -- measurement ----------------------------------------------------------


class Tally:
    """Wall time of every op run, kept per op, and the check outcomes."""

    def __init__(self):
        self.plain: dict[str, list[float]] = defaultdict(list)
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.cache: dict = {}

    def run(self, op, execute, check, tracer=None) -> float:
        scope = tracer.op() if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = execute(op)
            errors = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            errors = [f"raised {exc!r}"]
        elapsed = time.perf_counter() - start
        (self.plain if tracer is None else self.traced)[op.key].append(elapsed)
        self.attempted += 1
        if errors is None:
            errors = check(op, result, self.cache)
        if errors:
            self.failed += 1
            if not op.known_fault and len(self.unexpected) < MAX_REPORTED_FAILURES:
                self.unexpected.append(f"{op.key}: {'; '.join(errors[:3])}")
        return elapsed


def best_times(times: dict[str, list[float]]) -> list[float]:
    """Each op's wall time as the best of its repeats in the run.

    Other tenants of the host slow the machine in bursts of well under a
    second: the median of a 1-ms kernel over one second swings by up to 60%
    while its minimum stays within a few per cent.  The best repeat of an op
    is therefore its time on the machine, and the median of all repeats is
    mostly the neighbours' load.
    """
    return [min(v) for v in times.values()]


def median_times(times: dict[str, list[float]]) -> list[float]:
    """Each op's wall time as the median of its repeats in the run.

    For the `cli` ops, fresh processes of about a second each: one op
    already averages over the sub-second bursts, and with only 3 to 5
    repeats the best one is whichever happened to land in a fast spell, so
    the minimum follows luck while the median follows the machine.
    """
    return [statistics.median(v) for v in times.values()]


def import_breakdown() -> dict:
    """Median over fresh interpreters of `-X importtime` for gravoptics.cli."""
    totals, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gravoptics.cli"],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        total = scipy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cumulative = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:  # the header line
                continue
            name = parts[2]
            top_level = name.startswith(" ") and not name.startswith("  ")
            name = name.strip()
            if top_level and name.split(".")[0] == "gravoptics":
                total += cumulative
            if name.split(".")[0] == "scipy":
                scipy_us += self_us
        totals.append(total / 1e3)
        scipy.append(scipy_us / 1e3)
    return {"import.total_ms": statistics.median(totals), "import.scipy_ms": statistics.median(scipy)}


def setup_sample(args) -> float:
    """Wall time from spawning a set-up-only worker to the end of its set-up."""
    cmd = [sys.executable, __file__, f"--workload={args.workload}", f"--seed={args.seed}"]
    cmd += ["--budget=0", "--setup-only"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - spawned


def measure(ops, execute, check, args) -> tuple[Tally, list[float]]:
    tally = Tally()
    samples: list[float] = []
    timed = 0.0
    while timed < args.budget:
        for op in ops:
            timed += tally.run(op, execute, check)
        while len(samples) < SETUP_SAMPLES - 1 and timed >= (len(samples) + 1) * args.budget / SETUP_SAMPLES:
            samples.append(setup_sample(args))
    while len(samples) < SETUP_SAMPLES - 1:
        samples.append(setup_sample(args))
    return tally, samples


def measure_traced(ops, execute, check, budget: float):
    """Rounds run untraced and then traced, in turn, until the budget is spent."""
    from tracer import Tracer

    tracer = Tracer()
    tally = Tally()
    timed = 0.0
    while timed < budget:
        for op in ops:
            timed += tally.run(op, execute, check)
        tracer.install()
        try:
            for op in ops:
                timed += tally.run(op, execute, check, tracer)
        finally:
            tracer.uninstall()
    overhead = 100.0 * (sum(best_times(tally.traced)) / sum(best_times(tally.plain)) - 1.0)
    return tally, tracer, overhead


def layer_metrics(tracer, ops: list) -> dict:
    from workloads import sweep_points

    probs_rows = sum(
        (int(op.config.get("n_max", 3)) + 1) * sweep_points(op.config) for op in ops if op.kind == "probs"
    )
    rounds = tracer.ops / len(ops)
    dim_p50, dim_max = tracer.dim_stats()
    per_ms, calls = tracer.per_op_ms, tracer.per_op_calls
    return {
        "cli.load_config_ms": per_ms("cli.load_config"),
        "cli.grid_ms": per_ms("cli._grid"),
        "cli.emit_ms": per_ms("cli._emit"),
        "cli.emit_bytes": tracer.emit_chars / max(tracer.ops, 1),
        "counting.delta_pn.calls": calls("counting.delta_pn"),
        "counting.delta_pn.self_ms": per_ms("counting.delta_pn"),
        "counting.closed_form_p012.self_ms": per_ms("counting.closed_form_p012"),
        "counting.prob_n_hafnian.calls": calls("counting.prob_n_hafnian"),
        "counting.loop_hafnian.self_ms": per_ms("counting.loop_hafnian"),
        "series.exp_bivariate_quadratic.calls": calls("series.exp_bivariate_quadratic"),
        "series.exp_bivariate_quadratic.self_ms": per_ms("series.exp_bivariate_quadratic"),
        "counting.counting_matrices.calls_per_pn": (
            tracer.calls.get("counting.counting_matrices", 0) / (probs_rows * rounds) if probs_rows else 0.0
        ),
        "correlations.g2_ideal.self_ms": per_ms("correlations.g2_ideal"),
        "tomography.simulate_phase_sweep.self_ms": per_ms("tomography.simulate_phase_sweep"),
        "tomography.reconstruct_gaussian.self_ms": per_ms("tomography.reconstruct_gaussian"),
        "tomography.delta_g2_terms.calls": calls("tomography.delta_g2_terms"),
        "fock.build_gw_density.calls_per_op": calls("fock.build_gw_density"),
        "fock.build_gw_density.self_ms": per_ms("fock.build_gw_density"),
        "fock.evolved_bar_density.self_ms": per_ms("fock.evolved_bar_density"),
        "fock.splitting_column.calls": calls("fock.splitting_column"),
        "fock.TruncatedState.init_ms": per_ms("fock.TruncatedState.init"),
        "fock.dim.p50": dim_p50,
        "fock.dim.max": dim_max,
        "dynamics.lyapunov_bar_marginal.self_ms": per_ms("dynamics.lyapunov_bar_marginal"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    work = Path(OUT_DIR) / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    import gravoptics.cli  # noqa: F401  (set-up includes the package import)

    ops, warmup, execute, check = make_inputs(args.workload, args.seed, work, in_process=bool(args.trace))
    for op in warmup:
        result = execute(op)
        if isinstance(result, tuple) and result[0] != 0:
            raise RuntimeError(f"warm-up {op.key} exited {result[0]}")
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    report: dict = {"ready": ready, "setup_samples": []}
    if args.trace:
        tally, tracer, overhead = measure_traced(ops, execute, check, args.budget)
        layers = import_breakdown()
        layers.update(layer_metrics(tracer, ops))
        layers["tracing.overhead_pct"] = overhead
        report["per_layer"] = layers
        trace_path = Path(OUT_DIR) / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **tracer.dump()}))
    else:
        tally, report["setup_samples"] = measure(ops, execute, check, args)
    if isinstance(execute, CliProcesses):
        peak_mb = execute.peak_mb
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(
        op_s=(median_times if args.workload == "cli" else best_times)(tally.plain),
        attempted=tally.attempted,
        failed=tally.failed,
        unexpected=tally.unexpected,
        round_size=len(ops),
        known_faults=sum(op.known_fault for op in ops),
        peak_rss_mb=peak_mb,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
