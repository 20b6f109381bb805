"""Check that two checkouts print the same bytes.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Each directory is a full checkout (for example made with ``git archive``).
The script runs ``scripts/reproduce_figure_data.sh`` in both and compares the
two output directories with ``diff -r``.  A ``gravoptics`` command that runs
the checkout's own ``src/`` is put on PATH, because checkouts whose script
predates running ``python3 -m gravoptics.cli`` itself call that command.  It
then runs every op and warm-up of ``perfbench/workloads.sweeps_round`` for
seeds 901-940 in-process, once as CSV and once as JSON, in one worker process
per checkout.  Each swept ``probs`` and ``g2`` op also runs as a rejected-grid
copy, whose first rejectable axis ends past its valid range (``PAST_RANGE``),
so that the error a grid reports, and its order, are compared too.  The
script lists every op whose exit code, output or stderr differ, grouped by
subcommand with a count per group, so that a deliberate change to one
subcommand's bytes still shows that every other output held.  The same
worker also runs the Fock oracle on every draw of
``perfbench/workloads.oracle_round`` for seeds 901-910, as the benchmark's
``oracle`` workload does, and hashes the bytes of each P_n table and of the
(<n>, <n^2>, g2) triple of each draw that asks for g2; they are reported as
one more group, ``oracle``.  Exit status 0 means both checks found no
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(901, 941)
ORACLE_SEEDS = range(901, 911)
FORMATS = ("csv", "json")
# the end of a rejected-grid axis: past [0, 1], below 0, |alpha|^2 overflows
PAST_RANGE = {"fraction_q": 1.5, "r": -0.5, "nbar": -0.5, "alpha_mag": 1e200}


def rejected(config: dict) -> dict | None:
    """A copy of a swept config whose first rejectable axis ends at PAST_RANGE, or None."""
    for i, axis in enumerate(config.get("sweep", [])):
        if axis["parameter"] in PAST_RANGE:
            sweep = list(config["sweep"])
            sweep[i] = {**axis, "max": PAST_RANGE[axis["parameter"]]}
            return {**config, "sweep": sweep}
    return None


def run_ops(checkout: Path, work: Path) -> list[tuple[str, str, str, int]]:
    """(label, subcommand, sha256 of its output, exit code) of every op and oracle draw.

    An op's output is its exit code, stdout and stderr; an oracle draw's is the
    bytes of its P_n table or moment triple, or its error message.
    """
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import workloads
    from gravoptics import cli, fock
    from gravoptics.states import GwSignalParams

    results: list[tuple[str, str, str, int]] = []

    def run(label: str, argv: list) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
        results.append((label, argv[0], digest.hexdigest(), code))

    def rounds():
        # every round writes its configs under the same names, so each round
        # is made only once the one before it has run
        yield "warm-up", workloads.sweeps_warmup(work)
        for seed in SEEDS:
            yield f"seed {seed}", workloads.sweeps_round(seed, work)

    for where, ops in rounds():
        for op in ops:
            for fmt in FORMATS:
                run(f"{where} {op.key} {fmt}", [*op.argv, "--format", fmt])
            config = rejected(op.config) if op.kind in ("probs", "g2") else None
            if config is not None:
                path = work / f"{op.key}-rejected.json"
                path.write_text(json.dumps(config))
                run(f"{where} {op.key} rejected", [op.kind, "--config", str(path)])

    def oracle(label: str, call) -> None:
        try:
            code, out = 0, np.asarray(call()).tobytes()
        except ValueError as error:
            code, out = 1, str(error).encode()
        results.append((label, "oracle", hashlib.sha256(out).hexdigest(), code))

    # the table, then the moments, in the order of the benchmark's oracle op
    for seed in ORACLE_SEEDS:
        for op in workloads.oracle_round(seed):
            prm = op.params
            p = GwSignalParams(alpha=prm["alpha"], r=prm["r"], theta=prm["theta"], nbar=prm["nbar"])
            gamma_t, label = prm["gamma_t"], f"seed {seed} {op.key}"
            n_max = workloads.ORACLE_N_MAX
            oracle(f"{label} table", lambda: fock.oracle_pn_table(p, gamma_t, n_max))
            if prm["with_g2"]:
                oracle(f"{label} moments", lambda: fock.oracle_moments_and_g2(p, gamma_t))
    return results


def compare_figure_data(sides: dict[str, Path], scratch: Path) -> bool:
    outs = {}
    for name, checkout in sides.items():
        bin_dir = scratch / f"bin-{name}"
        bin_dir.mkdir()
        shim = bin_dir / "gravoptics"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gravoptics.cli "$@"\n')
        shim.chmod(0o755)
        env = {
            **os.environ,
            "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
            "PYTHONPATH": str(checkout / "src"),
        }
        outs[name] = scratch / f"data-{name}"
        subprocess.run(
            ["bash", str(checkout / "scripts" / "reproduce_figure_data.sh"), str(outs[name])],
            env=env, check=True, capture_output=True,
        )
    diff = subprocess.run(["diff", "-r", *map(str, outs.values())], capture_output=True, text=True)
    if diff.returncode:
        print("figure data: differ\n" + "\n".join(diff.stdout.splitlines()[:20]))
        return False
    print(f"figure data: identical ({len(list(outs['parent'].iterdir()))} files)")
    return True


def differing(parent: list, change: list) -> dict[str, list[str]]:
    """Labels of the ops whose digests differ between two ``run_ops`` lists, by subcommand."""
    groups: dict[str, list[str]] = {}
    for (label, command, before, _), (_, _, after, _) in zip(parent, change, strict=True):
        if before != after:
            groups.setdefault(command, []).append(label)
    return groups


def compare_ops(sides: dict[str, Path], scratch: Path) -> bool:
    work = scratch / "configs"
    work.mkdir()
    results = {}
    for name, checkout in sides.items():
        cmd = [sys.executable, "-B", __file__, "--worker", str(checkout), str(work)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        results[name] = json.loads(proc.stdout)
    groups = differing(results["parent"], results["change"])
    for command, labels in groups.items():
        print(f"{command}: {len(labels)} differ")
        print("\n".join(f"  {label}" for label in labels))
    if groups:
        total = sum(map(len, groups.values()))
        print(f"{total} of {len(results['parent'])} outputs differ")
        return False
    sweeps = [row for row in results["parent"] if row[1] != "oracle"]
    codes = [code for label, *_, code in sweeps if label.endswith(" rejected")]
    exits = ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes)))
    print(
        f"sweeps ops: identical ({len(sweeps)} outputs, seeds 901-940; "
        f"{len(codes)} rejected grids: {exits})"
    )
    draws = [label for label, command, *_ in results["parent"] if command == "oracle"]
    tables = sum(label.endswith(" table") for label in draws)
    print(
        f"oracle draws: identical ({tables} P_n tables and {len(draws) - tables} "
        f"moment triples, seeds 901-910)"
    )
    return True


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:  # --worker CHECKOUT CONFIG_DIR, run by compare_ops
        json.dump(run_ops(Path(sys.argv[2]), Path(sys.argv[3])), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as scratch:
        same = compare_figure_data(sides, Path(scratch))
        same = compare_ops(sides, Path(scratch)) and same
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
