"""Check that two checkouts print the same bytes.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Each directory is a full checkout (for example made with ``git archive``).
The script runs ``scripts/reproduce_figure_data.sh`` in both, with a
``gravoptics`` command that runs the checkout's own ``src/``, and compares the
two output directories with ``diff -r``.  It then runs every op and warm-up of
``perfbench/workloads.sweeps_round`` for seeds 901-940 in-process, once as
CSV and once as JSON, in one worker process per checkout, and names the first
op whose exit code, output or stderr differ.  Exit status 0 means both checks
found no difference.
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
FORMATS = ("csv", "json")


def run_ops(checkout: Path, work: Path) -> list[tuple[str, str, dict]]:
    """(label, sha256 of exit code, stdout and stderr, config) of every op, in order."""
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from gravoptics import cli

    ops = [("warm-up", op) for op in workloads.sweeps_warmup(work)]
    for seed in SEEDS:
        ops += [(f"seed {seed}", op) for op in workloads.sweeps_round(seed, work)]
    results = []
    for where, op in ops:
        for fmt in FORMATS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*op.argv, "--format", fmt])
            digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
            results.append((f"{where} {op.key} {fmt}", digest.hexdigest(), op.config))
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


def compare_ops(sides: dict[str, Path], scratch: Path) -> bool:
    work = scratch / "configs"
    work.mkdir()
    results = {}
    for name, checkout in sides.items():
        cmd = [sys.executable, "-B", __file__, "--worker", str(checkout), str(work)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        results[name] = json.loads(proc.stdout)
    for (label, parent, config), (_, change, _) in zip(results["parent"], results["change"]):
        if parent != change:
            print(f"sweeps ops: first difference at {label}\nconfig: {json.dumps(config)}")
            return False
    print(f"sweeps ops: identical ({len(results['parent'])} outputs, seeds 901-940)")
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
