"""Compare two checkouts on the perfbench workloads and write a BENCH_<n>.json.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

Each directory is a full checkout (for example made with ``git archive``).
For every workload named in BENCHMARK.json the script runs ten untraced
pairs, alternating which side runs first, with seeds 901, 902, ... and the
benchmark's own run length, then one traced run of each side.  The output
holds every run, each side's median and quartiles per end-to-end metric,
the number of pairs the change won, and both traced runs' per-layer metrics.
The file is rewritten after every run, so an interrupted comparison keeps
what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return json.loads(lines[-1])


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side in ("parent", "change"):
                values = [p[side]["metrics"][name]["value"] for p in complete]
                if len(values) >= 2:
                    q1, median, q3 = statistics.quantiles(values, n=4)
                    row[side] = {"median": median, "q1": q1, "q3": q3}
            row["change_wins"] = sum(
                (c < p) if lower else (c > p)
                for p, c in (
                    (pr["parent"]["metrics"][name]["value"], pr["change"]["metrics"][name]["value"])
                    for pr in complete
                )
            )
            rows[name] = row
        rows["failed_share"] = {
            side: sorted({p[side]["failed"] / p[side]["attempted"] for p in complete})
            for side in ("parent", "change")
        }
        summary[workload] = {"pairs": len(complete), "metrics": rows}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace T",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "runs": [],
        "summary": {},
        "traced": {},
    }

    def save() -> None:
        doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for pair in range(10):
        seed = 901 + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed, seconds, 0)
                doc["runs"].append(
                    {"pair": pair, "seed": seed, "workload": workload, "side": side, "result": result}
                )
                save()
    for workload in workloads:
        for side in ("parent", "change"):
            result = run_once(sides[side], workload, 901, seconds, 1)
            doc["traced"].setdefault(workload, {})[side] = result
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
