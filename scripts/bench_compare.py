"""Compare two checkouts on the perfbench workloads and write a BENCH_<n>.json.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

Each directory is a full checkout (for example made with ``git archive``).
For every workload named in BENCHMARK.json the script runs ten untraced
pairs, alternating which side runs first, with seeds 901, 902, ... and the
benchmark's own run length, then one traced run of each side.  The output
holds every run, each side's median and quartiles per end-to-end metric,
the number of pairs the change won, and both traced runs' per-layer metrics.
Per metric it also holds the median of the per-pair change/parent ratios
with a 90% bootstrap interval over the pairs (seeded, so a file is
reproducible from its runs), and ``claimable``: at least ten pairs, the
change wins at least nine tenths of them (a tie counts for neither side),
and the change's median beats the parent's by more than the parent's
interquartile range.  The file is rewritten after every run, so an
interrupted comparison keeps what it measured.
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
# bootstrap resamples of the pairs behind each ratio interval, and their seed
RESAMPLES = 2000
BOOTSTRAP_SEED = 23


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


def ratio_summary(ratios: list[float]) -> dict:
    """Median of the per-pair change/parent ratios and its 90% bootstrap interval."""
    rng = numpy.random.default_rng(BOOTSTRAP_SEED)
    medians = numpy.median(rng.choice(ratios, size=(RESAMPLES, len(ratios))), axis=1)
    lo, hi = numpy.quantile(medians, [0.05, 0.95])
    return {"median": statistics.median(ratios), "lo90": float(lo), "hi90": float(hi)}


def claimable(row: dict, pairs: int) -> bool:
    """At least ten pairs, nine tenths won, and a median gap wider than the parent's IQR."""
    parent, change = row["parent"], row["change"]
    gap = change["median"] - parent["median"]
    if row["better"] == "lower":
        gap = -gap
    won = pairs >= 10 and row["change_wins"] >= 0.9 * pairs
    return won and gap > parent["q3"] - parent["q1"]


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
            pair_values = [
                (pr["parent"]["metrics"][name]["value"], pr["change"]["metrics"][name]["value"])
                for pr in complete
            ]
            row["change_wins"] = sum((c < p) if lower else (c > p) for p, c in pair_values)
            if len(pair_values) >= 2:
                row["claimable"] = claimable(row, len(pair_values))
                if all(p != 0 for p, _ in pair_values):
                    row["ratio"] = ratio_summary([c / p for p, c in pair_values])
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
