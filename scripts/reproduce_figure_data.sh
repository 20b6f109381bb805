#!/usr/bin/env bash
# Regenerate the sweep data sets (CSV/JSON) from the checked-in configs.
# Usage: scripts/reproduce_figure_data.sh [OUT_DIR]   (default: data/ in the repo)
# Output is byte-identical across runs, so two checkouts can be compared with
# diff -r on their output directories.  The commands run this checkout's src/
# with ${PYTHON:-python3}; no install is needed.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/data}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
cd "$root"
mkdir -p "$out"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
gravoptics() { "${PYTHON:-python3}" -m gravoptics.cli "$@"; }

gravoptics probs --config scripts/fig2_probs.json --out "$out/fraction_sweep_probs.csv"
gravoptics g2 --config scripts/fig3_g2.json --out "$out/g2_grid.csv"
gravoptics tomo --config scripts/tomo_roundtrip.json --seed 11 --out "$out/tomo_roundtrip.json"
gravoptics physical --config scripts/weber_bar.json --out "$out/weber_bar.json"
gravoptics oracle-check --out "$out/oracle_check.csv"

echo "wrote fraction_sweep_probs.csv g2_grid.csv tomo_roundtrip.json weber_bar.json" \
     "oracle_check.csv to $out"
