#!/usr/bin/env bash
# Two full sets of the same code on the same seed; non-zero exit if any
# (metric, workload) pair of the two disagrees beyond the metric's
# bound. Run from the repository root. A later CI change can call this.
set -euo pipefail
cd "$(dirname "$0")/.."
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
seed="${1:-1}"
"${bench[@]}" run --seed "$seed" --json benchmark/out/set-a.json
"${bench[@]}" run --seed "$seed" --json benchmark/out/set-b.json
"${bench[@]}" compare benchmark/out/set-a.json benchmark/out/set-b.json
