#!/usr/bin/env bash
# Regenerates every table/figure output under results/ (release build).
# WINO_TRIALS controls accuracy-experiment trial counts (paper: 10000).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
TRIALS="${WINO_TRIALS:-2000}"
for bin in table1 table2 table4 figure5 figure6; do
  echo ">> $bin"
  cargo run -q --release -p wino-bench --bin "$bin" > "results/$bin.txt"
done
for bin in table3 figure4; do
  echo ">> $bin (WINO_TRIALS=$TRIALS)"
  WINO_TRIALS="$TRIALS" cargo run -q --release -p wino-bench --bin "$bin" > "results/$bin.txt"
done
for bin in figure7 figure8 figure9 network; do
  echo ">> $bin (tuning sweep)"
  cargo run -q --release -p wino-bench --bin "$bin" > "results/$bin.txt"
done
echo ">> figure9_cpu (wall-clock: this machine's numbers, 15 interleaved rounds)"
cargo run -q --release -p wino-bench --bin figure9_cpu > results/figure9_cpu.txt
echo ">> bank_read (wall-clock: batch-1 GEMMs against a read of their filter bank)"
cargo run -q --release -p wino-bench --bin bank_read > results/bank_read.txt
echo "done — outputs in results/"
