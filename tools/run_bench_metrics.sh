#!/usr/bin/env bash
# Run every bench in its fast "CI exhibit" configuration, writing one
# --json metrics file per bench into OUT_DIR. This script is the single
# source of truth for the CI bench-metrics configurations: the committed
# bench/baselines.json was produced from exactly these invocations
# (regenerate with: tools/run_bench_metrics.sh <build> <out> &&
# tools/check_metrics.py <out> --baselines bench/baselines.json --update).
set -eu

BUILD_DIR=${1:?usage: run_bench_metrics.sh <build-dir> <out-dir>}
OUT_DIR=${2:?usage: run_bench_metrics.sh <build-dir> <out-dir>}
mkdir -p "$OUT_DIR"

run() {
  local bin=$1
  shift
  echo "== $bin $*"
  "$BUILD_DIR/bench/$bin" "$@" --json "$OUT_DIR/$bin.json" > /dev/null
}

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# The paper's full operating sweep, up to the published n=25,000 point,
# with the committed kernel-efficiency fit: --calibration enables the
# 13 +/- 0.65 GFLOPS gate inside the bench, and the gflops_n25000 /
# sim_time_n25000_s metrics are additionally gated by baselines.json.
# --skeleton replays every point against its derived schedule (exit 1 on
# divergence), so this line also smoke-tests the cache at full scale.
run fig1_linpack --n 1000,2500,5000,10000,15000,20000,25000 \
  --skeleton --calibration "$ROOT/bench/calibration.json"
run fig2_scaling --n 1000
run fig3_consortium
run fig4_mesh_traffic --messages 50
run table1_funding
run ablate_contention --messages 30
run flit_throughput --messages 8 --threads 2
# The Delta-mesh thread sweep: exits non-zero if any thread count
# diverges from the sequential reference. Its JSON would collide with
# the line above, and its counters (5,203 cycles, 3,285,888 link flits)
# are pinned exactly by FlitGolden in tests/flit_test.cpp.
echo "== flit_throughput --shape 33x16 --messages 6 --gap-us 20 --threads 1,2,4"
"$BUILD_DIR/bench/flit_throughput" --shape 33x16 --messages 6 --gap-us 20 \
  --threads 1,2,4 > /dev/null
# Rank-band sharded nx engine at CI scale: a 64-node modeled LU + CG
# sweep that exits non-zero if any thread count diverges from
# --threads 1 (the full 16,384-rank Columbia exhibit runs the same
# binary with --machine columbia; see docs/PERF.md).
run parallel_engine --machine delta --nodes 64 --n 512 --nb 32 \
  --cg-grid-n 64 --cg-iters 4 --threads 1,2,4
run ablate_collectives --nodes 64
run ablate_network --n 2000
run ablate_routing --width 6 --height 6
run asta_cg_scaling --iters 20
run asta_factorizations --n 1000,2000
run cas_fft
run testbed_ops --jobs 80 --seeds 3
run nren_rush_hour
# Full-scale federation day: ~1.5M completed transfers on the
# incremental flow engine (the scalability exhibit — keep the defaults).
run grid_rush_hour
run io_checkpoint --n 10000
run fault_waste --nodes 16 --work-hours 8
# A month of space-shared production with interfering checkpoints: the
# full 1000-job trace (the bench self-checks that a cooperative
# strategy beats uncoordinated Young/Daly on platform waste, and the
# waste_pct_* metrics are additionally gated by baselines.json).
run shared_platform

# The checkpointed-campaign example carries the same --json schema.
echo "== linpack_checkpointed --runs 2 --mtbf-days 2"
"$BUILD_DIR/examples/linpack_checkpointed" --runs 2 --mtbf-days 2 \
  --json "$OUT_DIR/linpack_checkpointed.json" > /dev/null

# Host-speed micro-benchmarks: wall-time only (no simulated clock), so
# the checker reports them informationally and never gates on them.
echo "== micro_kernels (subset)"
"$BUILD_DIR/bench/micro_kernels" \
  "--benchmark_filter=BM_(engine_events|xy_route|analytical_transfer)" \
  --json "$OUT_DIR/micro_kernels.json" > /dev/null

echo "metrics written to $OUT_DIR"
