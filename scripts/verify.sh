#!/usr/bin/env bash
# Hermetic verification: build and test the whole workspace with the
# network forbidden. This is the tier-1 gate from ROADMAP.md plus the
# offline flag, so it fails loudly if anyone reintroduces a registry
# dependency (see tests/manifest_lint.rs for the matching unit-level
# guard).
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build (debug build + tests only)

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> offline release build"
if [ "$QUICK" -eq 0 ]; then
    cargo build --release --offline --workspace
else
    echo "    (skipped: --quick)"
fi

echo "==> offline debug build (all targets: tests, benches, examples)"
cargo build --offline --workspace --all-targets

echo "==> benchmark package build"
# perfbench is a stand-alone package outside the workspace that drives
# the public API; building it catches an API break the benchmark would
# hit.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> offline test suite"
cargo test -q --offline --workspace

echo "==> determinism suite across thread counts"
# The compute core promises bit-identical results at any worker count;
# run the determinism suite under a serial pool, an odd worker count
# (where uneven chunking would show) and an even one.
FARE_RT_THREADS=1 cargo test -q --offline --test determinism
FARE_RT_THREADS=3 cargo test -q --offline --test determinism
FARE_RT_THREADS=4 cargo test -q --offline --test determinism

echo "==> runner pins across thread counts"
# Every training runner is pinned bit for bit by a digest of its
# outcome. An odd worker count is where uneven chunking of the parallel
# kernels would show, so run the pins on 1 and 3 threads.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test runner_pins
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test runner_pins

echo "==> sweep pins across thread counts"
# Every trial-averaged figure sweep and training ablation is pinned by
# a digest of its result. The sweeps share one partition per (dataset,
# trial seed) across a flat parallel map of runs, so check a serial and
# an odd worker count.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test sweep_pins
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test sweep_pins

echo "==> partition pins across thread counts"
# The partitioner and mini-batch assembly of every preset are pinned by
# digests of their output and of the RNG draw after them.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-graph --test partition_pins
FARE_RT_THREADS=3 cargo test -q --offline -p fare-graph --test partition_pins

echo "==> sparse GAT against the dense oracle across thread counts"
# GAT attends over the view's CSR pattern; a property test pins its
# output, attention and gradients bit for bit to the dense n x n GAT
# kept as a test-only oracle. The sparse product P = S.Z runs on the
# pool, so check a serial and an odd worker count.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-gnn --lib -- \
    sparse_attention_bit_identical_to_dense_oracle
FARE_RT_THREADS=3 cargo test -q --offline -p fare-gnn --lib -- \
    sparse_attention_bit_identical_to_dense_oracle

echo "==> sparse adjacency fault path against the dense oracle across thread counts"
# Faulty runs pack each batch's CSR graph into the crossbar blocks,
# corrupt the CSR pattern with a sparse edit per stuck cell and
# normalise the pattern directly. A property test pins blocks, pattern
# and every view cache by to_bits to the dense n x n path, kept as a
# test-only oracle. Mapping and refresh run on the pool, so check a
# serial and an odd worker count.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test sparse_adjacency
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test sparse_adjacency

echo "==> weight fault overlay against the per-read oracle"
# Weight reads go through a cached per-weight AND/OR mask overlay. A
# property test pins it by to_bits to the old per-read HashMap fault
# walk, kept as a test-only oracle, over crossbar sizes 8/16/32, fault
# densities 0-100%, SA1 fractions 0/0.5/1, random placements, repeated
# injections and NaN/inf/saturating weights.
cargo test -q --offline -p fare-reram --lib -- overlay_read_bit_identical_to_oracle

echo "==> matrix, graph, partitioning, mini-batch, crossbar, weight-fabric and mapping deserialisers reject bad input"
cargo test -q --offline --test serialization -- from_json_rejects

echo "==> golden telemetry trace across thread counts"
# The committed golden manifest (tests/golden/golden_trace.json) must be
# reproduced bit-for-bit on a serial and a parallel pool: counters count
# logical events and the telemetry clock is fixed, so the trace may not
# depend on worker count.
FARE_RT_THREADS=1 cargo test -q --offline --test golden_trace
FARE_RT_THREADS=3 cargo test -q --offline --test golden_trace
FARE_RT_THREADS=4 cargo test -q --offline --test golden_trace

echo "==> mapping fast-path equivalence across thread counts"
# The mapping fast path promises bit-identical Mappings to the serial
# reference oracle; re-run the pinning proptests under a serial and a
# parallel pool.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test proptests -- \
    fast_path_bit_identical_to_reference incremental_refresh_bit_identical_to_full
FARE_RT_THREADS=4 cargo test -q --offline -p fare-core --test proptests -- \
    fast_path_bit_identical_to_reference incremental_refresh_bit_identical_to_full

echo "==> compute-core bench smoke"
# The bench smokes time production code only: the sparse GCN step and
# aggregation, the batched crossbar matmul, and the mapping, cached
# refresh and corruption at the trainer's crossbar geometry, from a CSR
# batch graph.
BENCH_TMP="$(mktemp /tmp/bench_core.XXXXXX.json)"
trap 'rm -f "$BENCH_TMP"' EXIT
cargo run -q --offline -p fare-bench --bin bench_core -- \
    --smoke --nodes 600 --out "$BENCH_TMP"

echo "==> mapping bench smoke"
BENCH_MAP_TMP="$(mktemp /tmp/bench_mapping.XXXXXX.json)"
trap 'rm -f "$BENCH_TMP" "$BENCH_MAP_TMP"' EXIT
cargo run -q --offline -p fare-bench --bin bench_mapping -- \
    --smoke --out "$BENCH_MAP_TMP"

echo "==> example smoke (RunManifest summaries)"
# The examples double as executable documentation for the telemetry
# layer; make sure they keep running end to end.
cargo run -q --offline --example post_deployment -- --smoke > /dev/null
cargo run -q --offline --example fault_sweep -- --smoke --ratio 1:1 > /dev/null
cargo run -q --offline --example pipeline_timing -- --smoke > /dev/null

echo "==> trace & report gate"
# Fresh golden run under FARE_OBS=trace diffed against the committed
# snapshot with the fare-report CLI (exit non-zero on any counter /
# timer / epoch / heatmap movement), then the figure renderer's
# determinism self-check. This exercises the span tracer, the manifest
# pipeline and the analyzer end to end.
REPORT_TMP="$(mktemp -d /tmp/fare_report.XXXXXX)"
trap 'rm -f "$BENCH_TMP" "$BENCH_MAP_TMP"; rm -rf "$REPORT_TMP"' EXIT
cargo run -q --offline --bin fare-report -- run-golden \
    --out "$REPORT_TMP/golden_fresh.json" \
    --jsonl "$REPORT_TMP/golden_fresh.jsonl" \
    --chrome "$REPORT_TMP/golden_fresh.trace.json"
cargo run -q --offline --bin fare-report -- diff \
    tests/golden/golden_trace.json "$REPORT_TMP/golden_fresh.json"
cargo run -q --offline --bin fare-report -- figures \
    "$REPORT_TMP/golden_fresh.json" --check --out "$REPORT_TMP/figs" > /dev/null
cargo run -q --offline --bin fare-report -- summarize \
    "$REPORT_TMP/golden_fresh.json" > /dev/null
cargo run -q --offline --bin fare-report -- heatmap \
    "$REPORT_TMP/golden_fresh.json" > /dev/null

echo "==> hostile input smoke (deeply nested JSON)"
# The JSON parser bounds its nesting depth: 200k unclosed '[' must be a
# usage error (exit 2), not a stack-overflow abort.
head -c 200000 /dev/zero | tr '\0' '[' > "$REPORT_TMP/deep.json"
set +e
cargo run -q --offline --bin fare-report -- summarize \
    "$REPORT_TMP/deep.json" > /dev/null 2>&1
DEEP_STATUS=$?
set -e
if [ "$DEEP_STATUS" -ne 2 ]; then
    echo "fare-report summarize on deeply nested JSON exited $DEEP_STATUS, expected 2" >&2
    exit 1
fi

echo "==> verify OK"
