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

# Runs `cargo test` with the given arguments, which end in a test-name
# filter, and fails unless every test binary it runs ran at least one
# test. cargo passes when a filter matches nothing, so a renamed or
# deleted test would otherwise drop out of its gate unnoticed.
filtered_test() {
    local out
    out="$(cargo test "$@" 2>&1)" || {
        echo "$out" >&2
        return 1
    }
    echo "$out"
    local results
    results="$(grep -E '^test result: ok\. [0-9]+ passed' <<< "$out" || true)"
    if [ -z "$results" ] || grep -qE '^test result: ok\. 0 passed' <<< "$results"; then
        echo "cargo test $* selected no test in some test binary" >&2
        return 1
    fi
}

echo "==> formatting"
# The root workspace is rustfmt-clean with the default style; any
# unformatted line fails the gate. (The stand-alone perfbench package is
# not a workspace member and is not checked.)
cargo fmt --check

echo "==> offline release build"
if [ "$QUICK" -eq 0 ]; then
    cargo build --release --offline --workspace
else
    echo "    (skipped: --quick)"
fi

echo "==> offline debug build (all targets: libraries, binaries, tests, examples), warning-free"
# Any compiler warning fails the gate: a deletion that orphans an
# import or a helper shows up here. Cargo replays cached warnings, so
# an incremental build reports them too.
BUILD_OUT="$(cargo build --offline --workspace --all-targets 2>&1)" || {
    echo "$BUILD_OUT" >&2
    exit 1
}
echo "$BUILD_OUT"
if grep -q '^warning' <<< "$BUILD_OUT"; then
    echo "the all-targets debug build printed compiler warnings" >&2
    exit 1
fi

echo "==> clippy (all targets), warning-free"
# Every clippy lint at its default level is an error here, in library,
# binary, test and example code alike.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc, warning-free"
# A broken, ambiguous or redundant doc link is an error, so a doc that
# still links to a deleted item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --lib

echo "==> benchmark package build"
# perfbench is a stand-alone package outside the workspace that drives
# the public API; building it catches an API break the benchmark would
# hit.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> offline test suite"
cargo test -q --offline --workspace

echo "==> determinism suite across thread counts"
# Training promises bit-identical results at any worker count. The
# scoped fan-out carries the runs of a sweep; the kernels and the
# mapping are serial and must ignore the thread count. Run the
# determinism suite on one thread, an odd thread count (where an uneven
# split of the runs would show) and an even one.
FARE_RT_THREADS=1 cargo test -q --offline --test determinism
FARE_RT_THREADS=3 cargo test -q --offline --test determinism
FARE_RT_THREADS=4 cargo test -q --offline --test determinism

echo "==> runner pins across thread counts"
# Every training runner is pinned bit for bit by a digest of its
# outcome. A run is serial and must ignore the thread count, so run the
# pins on 1 and 3 threads; a kernel or mapping step that started reading
# the thread count would show.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test runner_pins
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test runner_pins

echo "==> sweep pins across thread counts"
# Every trial-averaged figure sweep and training ablation is pinned by
# a digest of its result. The sweeps share one partition per (dataset,
# trial seed) across a flat parallel map of runs, so check a serial and
# an odd thread count, where an uneven split of the runs would show.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test sweep_pins
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test sweep_pins

echo "==> strategy relations across thread counts"
# Each strategy acts only where FaultStrategy says it does: with the
# faults it guards against switched off, it trains bit for bit like the
# strategy without that mechanism (weight faults off: clipping-only =
# fault-unaware; adjacency faults off: FARe = clipping-only; no faults:
# FARe = clipping-only and NR = fault-unaware), on the classification
# and link runners.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test strategy_relations
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test strategy_relations

echo "==> partition pins across thread counts"
# The partitioner and mini-batch assembly of every preset are pinned by
# digests of their output and of the RNG draw after them.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-graph --test partition_pins
FARE_RT_THREADS=3 cargo test -q --offline -p fare-graph --test partition_pins

echo "==> partitioner against its oracle across thread counts"
# The partitioner keeps its first version's algorithm and RNG draws on
# integer weights, a transposed coarse graph and branch-free sweeps; the
# first version stays as a test-only oracle. A property test pins the
# assignment and the next RNG draw to it over SBM, R-MAT, star,
# disconnected and sparse random graphs with k from 1 to n. The
# partitioner is serial and must ignore the thread count.
FARE_RT_THREADS=1 filtered_test -q --offline -p fare-graph --lib -- \
    partition_bit_identical_to_reference_oracle
FARE_RT_THREADS=3 filtered_test -q --offline -p fare-graph --lib -- \
    partition_bit_identical_to_reference_oracle

echo "==> row kernel against the plain-loop oracle across thread counts"
# Every dense product and every aggregation computes its output rows
# through the register-accumulator kernels: matmul and t_matmul two rows
# at a time through the paired kernel, spmm one row at a time. Property
# tests pin matmul, t_matmul, matmul_t and spmm by to_bits to the plain
# loops the kernels replaced, kept as test-only oracles, over every
# small shape (odd and even row counts), widths on both sides of the
# 32-wide register cutoff, and signed zeros, NaN, infinities and
# subnormals. The products are serial and must ignore
# the thread count, so check a serial and an odd worker count.
FARE_RT_THREADS=1 filtered_test -q --offline -p fare-tensor -p fare-graph --lib -- \
    bit_identical_to_loop_oracle
FARE_RT_THREADS=3 filtered_test -q --offline -p fare-tensor -p fare-graph --lib -- \
    bit_identical_to_loop_oracle

echo "==> sparse GAT against the dense oracle across thread counts"
# GAT attends over the view's CSR pattern in one fused pass per row,
# forward and backward; a property test pins its output, attention and
# gradients bit for bit to the dense n x n GAT kept as a test-only
# oracle, at the trainer's layer widths and up to 80 nodes. The passes
# are serial and must ignore the thread count, so check a serial and an
# odd worker count.
FARE_RT_THREADS=1 filtered_test -q --offline -p fare-gnn --lib -- \
    sparse_attention_bit_identical_to_dense_oracle
FARE_RT_THREADS=3 filtered_test -q --offline -p fare-gnn --lib -- \
    sparse_attention_bit_identical_to_dense_oracle

echo "==> sorted AUC against the pairwise oracle"
# Link prediction's AUC sorts the negative scores once and counts each
# positive's wins and ties by binary search. A property test pins it by
# to_bits to the quadratic pairwise count, kept as a test-only oracle,
# over heavily tied scores with signed zeros, infinities and NaN.
filtered_test -q --offline -p fare-gnn --lib -- sorted_auc_bit_identical_to_pairwise_oracle

echo "==> sparse adjacency fault path against the dense oracle across thread counts"
# Faulty runs pack each batch's CSR graph into the crossbar blocks,
# corrupt the CSR pattern with a sparse edit per stuck cell and
# normalise the pattern directly. A property test pins blocks, pattern
# and every view cache by to_bits to the dense n x n path, kept as a
# test-only oracle. The mapping and the corruption are serial and must
# ignore the thread count, so check a serial and an odd worker count.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test sparse_adjacency
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test sparse_adjacency

echo "==> crossbar fault planes against the naive per-cell model"
# A crossbar's only fault state is its two packed SA0/SA1 planes. A
# property test drives random injections (overwrites included) and
# clears at widths on both sides of one 64-bit word, and checks the
# planes, the row walk row_faults, fault_at, the popcount totals, the
# mismatch kernels and fault_version against a dense per-cell model
# after every step.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-reram --test fault_bitplanes

echo "==> weight fault overlay against the per-read oracle"
# Weight reads go through a cached per-weight AND/OR mask overlay. A
# property test pins it by to_bits to the old per-read HashMap fault
# walk, kept as a test-only oracle, over crossbar sizes 8/16/32, fault
# densities 0-100%, SA1 fractions 0/0.5/1, random placements, repeated
# injections and NaN/inf/saturating weights.
filtered_test -q --offline -p fare-reram --lib -- overlay_read_bit_identical_to_oracle

echo "==> the readers a binary runs reject bad input with an error, not an abort"
# fare-report must exit 2 on a manifest it cannot read or render;
# seeded mutations of the golden manifest and JSONL trace must parse or
# error, and every mutant that parses must summarize, diff, render and
# plot; seeded mutations of a dataset's edge list, label and feature
# files must read or error, and every dataset that assembles must have
# one label and one feature row per node; every fare-bench binary must
# exit 2 on a bad or unknown flag, or a flag given as another flag's
# value, before any work.
cargo test -q --offline --test report_cli
cargo test -q --offline --test reader_props
cargo test -q --offline -p fare-graph --test dataset_props
cargo test -q --offline -p fare-bench --test train_cli

echo "==> golden telemetry trace across thread counts"
# The committed golden manifest (tests/golden/golden_trace.json) must be
# reproduced bit-for-bit on one thread and several: counters count
# logical events and the telemetry clock is fixed, so the trace may not
# depend on worker count.
FARE_RT_THREADS=1 cargo test -q --offline --test golden_trace
FARE_RT_THREADS=3 cargo test -q --offline --test golden_trace
FARE_RT_THREADS=4 cargo test -q --offline --test golden_trace

echo "==> mapping fast-path equivalence across thread counts"
# The mapping fast path promises bit-identical Mappings to the serial
# reference oracle, which reads the full cost table, for both matchers
# (b-Suitor and Hungarian); its bound-ordered selection is exact only
# while the pair lower bounds stay below the exact costs. Re-run the
# pinning proptests under a serial and a parallel thread count. The
# level-greedy G1 solve and the G2 heap both rely on b-Suitor's tie
# order, greedy by (cost, row, col); the matching crate's bsuitor
# proptests pin it on every cost shape the runs produce.
filtered_test -q --offline -p fare-matching --test proptests -- bsuitor
for threads in 1 4; do
    for filter in fast_path_bit_identical_to_reference incremental_refresh_bit_identical_to_full; do
        FARE_RT_THREADS=$threads filtered_test -q --offline -p fare-core --test proptests -- \
            "$filter"
    done
    FARE_RT_THREADS=$threads filtered_test -q --offline -p fare-core --lib -- \
        pair_bounds_never_exceed_exact_costs
done
# Several BIST rounds of inject, cached refresh and CSR corruption at the
# trainer's geometry, against the full recompute, the dense corruption
# and the cache's hit/miss count of changed crossbars.
FARE_RT_THREADS=1 cargo test -q --offline -p fare-core --test ageing_oracle
FARE_RT_THREADS=3 cargo test -q --offline -p fare-core --test ageing_oracle

echo "==> compute-core bench smoke"
# The bench smokes time production code only: the sparse GCN step and
# aggregation, a GAT step on a trainer mini-batch, and the mapping,
# cached refresh and corruption at the trainer's crossbar geometry,
# from a CSR batch graph.
BENCH_TMP="$(mktemp /tmp/bench_core.XXXXXX.json)"
trap 'rm -f "$BENCH_TMP"' EXIT
cargo run -q --offline -p fare-bench --bin bench_core -- \
    --smoke --nodes 600 --out "$BENCH_TMP"

echo "==> mapping bench smoke"
BENCH_MAP_TMP="$(mktemp /tmp/bench_mapping.XXXXXX.json)"
trap 'rm -f "$BENCH_TMP" "$BENCH_MAP_TMP"' EXIT
cargo run -q --offline -p fare-bench --bin bench_mapping -- \
    --smoke --out "$BENCH_MAP_TMP"

echo "==> example smoke (manifest rendering, command-line checks)"
# The examples double as executable documentation for the telemetry
# layer; make sure they keep running end to end.
cargo run -q --offline --example post_deployment -- --smoke > /dev/null
cargo run -q --offline --example fault_sweep -- --smoke --ratio 1:1 > /dev/null
cargo run -q --offline --example pipeline_timing -- --smoke > /dev/null
cargo run -q --offline --example hardware_tour > /dev/null
# An example checks its whole command line before any work: an unknown
# flag or a bad --ratio is a usage error (exit 2), not a full-length run.
for args in "pipeline_timing -- --smoke --bogus" "fault_sweep -- --smoke --ratio 2:1"; do
    set +e
    # shellcheck disable=SC2086
    cargo run -q --offline --example $args > /dev/null 2>&1
    EXAMPLE_STATUS=$?
    set -e
    if [ "$EXAMPLE_STATUS" -ne 2 ]; then
        echo "example $args exited $EXAMPLE_STATUS, expected 2" >&2
        exit 1
    fi
done

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
