#!/usr/bin/env bash
# Engine benchmark harness: runs the hot-path benchmarks (two-class and
# multi-class stepping, the occupancy scaling under IF, EQUI and SRPT at
# n in {10, 100, 1k, 10k}, the end-to-end simulator throughput, and the
# internal/serve loopback serving path — cache-hit and coalesced req/sec) and
# APPENDS one dated entry to BENCH_engine.json via cmd/benchlog, so the
# perf trajectory across PRs is preserved (a legacy single-snapshot file is
# migrated into the history's first entry automatically).
#
# Each benchmark runs BENCH_COUNT times (default 3) and benchlog records the
# fastest sample, so the history entries — the baselines `benchlog -check`
# gates CI against — carry as little scheduler noise as possible. On a noisy
# shared box, raise BENCH_COUNT (e.g. BENCH_COUNT=7) for a tighter floor.
#
# Usage: scripts/bench.sh [benchtime]            (default 1s)
#        scripts/bench.sh profile [benchtime]    (profile mode)
#
# Profile mode appends nothing: it reruns the occupancy-scaling hot path
# (BenchmarkEngineEventN10k, the constant being attacked) under the CPU,
# allocation and mutex profilers and drops flamegraph-ready BENCH_cpu.prof /
# BENCH_mem.prof / BENCH_mutex.prof (plus the test binary BENCH_bench.test
# for symbolizing) next to BENCH_engine.json. Inspect with e.g.
#   go tool pprof -http=: BENCH_bench.test BENCH_cpu.prof
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_engine.json"

if [ "${1:-}" = "profile" ]; then
  BENCHTIME="${2:-1s}"
  echo "==> profiling BenchmarkEngineEventN10k (-benchtime $BENCHTIME)"
  go test ./internal/sim -run '^$' -bench 'BenchmarkEngineEventN10k' \
    -benchtime "$BENCHTIME" -o BENCH_bench.test \
    -cpuprofile BENCH_cpu.prof -memprofile BENCH_mem.prof -mutexprofile BENCH_mutex.prof
  # Smoke: the profiles must load and be non-trivial, or the wiring rotted.
  go tool pprof -top -nodecount=5 BENCH_bench.test BENCH_cpu.prof
  for p in BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof; do
    [ -s "$p" ] || { echo "FAIL: $p missing or empty" >&2; exit 1; }
  done
  echo "profiles written: BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof (binary: BENCH_bench.test)"
  exit 0
fi

BENCHTIME="${1:-1s}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "==> go test -bench Engine/Throughput (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# -timeout 0 everywhere: the runs are bounded by benchtime x count, and a
# raised BENCH_COUNT must not trip go test's default 10m package timeout.
go test ./internal/sim -run '^$' -bench 'BenchmarkEngineEvent' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"
go test . -run '^$' -bench 'BenchmarkSimulatorThroughput' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"

echo "==> go test -bench BenchmarkServe (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# Loopback HTTP serving over real sockets; benchlog records the reported
# requests/sec metric as the requests_per_sec column and gates it in CI.
go test ./internal/serve -run '^$' -bench 'BenchmarkServe' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"

NOTE="$(git rev-parse --short HEAD 2>/dev/null || echo unversioned) benchtime=$BENCHTIME"
go run ./cmd/benchlog -file "$OUT" -date "$(date -u +%Y-%m-%d)" -note "$NOTE" < "$RAW"
