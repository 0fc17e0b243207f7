#!/usr/bin/env bash
# Engine benchmark harness: runs the hot-path benchmarks (two-class and
# multi-class stepping, the occupancy scaling under IF, EQUI and SRPT at
# n in {10, 100, 1k, 10k}, the Figure 4c heat map with its allocations, the
# QBD solve on one held workspace on three figure chains, and the
# internal/serve loopback serving path — cache-hit and coalesced req/sec)
# and APPENDS one dated entry to BENCH_engine.json via cmd/benchlog, so the
# perf trajectory across PRs is preserved. Each -bench pattern must match
# at least one benchmark, or the script fails: a renamed or moved benchmark
# cannot silently drop out of the history.
#
# Each benchmark runs BENCH_COUNT times (default 3) and benchlog records the
# fastest sample, so the history entries — the baselines `benchlog -check`
# gates CI against — carry as little scheduler noise as possible. On a noisy
# shared box, raise BENCH_COUNT (e.g. BENCH_COUNT=7) for a tighter floor.
#
# Usage: scripts/bench.sh [benchtime]            (default 1s)
#        scripts/bench.sh profile [benchtime]    (profile mode)
#
# Profile mode appends nothing: it reruns the occupancy-scaling hot path at
# n = 100 (BenchmarkEngineEventN100, near the 10-120 resident jobs of the
# benchmark sweep's rho 0.98 cells) under the CPU, allocation and mutex
# profilers and drops flamegraph-ready BENCH_cpu.prof /
# BENCH_mem.prof / BENCH_mutex.prof (plus the test binary BENCH_bench.test
# for symbolizing) next to BENCH_engine.json. Inspect with e.g.
#   go tool pprof -http=: BENCH_bench.test BENCH_cpu.prof
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_engine.json"
OUTPUT="$(mktemp)" # one go test run's output
RAW="$(mktemp)"    # every run's output, for benchlog
trap 'rm -f "$OUTPUT" "$RAW"' EXIT

# matched PKG PATTERN fails unless $OUTPUT holds a benchmark result line:
# go test exits 0 when -bench matches no benchmark.
matched() {
  if ! grep -q '^Benchmark' "$OUTPUT"; then
    echo "FAIL: -bench '$2' matched no benchmark in $1" >&2
    exit 1
  fi
}

if [ "${1:-}" = "profile" ]; then
  BENCHTIME="${2:-1s}"
  echo "==> profiling BenchmarkEngineEventN100 (-benchtime $BENCHTIME)"
  go test ./internal/sim -run '^$' -bench '^BenchmarkEngineEventN100$' \
    -benchtime "$BENCHTIME" -o BENCH_bench.test \
    -cpuprofile BENCH_cpu.prof -memprofile BENCH_mem.prof -mutexprofile BENCH_mutex.prof | tee "$OUTPUT"
  matched ./internal/sim '^BenchmarkEngineEventN100$'
  # Smoke: the profiles must load and be non-trivial, or the wiring rotted.
  go tool pprof -top -nodecount=5 BENCH_bench.test BENCH_cpu.prof
  for p in BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof; do
    [ -s "$p" ] || { echo "FAIL: $p missing or empty" >&2; exit 1; }
  done
  echo "profiles written: BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof (binary: BENCH_bench.test)"
  exit 0
fi

BENCHTIME="${1:-1s}"

# bench PKG PATTERN runs PKG's benchmarks matching PATTERN, best of
# BENCH_COUNT, and adds their lines to $RAW; it fails when PATTERN matched
# none. -timeout 0: the runs are bounded by benchtime x count, and a raised
# BENCH_COUNT must not trip go test's default 10m package timeout.
bench() {
  go test "$1" -run '^$' -bench "$2" -timeout 0 \
    -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee "$OUTPUT"
  matched "$1" "$2"
  cat "$OUTPUT" >> "$RAW"
}

echo "==> go test -bench BenchmarkEngineEvent (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
bench ./internal/sim 'BenchmarkEngineEvent'

echo "==> go test -bench BenchmarkFigure4cHighLoad (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# The 196 analysis points of Figure 4c on the default pool; its allocs/op
# tracks the analysis path's buffer reuse.
bench ./internal/exp '^BenchmarkFigure4cHighLoad$'

echo "==> go test -bench BenchmarkSolveFigureChains (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# The QBD solve that ends every Figure 4-6 point, on one held workspace as
# the figures run it (0 allocs/op once warm): IF and EF at k 4, IF at k 16,
# rho 0.9.
bench ./internal/mrt '^BenchmarkSolveFigureChains$'

echo "==> go test -bench BenchmarkServe (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# Loopback HTTP serving over real sockets; benchlog records the reported
# requests/sec metric as the requests_per_sec column.
bench ./internal/serve 'BenchmarkServe'

NOTE="$(git rev-parse --short HEAD 2>/dev/null || echo unversioned) benchtime=$BENCHTIME"
go run ./cmd/benchlog -file "$OUT" -date "$(date -u +%Y-%m-%d)" -note "$NOTE" < "$RAW"
