#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, race-enabled tests, the exp worker-pool
# stress test, a short-budget fuzz pass over the busy-period fitter
# (FitCoxian2), and a package-documentation check. Every PR must leave this
# green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> package-comment gate (go doc must be useful for every internal package)"
missing=0
for d in internal/*/; do
  pkg=$(basename "$d")
  if ! grep -q "^// Package $pkg" "$d"*.go; then
    echo "FAIL: package $pkg lacks a '// Package $pkg ...' doc comment" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  exit 1
fi

echo "==> unified-engine gate (internal/mcsim must stay deleted)"
if [ -d internal/mcsim ]; then
  echo "FAIL: internal/mcsim reappeared; the unified N-class engine in internal/sim replaced it" >&2
  exit 1
fi
if grep -rn --include='*.go' '"repro/internal/mcsim"' . ; then
  echo "FAIL: an import of repro/internal/mcsim reappeared (use internal/sim's N-class engine)" >&2
  exit 1
fi

echo "==> one-model gate (internal/core is three forwards for benchmark/ only; the model is queueing.Model, the registry policy.ByName; no second copy of a policy)"
if grep -rln --include='*.go' '"repro/internal/core"' . | grep -v '^\./benchmark/\|^\./internal/core/'; then
  echo "FAIL: a package outside benchmark/ imports repro/internal/core (use queueing.Model, policy.ByName and exp's drivers)" >&2
  exit 1
fi
if grep -rnwE --include='*.go' 'Model2D|mrt\.Params|IFAlloc|EFAlloc|ThresholdAlloc|DeferAlloc|core\.NewSystem|PolicyByName|ValidatePolicyClasses' . | grep -v '^\./benchmark/\|^\./internal/core/'; then
  echo "FAIL: a second model type, count-rule copy of a policy or core registry name reappeared (use queueing.Model and policy.CountRule)" >&2
  exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> golden gate (engine goldens bit-frozen; frozen rebuild-engine traces matched: identical completion sequences, stats to 1e-9; every arrival stream frozen; the R solve bit-identical to the textbook logarithmic-reduction loop on the figures' chains and within 1e-10 of the functional iteration, residual <= 1e-12; the mean-drift stability check passes every figure chain and agrees with a 2000-step power iteration on sp(R); the blocked multiply bit-identical to per-entry dot products and InverseInto to Inverse; the LU kernels under Solve, SolveInto and InverseInto bit-identical to a textbook At/Set loop)"
go test ./internal/sim -run 'TestGolden' -count=1
go test ./internal/exp -run 'TestGoldenFigure' -count=1
go test ./internal/workload -run TestGoldenArrivals -count=1
go test ./internal/mrt -run 'TestSolveRMatchesTextbookLogReduction|TestRMethodsAgree|TestDriftAgreesWithSpectralRadius' -count=1
go test ./internal/linalg -run 'TestMulIntoMatchesDotProducts|TestInverseIntoMatchesInverse|TestLUMatchesTextbook' -count=1

echo "==> exact-chain gate (banded GTH bit-identical to the dense loop; shorter-axis numbering only relabels; non-finite and band-storage guards; Appendix B; QBD vs CTMC; near-critical and multi-class QBDs refused before the R solve; Theorem 6; the count-rule adapter runs the simulator's own policies: bit-identical to the deleted count rules, every registry name count-Markov or refused, zero allocations per state, every accepted policy solved)"
go test ./internal/ctmc -run 'TestStationaryMatchesDenseGTH|TestPolicyChainNumbering|TestStationaryNonFiniteIsError|TestAutoSolveNamesLastSolvedCaps|TestDeferDominatedByIF|TestTheorem6Counterexample|TestCountRuleSolvesRegistry' -count=1
go test ./internal/policy -run 'TestCountRuleMatchesReferenceRules|TestRegistryCountMarkov|TestCountRuleRefuses|TestCountRuleAllocs' -count=1
go test ./internal/qbd -run 'TestQBDMatchesCTMCOnRandomChains' -count=1
go test ./internal/qbd -run 'TestNearCriticalUnstableRefused|TestPhaseGeneratorClosedClasses|TestUnstableDetected' -count=1

echo "==> sparse-vs-dense equivalence gate (fast paths vs the oracle, the engine's settle-all ForceDense path running the same Allocate: identical completion sequences, stats to 1e-9; each policy's one Allocate)"
go test ./internal/sim -run 'TestEngineEquivalenceMatrix|TestEngineEquivalenceQuick' -count=1
go test ./internal/exp -run 'TestEngineSweepEquivalence|TestTailQuantiles' -count=1
go test ./internal/policy -count=1

echo "==> allocation-regression gate (steady-state stepping <= 1 alloc/event; arena path bounded at n in {100, 10k}; the R solve allocates per solve, not per doubling; 0 allocations per analysis call once warm)"
go test ./internal/sim ./internal/mrt -run 'TestSteadyStateAllocs|TestSteadyStateBytes|TestAnalysisAllocs' -count=1

echo "==> arena recycle gate (recycled job slots never alias a live handle in any hot structure)"
go test ./internal/sim -run 'TestArena' -count=1

echo "==> exp worker-pool race stress (workers take indices from an atomic counter: every index runs exactly once; pooled analysis workspaces: concurrent Analyze bit-identical to serial)"
go test -race -run 'TestWorkerPoolStressRace' -count=2 ./internal/exp
go test -race -run 'TestMapRunsEachIndexOnce' -count=20 ./internal/exp
go test -race -run 'TestAnalyzeConcurrentMatchesSerial' -count=10 ./internal/mrt

echo "==> dispatch-backend gate (seed/key contract and drift tripwire; pool reference run for the byte-identity diffs below)"
go test ./internal/exp -run 'TestKeyAndRepSeedPinned|TestSeedDriftRefused|TestTaskErrorIdentity|TestDegenerateCellBackendParity' -count=1
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/simulate" ./cmd/simulate
sweep_flags="-k 2 -rho 0.5,0.7 -muI 1,2 -muE 1 -policy IF,EF -reps 2 -warmup 200 -jobs 2000 -tail"
"$tmp/simulate" $sweep_flags -json "$tmp/pool.json" >/dev/null
echo "    pool reference ResultSet recorded ($(wc -c < "$tmp/pool.json") bytes)"

echo "==> production-oracle gate (SIM_FORCE_DENSE reaches test binaries only: simulate answers with the same bytes with or without it)"
dense_flags="-k 4,16 -rho 0.9 -muI 2,0.5 -muE 1 -policy IF,EF,EQUI,SRPT,LFF -reps 1 -jobs 20000"
"$tmp/simulate" $dense_flags -json "$tmp/fast.json" >/dev/null
SIM_FORCE_DENSE=1 "$tmp/simulate" $dense_flags -json "$tmp/dense_env.json" >/dev/null
if ! cmp "$tmp/fast.json" "$tmp/dense_env.json"; then
  echo "FAIL: simulate under SIM_FORCE_DENSE=1 answered with other bytes; the oracle switch must not reach a production binary" >&2
  exit 1
fi
echo "    simulate ignored SIM_FORCE_DENSE ($(wc -c < "$tmp/fast.json") bytes, identical)"

echo "==> printed-figures gate (figures -fig 4, 5, 6 and ablation print exactly the bytes in cmd/figures/testdata, which the functional-iteration solver wrote)"
go build -o "$tmp/figures" ./cmd/figures
for fig in 4 5 6 ablation; do
  "$tmp/figures" -fig "$fig" >"$tmp/fig$fig.txt"
  if ! cmp "cmd/figures/testdata/fig$fig.txt" "$tmp/fig$fig.txt"; then
    echo "FAIL: figures -fig $fig printed bytes that differ from cmd/figures/testdata/fig$fig.txt" >&2
    exit 1
  fi
done
echo "    figures -fig 4, 5, 6 and ablation byte-identical to the checked-in output"

echo "==> networked fabric gate (every task kind pool-identical in-process; fabricd dispatcher with an outcome cache + 2 worker daemons on loopback; a detached simulate job warms the cache; psq only observes and cancels)"
go test ./internal/fabric -run 'TestFabricBitIdenticalToPool|TestFabricTaskKindsMatchPool' -count=1
go build -o "$tmp/fabricd" ./cmd/fabricd
go build -o "$tmp/psq" ./cmd/psq
"$tmp/fabricd" -role dispatcher -listen 127.0.0.1:0 -addr-file "$tmp/fabric.addr" \
  -cache "$tmp/outcomes.jsonl" >"$tmp/fabricd.log" 2>&1 &
disp_pid=$!
for _ in $(seq 1 100); do [ -s "$tmp/fabric.addr" ] && break; sleep 0.1; done
if [ ! -s "$tmp/fabric.addr" ]; then
  echo "FAIL: fabricd dispatcher did not publish its address" >&2
  cat "$tmp/fabricd.log" >&2
  exit 1
fi
addr="$(cat "$tmp/fabric.addr")"
"$tmp/fabricd" -role worker -dispatcher "$addr" -slots 2 >"$tmp/worker1.log" 2>&1 &
w1_pid=$!
"$tmp/fabricd" -role worker -dispatcher "$addr" -slots 2 >"$tmp/worker2.log" 2>&1 &
w2_pid=$!
trap 'kill -9 "$disp_pid" "$w1_pid" "$w2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
# The same sweep through the fabric must be byte-identical to the pool run
# recorded by the dispatch-backend gate above.
"$tmp/simulate" $sweep_flags -dispatcher "$addr" -json "$tmp/fabric.json" >/dev/null
if ! cmp "$tmp/pool.json" "$tmp/fabric.json"; then
  echo "FAIL: ResultSets differ between the pool and the fabric" >&2
  exit 1
fi
echo "    pool and fabric ResultSets byte-identical ($(wc -c < "$tmp/fabric.json") bytes)"
# The same sweep again is answered from the dispatcher's -cache file, still
# byte-identical to the pool.
"$tmp/simulate" $sweep_flags -dispatcher "$addr" -json "$tmp/fabric_cached.json" >/dev/null
if ! cmp "$tmp/pool.json" "$tmp/fabric_cached.json"; then
  echo "FAIL: the sweep answered from the dispatcher's outcome cache differs from the pool" >&2
  exit 1
fi
"$tmp/psq" -dispatcher "$addr" stats | tee "$tmp/psq_cache.out"
cache_hits="$(awk '$1 == "cache" && $2 == "hits" {print $3}' "$tmp/psq_cache.out")"
if [ "${cache_hits:-0}" -le 0 ]; then
  echo "FAIL: re-running a sweep against fabricd -cache took no cache hits" >&2
  exit 1
fi
echo "    re-run served from the dispatcher's outcome cache ($cache_hits hits), byte-identical"
# A detached submission warms the same cache: simulate -detach prints the
# job id and exits; once psq list shows that job done, the same flags run
# attached are answered from the cache (one hit per task) and are still
# byte-identical to the pool.
"$tmp/simulate" $sweep_flags -seed 2 -json "$tmp/pool_seed2.json" >/dev/null
"$tmp/simulate" $sweep_flags -seed 2 -dispatcher "$addr" -detach | tee "$tmp/detach.out"
job="$(awk '$1 == "submitted" {print $2}' "$tmp/detach.out")"
[ -n "$job" ] || { echo "FAIL: simulate -detach printed no job id" >&2; exit 1; }
job_done() { awk -v j="$job" '$1 == j && $3 == "done" {ok = 1} END {exit !ok}' "$tmp/detach_psq.out"; }
for _ in $(seq 1 300); do
  "$tmp/psq" -dispatcher "$addr" list >"$tmp/detach_psq.out"
  job_done && break
  sleep 0.1
done
if ! job_done; then
  echo "FAIL: detached job $job was not done within 30 s" >&2
  cat "$tmp/detach_psq.out" >&2
  exit 1
fi
hits_before="$("$tmp/psq" -dispatcher "$addr" stats | awk '$1 == "cache" && $2 == "hits" {print $3}')"
"$tmp/simulate" $sweep_flags -seed 2 -dispatcher "$addr" -json "$tmp/fabric_seed2.json" >/dev/null
hits_after="$("$tmp/psq" -dispatcher "$addr" stats | awk '$1 == "cache" && $2 == "hits" {print $3}')"
if ! cmp "$tmp/pool_seed2.json" "$tmp/fabric_seed2.json"; then
  echo "FAIL: the sweep answered from a detached job's outcomes differs from the pool" >&2
  exit 1
fi
if [ "$((hits_after - hits_before))" -ne 16 ]; then
  echo "FAIL: the attached re-run of detached job $job took $((hits_after - hits_before)) cache hits, want the sweep's 16 tasks" >&2
  exit 1
fi
echo "    detached job $job warmed the cache: its attached re-run took 16 of 16 hits, byte-identical"
# Fault injection, the honest way: SIGKILL one worker daemon while a longer
# sweep is in flight. The dispatcher re-queues whatever it held; the sweep
# must complete on the survivor, still byte-identical to the pool. The sweep
# must outlast the 0.3 s kill delays here and in the dispatcher-crash gate
# (about 1.5 s on the pool on 2 cores).
kill_flags="-k 2 -rho 0.7 -muI 1,2 -muE 1 -policy IF,EF -reps 2 -warmup 200 -jobs 600000"
"$tmp/simulate" $kill_flags -json "$tmp/pool_kill.json" >/dev/null
( sleep 0.3; kill -9 "$w1_pid" 2>/dev/null || true ) &
"$tmp/simulate" $kill_flags -dispatcher "$addr" -json "$tmp/fabric_kill.json" >/dev/null
wait %% 2>/dev/null || true
if ! cmp "$tmp/pool_kill.json" "$tmp/fabric_kill.json"; then
  echo "FAIL: sweep through a SIGKILLed worker differs from the pool" >&2
  cat "$tmp/fabricd.log" >&2
  exit 1
fi
echo "    sweep survived SIGKILL of a worker daemon, byte-identical ($(wc -c < "$tmp/fabric_kill.json") bytes)"
# psq smoke: the finished jobs are visible, canceling a bogus id fails,
# psq has no submit command, simulate refuses -detach without -dispatcher
# or with an output file nothing would fill, and the drivers refuse a
# negative -workers and a -workers beside -dispatcher.
"$tmp/psq" -dispatcher "$addr" list | tee "$tmp/psq.out"
grep -q "done" "$tmp/psq.out" || { echo "FAIL: psq list shows no finished jobs" >&2; exit 1; }
if "$tmp/psq" -dispatcher "$addr" cancel no-such-job >/dev/null 2>&1; then
  echo "FAIL: psq cancel of an unknown job succeeded" >&2
  exit 1
fi
if "$tmp/psq" -dispatcher "$addr" submit >/dev/null 2>&1; then
  echo "FAIL: psq accepted submit (simulate -dispatcher submits sweeps)" >&2
  exit 1
fi
if "$tmp/simulate" $sweep_flags -detach >/dev/null 2>&1; then
  echo "FAIL: simulate accepted -detach without -dispatcher" >&2
  exit 1
fi
if "$tmp/simulate" $sweep_flags -dispatcher "$addr" -detach -json "$tmp/detach.json" >/dev/null 2>&1; then
  echo "FAIL: simulate accepted -detach with -json" >&2
  exit 1
fi
go build -o "$tmp/dominance" ./cmd/dominance
if "$tmp/simulate" $sweep_flags -workers -1 >/dev/null 2>&1; then
  echo "FAIL: simulate accepted -workers -1" >&2
  exit 1
fi
if "$tmp/simulate" $sweep_flags -dispatcher "$addr" -workers 2 >/dev/null 2>&1; then
  echo "FAIL: simulate accepted -workers with -dispatcher" >&2
  exit 1
fi
if "$tmp/figures" -fig 6 -workers -1 >/dev/null 2>&1; then
  echo "FAIL: figures accepted -workers -1" >&2
  exit 1
fi
if "$tmp/dominance" -workers -1 >/dev/null 2>&1; then
  echo "FAIL: dominance accepted -workers -1" >&2
  exit 1
fi
kill "$disp_pid" "$w2_pid" 2>/dev/null || true

echo "==> journal-replay unit gate (torn tails, failed appends, crash points, replay = live transitions, retry budget, drain, deadlines, in-process failover, dispatcher outcome cache, client redial rules)"
go test ./internal/applog -count=1
go test ./internal/exp -run 'TestFileCache' -count=1
go test ./internal/fabric -run 'TestJournal|TestDispatcherCacheWrongKindIsMiss|TestDispatcherCacheAcrossRestart|TestFileOutcomeCacheFailedPutKeepsNextRecord|TestRestoreRecords|TestDispatcherJournal|TestDispatcherLiveRetryBudget|TestDispatcherDrain|TestFabricDispatcherCrashFailover|TestFabricWorkerDrain|TestFabricTaskDeadline|TestSubmitRefusalIsFinal|TestZeroRedialBudgetWaits' -count=1

echo "==> fabric worker-loss gate (a worker killed holding a task is re-queued onto the survivors, byte-identical; 300 runs at -cpu 4)"
go test ./internal/fabric -run 'TestFabricWorkerKilledMidTask$' -count=300 -cpu 4

echo "==> dispatcher-crash gate (SIGKILL the real dispatcher mid-sweep; a restart on the same journal and address resumes; byte-identical)"
"$tmp/fabricd" -role dispatcher -listen 127.0.0.1:0 -addr-file "$tmp/crash.addr" \
  -journal "$tmp/jobs.jsonl" >"$tmp/crash_disp1.log" 2>&1 &
cdisp_pid=$!
for _ in $(seq 1 100); do [ -s "$tmp/crash.addr" ] && break; sleep 0.1; done
if [ ! -s "$tmp/crash.addr" ]; then
  echo "FAIL: crash-gate fabricd dispatcher did not publish its address" >&2
  cat "$tmp/crash_disp1.log" >&2
  exit 1
fi
caddr="$(cat "$tmp/crash.addr")"
"$tmp/fabricd" -role worker -dispatcher "$caddr" -slots 2 >"$tmp/crash_worker1.log" 2>&1 &
cw1_pid=$!
"$tmp/fabricd" -role worker -dispatcher "$caddr" -slots 2 >"$tmp/crash_worker2.log" 2>&1 &
cw2_pid=$!
# The chaos script: SIGKILL the dispatcher mid-sweep — no drain, no
# goodbye, a torn journal tail is fair game — then restart it on the SAME
# journal and the SAME address. Workers redial it; the client's fabric
# backend redials and re-attaches by its idempotency ref.
( sleep 0.3
  kill -9 "$cdisp_pid" 2>/dev/null || true
  sleep 0.5
  exec "$tmp/fabricd" -role dispatcher -listen "$caddr" -journal "$tmp/jobs.jsonl" \
    >"$tmp/crash_disp2.log" 2>&1
) &
cdisp2_pid=$!
trap 'kill -9 "$disp_pid" "$w1_pid" "$w2_pid" "$cdisp_pid" "$cdisp2_pid" "$cw1_pid" "$cw2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
"$tmp/simulate" $kill_flags -dispatcher "$caddr" -json "$tmp/crash.json" >/dev/null
if ! cmp "$tmp/pool_kill.json" "$tmp/crash.json"; then
  echo "FAIL: sweep through a SIGKILLed-and-restarted dispatcher differs from the pool" >&2
  cat "$tmp/crash_disp1.log" "$tmp/crash_disp2.log" >&2
  exit 1
fi
echo "    sweep survived SIGKILL of the dispatcher, byte-identical ($(wc -c < "$tmp/crash.json") bytes)"
if wait "$cdisp_pid" 2>/dev/null; then
  echo "FAIL: the first dispatcher exited cleanly (the crash never happened)" >&2
  exit 1
fi
grep -q "replayed" "$tmp/crash_disp2.log" || {
  echo "FAIL: the restarted dispatcher never replayed the journal" >&2
  cat "$tmp/crash_disp2.log" >&2
  exit 1
}
[ -s "$tmp/jobs.jsonl" ] || { echo "FAIL: the job journal is empty" >&2; exit 1; }
"$tmp/psq" -dispatcher "$caddr" list | tee "$tmp/crash_psq.out"
grep -q "done" "$tmp/crash_psq.out" || { echo "FAIL: the resumed job is not done on the restarted dispatcher" >&2; exit 1; }
kill "$cdisp2_pid" "$cw1_pid" "$cw2_pid" 2>/dev/null || true

echo "==> serving gate (resultd on a fabric backend: coalescing, byte-identity vs simulate -json, SSE)"
go build -o "$tmp/resultd" ./cmd/resultd
# Fresh fabric daemons for the serving layer (the fabric gate above tore
# its own down), plus resultd fronting them.
"$tmp/fabricd" -role dispatcher -listen 127.0.0.1:0 -addr-file "$tmp/serve_fabric.addr" \
  >"$tmp/serve_fabricd.log" 2>&1 &
sdisp_pid=$!
for _ in $(seq 1 100); do [ -s "$tmp/serve_fabric.addr" ] && break; sleep 0.1; done
if [ ! -s "$tmp/serve_fabric.addr" ]; then
  echo "FAIL: serving-gate fabricd dispatcher did not publish its address" >&2
  cat "$tmp/serve_fabricd.log" >&2
  exit 1
fi
saddr="$(cat "$tmp/serve_fabric.addr")"
"$tmp/fabricd" -role worker -dispatcher "$saddr" -slots 2 >"$tmp/serve_worker.log" 2>&1 &
sworker_pid=$!
# -backend-redial 1s: the degradation check below kills the fabric and
# wants resultd to 503 misses quickly instead of redialing for the default.
"$tmp/resultd" -listen 127.0.0.1:0 -addr-file "$tmp/resultd.addr" \
  -dispatcher "$saddr" -backend-redial 1s >"$tmp/resultd.log" 2>&1 &
resultd_pid=$!
trap 'kill -9 "$disp_pid" "$w1_pid" "$w2_pid" "$sdisp_pid" "$sworker_pid" "$resultd_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do [ -s "$tmp/resultd.addr" ] && break; sleep 0.1; done
if [ ! -s "$tmp/resultd.addr" ]; then
  echo "FAIL: resultd did not publish its address" >&2
  cat "$tmp/resultd.log" >&2
  exit 1
fi
raddr="$(cat "$tmp/resultd.addr")"
# The spec below is exactly the sweep $sweep_flags makes cmd/simulate build
# (name "simulate" and baseSeed 1 are what the flag defaults produce), so
# the served bytes must equal the pool.json recorded by the
# dispatch-backend gate — the "same bytes as simulate -json" contract.
cat > "$tmp/spec.json" <<'EOF'
{
  "name": "simulate",
  "grid": {"k": [2], "rho": [0.5, 0.7], "muI": [1, 2], "muE": [1], "policies": ["IF", "EF"]},
  "reps": 2, "baseSeed": 1, "warmup": 200, "jobs": 2000, "tail": true
}
EOF
# 8 concurrent identical POSTs: the coalescer must fold them into ONE
# backend computation (later arrivals may be plain cache hits — either way
# the computation count stays 1) and hand every client identical bytes.
curl_pids=()
for i in $(seq 1 8); do
  curl -s -X POST --data-binary @"$tmp/spec.json" "http://$raddr/v1/sweep" \
    -o "$tmp/resp$i.json" &
  curl_pids+=($!)
done
for pid in "${curl_pids[@]}"; do
  wait "$pid" || { echo "FAIL: a POST to resultd failed" >&2; cat "$tmp/resultd.log" >&2; exit 1; }
done
for i in $(seq 1 8); do
  if ! cmp "$tmp/pool.json" "$tmp/resp$i.json"; then
    echo "FAIL: served response $i differs from simulate -json" >&2
    exit 1
  fi
done
echo "    8 concurrent clients served byte-identically to simulate -json ($(wc -c < "$tmp/resp1.json") bytes)"
curl -s "http://$raddr/v1/stats" | tee "$tmp/stats.json"
grep -q '"computations": 1' "$tmp/stats.json" || {
  echo "FAIL: 8 identical requests took != 1 computation (coalescing broken)" >&2
  exit 1
}
echo "    coalescer folded 8 identical requests into 1 computation"
# SSE smoke on a fresh spec (seed 2 misses every cache): partial aggregates
# stream as progress events, then the full result arrives as one result
# event. Re-streaming the now-cached spec must replay just the result.
sed 's/"baseSeed": 1/"baseSeed": 2/' "$tmp/spec.json" > "$tmp/spec2.json"
curl -sN -X POST --data-binary @"$tmp/spec2.json" "http://$raddr/v1/sweep/stream" > "$tmp/sse.out"
grep -q '^event: progress' "$tmp/sse.out" || { echo "FAIL: SSE stream carried no progress events" >&2; exit 1; }
grep -q '^event: result' "$tmp/sse.out" || { echo "FAIL: SSE stream carried no result event" >&2; exit 1; }
curl -sN -X POST --data-binary @"$tmp/spec2.json" "http://$raddr/v1/sweep/stream" > "$tmp/sse2.out"
if grep -q '^event: progress' "$tmp/sse2.out"; then
  echo "FAIL: re-streaming a cached spec recomputed instead of replaying the result" >&2
  exit 1
fi
grep -q '^event: result' "$tmp/sse2.out" || { echo "FAIL: cached SSE re-stream carried no result event" >&2; exit 1; }
echo "    SSE streamed $(grep -c '^event: progress' "$tmp/sse.out") progress events + result; cached re-stream replayed the result"
# psq stats smoke against the live dispatcher: the serving sweeps' jobs and
# the outcome-cache hits from the coalesced burst must be visible.
"$tmp/psq" -dispatcher "$saddr" stats | tee "$tmp/psq_stats.out"
grep -q "workers" "$tmp/psq_stats.out" || { echo "FAIL: psq stats shows no workers line" >&2; exit 1; }
# Degradation: SIGKILL the fabric daemons under the still-running resultd.
# Cache hits must keep serving; a fresh spec must come back 503 with a
# Retry-After hint instead of hanging; /v1/stats must surface the outage.
kill -9 "$sdisp_pid" "$sworker_pid" 2>/dev/null || true
curl -s -X POST --data-binary @"$tmp/spec.json" "http://$raddr/v1/sweep" -o "$tmp/degrade_hit.json"
if ! cmp "$tmp/pool.json" "$tmp/degrade_hit.json"; then
  echo "FAIL: cache hit during a fabric outage is not byte-identical" >&2
  exit 1
fi
sed 's/"baseSeed": 1/"baseSeed": 3/' "$tmp/spec.json" > "$tmp/spec3.json"
code="$(curl -s -X POST --data-binary @"$tmp/spec3.json" "http://$raddr/v1/sweep" \
  -D "$tmp/degrade_hdr.txt" -o /dev/null -w '%{http_code}')"
if [ "$code" != "503" ]; then
  echo "FAIL: miss during a fabric outage returned $code, want 503" >&2
  cat "$tmp/resultd.log" >&2
  exit 1
fi
grep -qi '^retry-after: [0-9]' "$tmp/degrade_hdr.txt" || {
  echo "FAIL: degraded 503 carries no Retry-After hint" >&2
  cat "$tmp/degrade_hdr.txt" >&2
  exit 1
}
curl -s "http://$raddr/v1/stats" | tee "$tmp/degrade_stats.json"
grep -q '"backendDown": true' "$tmp/degrade_stats.json" || {
  echo "FAIL: /v1/stats does not report backendDown during the outage" >&2
  exit 1
}
echo "    resultd degraded gracefully: cache hit served, miss 503 + Retry-After, outage visible in stats"
kill "$resultd_pid" 2>/dev/null || true

echo "==> serving coalescer race stress"
go test -race -run 'TestCoalesceStressRace|TestCoalesceManyWaitersOneSubmit' -count=2 ./internal/serve

echo "==> serving degradation gate (backend outage: cache hits serve, misses 503 with derived Retry-After)"
go test -race -run 'TestBackendDownDegradation|TestBackendRecoveryProbe' -count=1 ./internal/serve

echo "==> resultd admission gate (connection cap, header/idle timeouts, grid and work caps refused before expansion, half-sent bodies cut)"
go test ./cmd/resultd -count=1
go test ./internal/serve -run 'TestOversizedGridRefusedBeforeExpansion|TestOverBudgetSpecRefused|TestHalfSentBodyIsCut' -count=1

# Every fuzz gate runs with -fuzzminimizetime=0: under the default 60 s
# budget the coordinator stops running new inputs once it starts
# minimizing new corpus entries, a few seconds into the 10 s. A failing
# input is still written, unminimized, to the package's testdata/fuzz, and
# still fails the step.
echo "==> wire-codec fuzz gate (frame codec must reject hostile input without panicking)"
go test -fuzz=FuzzFrameCodec -fuzztime=10s -fuzzminimizetime=0 ./internal/wire

echo "==> journal fuzz gate (arbitrary journal truncation/corruption must replay to a consistent registry)"
go test -fuzz=FuzzJournalReplay -fuzztime=10s -fuzzminimizetime=0 ./internal/fabric

echo "==> append-log fuzz gate (arbitrary bytes: every non-blank line kept or counted; an append after them is the last record)"
go test -fuzz=FuzzScan -fuzztime=10s -fuzzminimizetime=0 ./internal/applog

echo "==> go test -fuzz=FuzzFit -fuzztime=10s -fuzzminimizetime=0 ./internal/dist"
echo "    FitCoxian2 on feasible triples (a Coxian2's own moments) and arbitrary ones: any fit it returns has finite parameters and reproduces the moments"
go test -fuzz=FuzzFit -fuzztime=10s -fuzzminimizetime=0 ./internal/dist

echo "==> sparse-vs-dense fuzz gate (EQUI class shares, SRPT indexed heap, arena handle recycling)"
go test -fuzz=FuzzSparseShareSet -fuzztime=10s -fuzzminimizetime=0 ./internal/sim

echo "==> event-list fuzz gate (IndexedQueue Set/Remove/Peek/Pop against a sorted reference model)"
go test -fuzz=FuzzTotalOrder -fuzztime=10s -fuzzminimizetime=0 ./internal/eventq

echo "==> profiling-harness smoke (scripts/bench.sh profile must drop loadable, non-empty profiles)"
scripts/bench.sh profile 0.05s >/dev/null
for p in BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof; do
  [ -s "$p" ] || { echo "FAIL: bench.sh profile did not write $p" >&2; exit 1; }
done
rm -f BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof BENCH_bench.test
echo "    bench.sh profile wrote cpu/mem/mutex profiles"

echo "==> benchmark perf gate (ns/op vs BENCH_engine.json; BENCH_GATE=0 skips)"
if [ "${BENCH_GATE:-1}" != "0" ]; then
  # Best-of-N per benchmark (benchlog keeps the fastest sample; BENCH_COUNT,
  # default 3 — raise it on a noisy box, same knob scripts/bench.sh honors)
  # against the newest recorded entry; >10% slowdown in ns/op on any
  # pinned benchmark fails, with the observed spread printed for
  # diagnosis (events/sec and requests/sec restate ns/op, and are only
  # recorded).
  # -timeout 0: the run is already bounded by benchtime x count, and a
  # raised BENCH_COUNT on a noisy box must not trip go test's default 10m.
  go test ./internal/sim -run '^$' -bench 'BenchmarkEngineEvent' -timeout 0 \
    -benchmem -benchtime 1s -count "${BENCH_COUNT:-3}" | tee "$tmp/bench.txt"
  # The serving path participates in the same gate: ns/op on the
  # loopback BenchmarkServe* family must stay within threshold too.
  go test ./internal/serve -run '^$' -bench 'BenchmarkServe' -timeout 0 \
    -benchtime 1s -count "${BENCH_COUNT:-3}" | tee -a "$tmp/bench.txt"
  go run ./cmd/benchlog -check -file BENCH_engine.json < "$tmp/bench.txt"
else
  echo "    skipped (BENCH_GATE=0)"
fi

echo "CI green."
