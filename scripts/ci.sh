#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 verification the
# roadmap requires (release build + full test suite). Run from the
# workspace root before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== one way to run a Winograd convolution"
# The entry ladder is conv_winograd (cold) -> conv_winograd_precomputed
# (global runtime) -> conv_winograd_precomputed_rt (explicit runtime);
# a fourth name is a twin growing back.
ladder=$(grep -c 'fn conv_winograd' crates/conv/src/winograd.rs)
if [ "$ladder" -ne 3 ]; then
  echo "FAIL: expected 3 conv_winograd* functions in winograd.rs, found $ladder" >&2
  exit 1
fi

echo "== cargo clippy (workspace, warnings are errors, SAFETY comments required)"
# `undocumented_unsafe_blocks` is allow-by-default; deny it so every
# unsafe block/impl must carry a `// SAFETY:` rationale. wino-verify's
# own scanner backstops this (shims, build scripts, `unsafe fn`).
cargo clippy --workspace --all-targets --offline -- -D warnings \
  -D clippy::undocumented_unsafe_blocks

echo "== tier-1: release build"
cargo build --release --offline
# The later stages drive binaries from member crates (wino-verify,
# guard_drill, wino-serve-load, wino-bench-smoke); the root package
# build above does not produce those, so build the workspace too.
cargo build --release --offline --workspace

echo "== tier-1: test suite"
cargo test -q --offline

echo "== wino-verify: static verification (recipes, kernels, indexing, unsafe invariants)"
verify_out=$(./target/release/wino-verify)
echo "$verify_out" | tail -n 4
# The binary already exits nonzero on any failure (set -e catches it);
# these asserts additionally pin that each analysis actually ran and
# covered a nonempty surface — a stage that silently analyzed nothing
# would otherwise "pass".
assert_verify_line() {
  if ! grep -qE "$1" <<<"$verify_out"; then
    echo "FAIL: wino-verify output missing: $2" >&2
    grep -E "^(recipe|template|unsafe|compiled|index|safety|wino-verify)" <<<"$verify_out" >&2
    exit 1
  fi
}
# All twelve shipped compiled kernels (4 specs x filter/input/output)
# plus the fifteen-kernel fresh-emitter sweep (5 specs x 3), proven —
# not just fingerprinted.
assert_verify_line '^compiled kernels: 27/27 proven' "27/27 compiled-kernel proofs"
# Shape x config x SIMD-level grid (AVX2 tile 6x16) — A and B each
# packed on the fly and ahead of time, the latter as full-depth
# `k·mr` / `k·nr`-strided windows whose blocks start on sliver
# boundaries — plus pack-model cross-checks, all clean.
assert_verify_line '^index analysis: ([1-9][0-9]*)/([1-9][0-9]*) schedule points proven' \
  "a nonempty index-analysis sweep"
if ! grep -E '^index analysis: ' <<<"$verify_out" | grep -qE ' ([0-9]+)/\1 '; then
  echo "FAIL: index analysis had failing schedule points:" >&2
  grep -E '^(index analysis|FAIL)' <<<"$verify_out" >&2
  exit 1
fi
# Every workspace unsafe site annotated; AVX2 pointer audit clean for
# both micro-kernel bodies (one and two B loads per k-step, NR = 16).
assert_verify_line '^safety lint: [1-9][0-9]* unsafe site\(s\) across [1-9][0-9]* files, 0 unannotated; avx2 pointer audit: 0 issue\(s\)' \
  "a clean safety lint over a nonempty unsafe-site set"
# The compiled-kernel table (wino-conv's build script) generates its
# recipes from exactly these specs with the optimized pipeline; assert
# the sweep proved each one, so only proven recipes are ever compiled.
for spec in "F(2,3)" "F(4,3)" "F(6,3)" "F(4,5)"; do
  for stage in filter input output; do
    if ! grep -q "$spec/$stage/optimized" <<<"$verify_out"; then
      echo "FAIL: wino-verify sweep did not cover $spec/$stage/optimized" >&2
      exit 1
    fi
  done
done
echo "   ok: compiled-kernel recipe inputs covered by the proof sweep"

echo "== probe smoke: figure6 with WINO_TRACE=summary"
# (plain grep, not -q: an early pipe close would SIGPIPE the binary)
WINO_TRACE=summary ./target/release/figure6 | grep "wino-probe phase summary" >/dev/null

echo "== probe smoke: figure6 with WINO_TRACE=json, trace must parse"
trace=results/ci-figure6.trace.json
WINO_TRACE="json:$trace" ./target/release/figure6 >/dev/null
python3 -m json.tool "$trace" >/dev/null
rm -f "$trace"

echo "== wino-guard: fault-injection drill matrix"
# Each drill run arms one WINO_FAULT site and asserts the exact probe
# counters the guard layer must produce. Injection is check-counted
# (never timed), so these values are deterministic.
drill() {
  local fault="$1"; shift
  local out
  out=$(WINO_FAULT="$fault" WINO_SIMD="${drill_simd:-auto}" ./target/release/guard_drill)
  for expect in "$@"; do
    if ! grep -qx "counter $expect" <<<"$out"; then
      echo "FAIL: WINO_FAULT='$fault' WINO_SIMD='${drill_simd:-auto}' expected 'counter $expect', got:" >&2
      grep "^counter " <<<"$out" >&2
      exit 1
    fi
  done
  echo "   ok: WINO_FAULT='${fault:-<unset>}' WINO_SIMD='${drill_simd:-auto}' -> $*"
}
drill "" \
  guard.demote.panic=0 guard.demote.guardrail=0 guard.served_by_fallback=0 \
  tuner.quarantine.panic=0 tuner.quarantine.timeout=0 \
  tuner.quarantine.nonfinite=0 tuner.cache.rebuilt=0 flight.dumps=0
drill "transform:nan"   guard.demote.guardrail=3 guard.served_by_fallback=2
drill "transform:panic" guard.demote.panic=3     guard.served_by_fallback=2
drill "gemm:nan"        guard.demote.guardrail=2 guard.served_by_fallback=1
drill "tuner:panic:3"   tuner.quarantine.panic=1
drill "tuner:timeout:2" tuner.quarantine.timeout=1
drill "tuner:nan:4"     tuner.quarantine.nonfinite=1
drill "cache:corrupt"   tuner.cache.rebuilt=1

echo "== wino-guard: drill spot-checks with the SIMD path pinned on"
# Same drill, dispatch level pinned to the compiled AVX2 kernels (on
# hosts without avx2+fma this diags and falls back to scalar, which
# still must pass). The clean run proves the f64 guardrail spot-checks
# accept the SIMD outputs at the documented tolerance (zero demotions);
# the fault runs prove injection and demotion still work on that path.
drill_simd=avx2
drill "" \
  guard.demote.panic=0 guard.demote.guardrail=0 guard.served_by_fallback=0
drill "transform:nan"   guard.demote.guardrail=3 guard.served_by_fallback=2
drill "gemm:nan"        guard.demote.guardrail=2 guard.served_by_fallback=1
unset drill_simd

echo "== wino-serve: load smokes (admission/batch accounting, arena accounting, fault fallback)"
# Two drills through the one serve path, one checker. Both register
# before the fault arms (cached warm filters are never poisoned), both
# must drain serve.queue_depth to 0, and both must keep
# exec.allocs_steady at 0: the arenas reserved at Server::start cover
# every steady request, whatever kind it is.
#
# --smoke serves 8 sequential layer requests with coalescing off, so
# every serve.* counter is exact: nothing sheds at low load, each
# request is its own batch, and the filter transform runs once at
# registration.
#
# --net-smoke registers two zoo networks for whole-graph execution,
# warms each, then serves 8 steady-state requests submitted
# concurrently. The schedule-controlled counters are exact (10 requests
# enqueued and executed, nothing shed); the binary itself asserts the
# host-dependent ones (filter transforms once per Winograd conv,
# planner peak under the naive activation layout) and prints `ok`
# lines matched verbatim here.
serve_smoke() {
  local mode="$1" fault="$2"; shift 2
  smoke_out=$(WINO_FAULT="$fault" ./target/release/wino-serve-load "$mode")
  for expect in "$@"; do
    # Bare expects are counters; "gauge ..." and "net-smoke: ..."
    # expects match verbatim.
    local want="counter $expect"
    case "$expect" in gauge\ *|net-smoke:*) want="$expect";; esac
    if ! grep -qx "$want" <<<"$smoke_out"; then
      echo "FAIL: serve $mode WINO_FAULT='$fault' expected '$want', got:" >&2
      grep -E "^(counter|gauge|net-smoke:) " <<<"$smoke_out" >&2
      exit 1
    fi
  done
  if ! grep -q "^gauge serve.queue_depth=0 peak=" <<<"$smoke_out"; then
    echo "FAIL: serve $mode WINO_FAULT='$fault': serve.queue_depth did not drain to 0, got:" >&2
    grep "^gauge " <<<"$smoke_out" >&2
    exit 1
  fi
  echo "   ok: $mode WINO_FAULT='${fault:-<unset>}' -> $* + queue_depth drained"
}
# conv.compiled_fallback=0 in both layer runs: the build-embedded SoA
# kernels' fingerprints match their recipes, so the compiled path
# never silently degrades to the interpreter (satellite of the
# compiled-kernel proof gate — drift is observable, and absent).
# conv.tiles_interpreted=0 on the clean run: every lane group, ragged
# last one included, went through a compiled kernel.
# Sequential requests never stack, so the depth gauge peaks at exactly 1.
serve_smoke --smoke "" \
  serve.enqueued=8 serve.shed=0 serve.batches=8 serve.batched=0 \
  serve.executed=8 serve.deadline_demotions=0 conv.filter_transforms=1 \
  conv.compiled_fallback=0 conv.tiles_interpreted=0 \
  guard.demote.guardrail=0 guard.served_by_fallback=0 \
  exec.allocs_steady=0 exec.degraded_runs=0 serve.networks_registered=0 \
  "gauge serve.breaker_state.smoke/conv=0 peak=0" \
  "gauge serve.queue_depth=0 peak=1"
# Under a persistent transform fault the first three batches demote in
# the guard (unclean), the layer breaker trips on the third, and the
# remaining five requests ride the terminal fallback directly — still
# all served, but the poisoned Winograd head runs only 3 times, not 8.
serve_smoke --smoke "transform:nan" \
  serve.enqueued=8 serve.shed=0 serve.batches=8 serve.executed=8 \
  conv.filter_transforms=1 conv.compiled_fallback=0 \
  guard.demote.guardrail=3 guard.served_by_fallback=3 \
  serve.breaker.open=1 exec.allocs_steady=0 exec.degraded_runs=5 \
  "gauge serve.breaker_state.smoke/conv=2 peak=2" \
  "gauge serve.queue_depth=0 peak=1"
# Clean network run: full accounting, zero demotions, zero steady
# allocations. The transform interpreter must not hide again: no
# compiled kernel drifted from its recipe, and no zoo layer handed a
# single tile to the interpreter — conv2's 5x5 tiles run the compiled
# F(4,5) kernels, ragged lane groups ride the compiled kernels too.
serve_smoke --net-smoke "" \
  serve.enqueued=10 serve.executed=10 serve.shed=0 \
  serve.deadline_demotions=0 serve.networks_registered=2 \
  exec.allocs_steady=0 exec.degraded_runs=0 \
  guard.demote.guardrail=0 guard.served_by_fallback=0 \
  conv.compiled_fallback=0 conv.tiles_interpreted=0 \
  "net-smoke: steady served=8/8" \
  "net-smoke: demotions=0" \
  "net-smoke: planner peak under naive activations: ok" \
  "net-smoke: warm transforms once per winograd conv: ok"
# Poisoned transforms: all 10 requests still serve (guard demotes each
# Winograd conv to its fallback), and the steady phase still allocates
# nothing at graph level.
serve_smoke --net-smoke "transform:nan" \
  serve.enqueued=10 serve.executed=10 serve.shed=0 \
  exec.allocs_steady=0 \
  "net-smoke: steady served=8/8" \
  "net-smoke: planner peak under naive activations: ok" \
  "net-smoke: warm transforms once per winograd conv: ok"
if ! grep -qE "^net-smoke: demotions=[1-9][0-9]*$" <<<"$smoke_out"; then
  echo "FAIL: net smoke under transform:nan demoted nothing:" >&2
  grep "^net-smoke: " <<<"$smoke_out" >&2
  exit 1
fi
echo "   ok: poisoned transforms -> all requests served via guard fallback"

echo "== wino-serve: chaos drill (supervision, containment, exactly-once)"
# Each run arms one serve-site fault against 12 sequential requests and
# asserts the exact supervision counters, the health line, and the
# outcome tally. Faults are check-counted (never timed), so the values
# are deterministic; the queue-depth gauge must always drain to 0.
chaos() {
  local fault="$1"; shift
  local out
  out=$(WINO_FAULT="$fault" ./target/release/chaos_drill)
  for expect in "$@"; do
    # Bare expects are counters; "gauge ...", "health ...", and
    # "drill: ..." expects match verbatim.
    local want="counter $expect"
    case "$expect" in gauge\ *|health\ *|drill:*) want="$expect";; esac
    if ! grep -qx "$want" <<<"$out"; then
      echo "FAIL: chaos drill WINO_FAULT='$fault' expected '$want', got:" >&2
      grep -E "^(counter|gauge|health|drill:) " <<<"$out" >&2
      exit 1
    fi
  done
  if ! grep -qx "gauge serve.queue_depth=0 peak=1" <<<"$out"; then
    echo "FAIL: chaos drill WINO_FAULT='$fault': queue depth did not drain, got:" >&2
    grep "^gauge " <<<"$out" >&2
    exit 1
  fi
  echo "   ok: WINO_FAULT='${fault:-<unset>}' -> supervision counters exact"
}
chaos "" \
  serve.enqueued=12 serve.executed=12 serve.internal_errors=0 \
  serve.batch_panics=0 serve.executor_deaths=0 serve.executor_restarts=0 \
  serve.scheduler_deaths=0 serve.responses_dropped=0 serve.shed=0 \
  "drill: outcomes ok=12 internal=0 refused=0 shed=0" \
  "health status=Healthy scheduler_alive=true executors_alive=1 restarts=0 batch_panics=0"
# The acceptance drill: kill the sole executor mid-batch. The dead
# batch's member fails terminally (Internal), the supervisor respawns
# the executor, and the remaining 11 requests are served by the
# replacement.
chaos "serve_exec:panic:1" \
  serve.enqueued=12 serve.executed=11 serve.internal_errors=1 \
  serve.executor_deaths=1 serve.executor_restarts=1 serve.batch_panics=0 \
  "drill: outcomes ok=11 internal=1 refused=0 shed=0" \
  "health status=Degraded scheduler_alive=true executors_alive=1 restarts=1 batch_panics=0"
# Kill *every* executor incarnation: the restart budget (8) runs out,
# the supervisor declares the server failed, and everything still
# pending resolves terminally (counts beyond the budget race the
# declaration, so only the budget itself is asserted).
chaos "serve_exec:panic" \
  serve.executed=0 serve.executor_deaths=9 serve.executor_restarts=8 \
  "health status=Failed scheduler_alive=true executors_alive=0 restarts=8 batch_panics=0"
# Scheduler death is unrecoverable by design: the one parked request
# fails terminally, admission closes, 11 submissions are refused.
chaos "serve_sched:panic:1" \
  serve.enqueued=1 serve.executed=0 serve.scheduler_deaths=1 \
  serve.internal_errors=1 \
  "drill: outcomes ok=0 internal=1 refused=11 shed=0" \
  "health status=Failed scheduler_alive=false executors_alive=0 restarts=0 batch_panics=0"
# A scheduler stall only delays dispatch — everything is still served.
chaos "serve_sched:stall:3" \
  serve.enqueued=12 serve.executed=12 fault.injected.serve_sched=1 \
  "drill: outcomes ok=12 internal=0 refused=0 shed=0" \
  "health status=Healthy scheduler_alive=true executors_alive=1 restarts=0 batch_panics=0"
# A dropped response maps to a terminal Internal at the waiter (closed
# channel), never a hang; the batch itself executed.
chaos "serve_resp:drop:1" \
  serve.enqueued=12 serve.executed=12 serve.responses_dropped=1 \
  serve.internal_errors=0 \
  "drill: outcomes ok=11 internal=1 refused=0 shed=0" \
  "health status=Healthy scheduler_alive=true executors_alive=1 restarts=0 batch_panics=0"
# A panic inside response delivery is contained by the executor: the
# batch fails its members, the executor itself survives (no respawn).
chaos "serve_resp:panic:1" \
  serve.enqueued=12 serve.executed=12 serve.batch_panics=1 \
  serve.executor_restarts=0 \
  "drill: outcomes ok=11 internal=1 refused=0 shed=0" \
  "health status=Degraded scheduler_alive=true executors_alive=1 restarts=0 batch_panics=1"

echo "== wino-serve: breaker trip-and-recover smoke"
# Three poisoned batches trip the layer breaker (threshold 3), an
# open-state request rides the terminal fallback, then the fault heals,
# the cool-down elapses, and one half-open probe closes the breaker.
breaker_out=$(WINO_FAULT=transform:nan ./target/release/chaos_drill --breaker-smoke)
for want in \
  "drill: breaker tripped on poison and recovered after cool-down" \
  "counter serve.breaker.open=1" \
  "counter serve.breaker.half_open=1" \
  "counter serve.breaker.close=1" \
  "counter guard.demote.guardrail=3" \
  "counter serve.executed=6" \
  "gauge serve.breaker_state.chaos/conv=0 peak=2" \
  "gauge serve.queue_depth=0 peak=1"; do
  if ! grep -qx "$want" <<<"$breaker_out"; then
    echo "FAIL: breaker smoke expected '$want', got:" >&2
    grep -E "^(counter|gauge|drill:) " <<<"$breaker_out" >&2
    exit 1
  fi
done
echo "   ok: breaker open -> fallback -> half-open probe -> closed"

echo "== wino-serve: seeded chaos schedule (randomized-but-reproducible)"
# Concurrent submitters under a seeded fault schedule: batching makes
# the ok/internal split timing-dependent, so only the invariants are
# asserted — the drill binary itself enforces exactly-once resolution,
# bit-identical Ok outputs, and a drained queue, and exits nonzero on
# any violation.
./target/release/chaos_drill --seed 42 | grep -x "drill: outcomes ok=[0-9]* internal=[0-9]* refused=0 shed=0" >/dev/null
echo "   ok: seed 42 schedule resolved every submission exactly once"

echo "== wino-serve: load harness chaos mode"
# The load harness's --chaos mode drives the alexnet registry under a
# seeded per-wave fault schedule and reports shed/internal rates into
# results/serve_load.txt.
chaos_load=$(./target/release/wino-serve-load --chaos 11 --requests 12 --concurrency 4)
for pat in \
  "serve-load: health status=" \
  "serve-load: mode=chaos(seed=11,c=4) served="; do
  if ! grep -qF "$pat" <<<"$chaos_load"; then
    echo "FAIL: chaos load run missing '$pat', got:" >&2
    echo "$chaos_load" >&2
    exit 1
  fi
done
grep -qF "mode=chaos(seed=11,c=4)" results/serve_load.txt
echo "   ok: chaos load run reported shed/internal rates into results/"

echo "== wino-serve: load harness network mode"
# With --net the same closed loop submits whole-network requests; the
# report must land in results/ tagged with the network.
net_load=$(./target/release/wino-serve-load --net --network inception-3a-3b \
  --requests 8 --concurrency 2)
if ! grep -qF "mode=closed-loop(c=2) served=8" <<<"$net_load"; then
  echo "FAIL: network load run did not serve all 8 requests, got:" >&2
  echo "$net_load" >&2
  exit 1
fi
grep -qF "net:inception-3a-3b mode=closed-loop(c=2)" results/serve_load.txt
echo "   ok: network closed loop served and reported into results/"

echo "== wino-telemetry: metrics smoke (histograms + Prometheus snapshot)"
# The same 8-request smoke with WINO_METRICS armed: every request must
# show up in the serve histograms (queue_wait/execute/e2e count exactly
# 8 — one record per request, nothing double-counted, nothing lost),
# and the shutdown emission must land the matching lines in the
# Prometheus-style text file.
prom=results/ci-metrics.prom
rm -f "$prom"
metrics_out=$(WINO_METRICS="text:$prom" ./target/release/wino-serve-load --smoke)
for h in serve.queue_wait serve.execute serve.e2e; do
  if ! grep -q "^hist $h count=8 " <<<"$metrics_out"; then
    echo "FAIL: metrics smoke: expected 'hist $h count=8 ...', got:" >&2
    grep "^hist " <<<"$metrics_out" >&2
    exit 1
  fi
done
if [ ! -f "$prom" ]; then
  echo "FAIL: metrics smoke: WINO_METRICS=text:$prom wrote no snapshot" >&2
  exit 1
fi
for line in "serve_queue_wait_count 8" "serve_enqueued 8" "serve_executed 8"; do
  if ! grep -qx "$line" "$prom"; then
    echo "FAIL: metrics smoke: expected '$line' in $prom, got:" >&2
    cat "$prom" >&2
    exit 1
  fi
done
rm -f "$prom"
echo "   ok: serve histograms count all 8 requests; Prometheus snapshot matches"

echo "== wino-probe: flight recorder drill (incident dump on demotion)"
# Re-run the transform:nan drill with telemetry armed: each of the 3
# guardrail demotions must dump a flight file that parses, names the
# demotion reason, and contains the recent conv.* span history — the
# context an incident responder actually needs.
flight_dir=results/ci-flight
rm -rf "$flight_dir"
flight_out=$(WINO_METRICS=summary WINO_FLIGHT_DIR="$flight_dir" WINO_FAULT=transform:nan \
  ./target/release/guard_drill)
if ! grep -qx "counter flight.dumps=3" <<<"$flight_out"; then
  echo "FAIL: flight drill: expected 'counter flight.dumps=3', got:" >&2
  grep "^counter " <<<"$flight_out" >&2
  exit 1
fi
dumps=("$flight_dir"/flight-*.json)
if [ "${#dumps[@]}" -ne 3 ]; then
  echo "FAIL: flight drill: expected 3 dump files in $flight_dir, found ${#dumps[@]}" >&2
  exit 1
fi
for dump in "${dumps[@]}"; do
  python3 -m json.tool "$dump" >/dev/null
  if ! grep -q '"guard.demote.guardrail"' "$dump"; then
    echo "FAIL: flight dump $dump does not carry the demotion reason" >&2
    exit 1
  fi
  if ! grep -q '"conv\.' "$dump"; then
    echo "FAIL: flight dump $dump has no conv.* span context" >&2
    exit 1
  fi
done
rm -rf "$flight_dir"
echo "   ok: 3 demotions -> 3 parseable dumps with reason + conv.* span context"

echo "== bench smoke: head perf artifact (BENCH_head.json)"
# One zoo layer timed scalar-interpreted vs compiled-SIMD in the same
# process, per-phase GFLOP/s from probe spans (split cold/steady), and
# short closed-loop serve runs — per-layer and whole-network through
# the graph executor — whose histogram percentiles are cross-checked
# in-process against exact sorted-array ranks.
WINO_SIMD=auto ./target/release/wino-bench-smoke --out BENCH_head.json
python3 -m json.tool BENCH_head.json >/dev/null
speedup=$(python3 -c "import json; print(json.load(open('BENCH_head.json'))['zoo_layer']['speedup'])")
if ! python3 -c "import sys; sys.exit(0 if float('$speedup') >= 1.0 else 1)"; then
  echo "FAIL: SIMD+compiled path slower than scalar interpreted (speedup=$speedup)" >&2
  exit 1
fi
echo "   ok: BENCH_head.json written (zoo-layer speedup ${speedup}x)"

echo "== bench compare: perf-trajectory gate (head vs committed baseline)"
# First prove the gate itself can fail: the committed regressed fixture
# (SIMD fell back to scalar, sgemm at a tenth, serve p99 8x) must trip
# it. A gate that cannot fail is not a gate.
if ./target/release/wino-bench-compare \
    crates/bench/fixtures/cmp_baseline.json crates/bench/fixtures/cmp_regressed.json \
    >/dev/null 2>&1; then
  echo "FAIL: bench-compare passed the regressed fixture — the gate is broken" >&2
  exit 1
fi
./target/release/wino-bench-compare \
  crates/bench/fixtures/cmp_baseline.json crates/bench/fixtures/cmp_baseline.json >/dev/null
echo "   ok: gate trips on the regressed fixture, passes the identical one"
./target/release/wino-bench-compare BENCH_baseline.json BENCH_head.json

echo "CI OK"
