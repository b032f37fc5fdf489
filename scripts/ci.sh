#!/usr/bin/env bash
# Local CI gate: formatting, lints, the release build, the whole
# workspace's tests, the static verifier, the probe smokes and the
# drill table. Every stage is a program that exits nonzero on failure;
# this script asserts nothing by reading their output. Perf is not
# gated here: `cargo run --release --manifest-path benchmark/Cargo.toml
# -- --repeat <n>` is the local A/B, and the PR pipeline runs the
# benchmark on parent and change. Run from anywhere before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

# wino-cc's tests are the independent-compiler check of the generated
# kernels; without a C compiler they skip, and a skip proves nothing.
if ! command -v cc >/dev/null; then
  echo "FAIL: no C compiler (cc) on PATH: wino-cc's tests would skip" >&2
  exit 1
fi

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

echo "== the served stack stands alone"
# forbid <crates regex> <cargo tree args>: fail if the normal-dependency
# tree names one of the crates.
forbid() {
  local crates=$1 tree
  shift
  tree=$(cargo tree --offline -e normal "$@")
  if grep -E "($crates) " <<<"$tree"; then
    echo "FAIL: $* depends on the crates above" >&2
    exit 1
  fi
}
# wino-serve (and so wino-exec, -graph, -guard, -conv) links none of the
# modelled-GPU reproduction layer. `-e normal` leaves out the one
# sanctioned edge, wino-conv's build-time use of wino-codegen's emitter.
forbid 'wino-(tuner|gpu|ir|vendor|cc|codegen)' -p wino-serve
# The guard is the degradation chain and nothing else: the modelled
# tuner does not borrow it, and it persists nothing.
forbid 'wino-guard' -p wino-tuner
forbid 'parking_lot|serde|serde_json' -p wino-guard --depth 1
# ([_]: so that this line is not itself a match.)
if grep -rn 'WINO_TUNE[_]' crates src examples tests scripts; then
  echo "FAIL: the tuned-plan environment seam is back (lines above)" >&2
  exit 1
fi
# The served stack runs pinned plans (LayerPlan::run), not ad-hoc
# guards: a second conv call path growing back names GuardedConv.
if grep -rn 'GuardedConv' crates/exec/src crates/serve/src; then
  echo "FAIL: wino-exec/wino-serve build their own guard (lines above)" >&2
  exit 1
fi
# The served stack runs the kernels the build proved: a bank for a
# compiled F(m, r) is built from the table, so nothing above wino-conv
# resolves or holds recipes.
if grep -rnE 'recipe_db|TransformRecipes' crates/graph/src crates/guard/src \
  crates/exec/src crates/serve/src; then
  echo "FAIL: the served stack names recipes (lines above)" >&2
  exit 1
fi
# The server runs one scheduler and N executors and nothing else: a
# batch panic is contained on its executor and a scheduler death fails
# the server on the scheduler, so a third spawn is a watcher growing
# back.
spawns=$(cat crates/serve/src/*.rs | grep -c 'std::thread::Builder::new()' || true)
if [ "$spawns" -ne 2 ]; then
  echo "FAIL: expected 2 thread spawns in crates/serve/src (scheduler, executor), found $spawns" >&2
  exit 1
fi

echo "== cargo clippy (workspace, warnings are errors, SAFETY comments required)"
# `undocumented_unsafe_blocks` is allow-by-default; deny it so every
# unsafe block/impl must carry a `// SAFETY:` rationale. wino-verify's
# own scanner backstops this (shims, build scripts, `unsafe fn`).
cargo clippy --workspace --all-targets --offline -- -D warnings \
  -D clippy::undocumented_unsafe_blocks

echo "== tier-1: release build (workspace: the stages below drive member binaries)"
cargo build --release --offline --workspace

echo "== tier-1: test suite (every workspace member, not just the root package)"
cargo test --workspace --offline -q

echo "== the repo benchmark builds against today's crates, and its own tests pass"
# benchmark/ is a package of its own, outside the workspace: nothing
# above builds it, so a crate API change that breaks it would otherwise
# surface only when the benchmark runs.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== exec identities at the pinned AVX2 tier"
# The suite above runs at the widest level the host has; on an AVX-512
# host this re-runs the network identities on the 6x16 GEMM tile.
WINO_SIMD=avx2 cargo test --offline -q -p wino-exec --test prop_identity

echo "== wino-verify: static verification (recipes, kernels, indexing, unsafe invariants)"
# Exits nonzero on any failed proof *and* on any analysis that covered
# nothing or missed a compiled spec x stage (its coverage check), so a
# stage that silently analysed nothing cannot pass. (The filter only
# drops the indented per-recipe rows; headlines and FAIL lines show.)
./target/release/wino-verify | grep -v '^  '

echo "== probe smoke: figure6 with WINO_TRACE=summary"
# (plain grep, not -q: an early pipe close would SIGPIPE the binary)
WINO_TRACE=summary ./target/release/figure6 | grep "wino-probe phase summary" >/dev/null

echo "== probe smoke: figure6 with WINO_TRACE=json, trace must parse"
trace=results/ci-figure6.trace.json
WINO_TRACE="json:$trace" ./target/release/figure6 >/dev/null
python3 -m json.tool "$trace" >/dev/null
rm -f "$trace"

echo "== figure9_cpu --quick: every selector candidate serves undemoted, they agree, the pick is one"
# Nothing timed: the measured table belongs in EXPERIMENTS.md, not in a gate.
./target/release/figure9_cpu --quick

echo "== wino-drill: fault, serving and chaos scenarios (one process each, typed reports)"
# The table of scenarios, their environments and their expected
# counters/gauges/histograms/health lives in
# crates/bench/src/bin/drill.rs; `wino-drill <scenario>` re-runs one.
./target/release/wino-drill

echo "CI OK"
