#!/usr/bin/env bash
# Local CI gate: formatting, the docs' file references, lints, the
# release build, the whole workspace's tests, the static verifier, the
# probe smokes and the drill table. Every stage is a program that exits nonzero on failure;
# this script asserts nothing by reading their output. Perf is not
# gated here: `cargo run --release --manifest-path benchmark/Cargo.toml
# -- --repeat <n>` is the local A/B, and the PR pipeline runs the
# benchmark on parent and change. Run from anywhere before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

# A stage header, with the seconds since this script started (bash's
# SECONDS): the gap between two headers is the stage's cost.
stage() {
  echo "== [${SECONDS}s] $*"
}

# wino-cc's tests are the independent-compiler check of the generated
# kernels; without a C compiler they skip, and a skip proves nothing.
if ! command -v cc >/dev/null; then
  echo "FAIL: no C compiler (cc) on PATH: wino-cc's tests would skip" >&2
  exit 1
fi

stage "cargo fmt --check"
cargo fmt --all -- --check

stage "the docs name only files that exist"
# README, DESIGN and ROADMAP are read as the map of the tree: every
# crates/, shims/, scripts/, benchmark/, src/, tests/ or examples/ path
# they name must exist, and a `file.rs:N` (or `:N-M`) anchor must fall
# inside its file. EXPERIMENTS and CHANGES are ledgers of what was,
# and are not checked.
python3 - README.md DESIGN.md ROADMAP.md <<'PY'
import os, re, sys
ref = re.compile(r"(?<![\w./-])((?:crates|shims|scripts|benchmark|src|tests|examples)/[\w./-]*)(?::(\d+)(?:-(\d+))?)?")
bad = []
for doc in sys.argv[1:]:
    for n, line in enumerate(open(doc, encoding="utf-8"), 1):
        for m in ref.finditer(line):
            path = m.group(1).rstrip(".")
            if not os.path.exists(path):
                bad.append(f"{doc}:{n}: {path} does not exist")
            elif m.group(2):
                last = int(m.group(3) or m.group(2))
                with open(path, encoding="utf-8") as f:
                    length = sum(1 for _ in f)
                if last > length:
                    bad.append(f"{doc}:{n}: {m.group(0)} is past the end of {path} ({length} lines)")
for line in bad:
    print(f"FAIL: {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY

stage "one way to run a Winograd convolution"
# The entry ladder is conv_winograd (cold) -> conv_winograd_precomputed
# (warm); a third name is a twin growing back. A caller picks a pool
# with Runtime::install, so no function below takes one as an argument
# or has an `_rt` twin.
ladder=$(grep -c 'fn conv_winograd' crates/conv/src/winograd.rs)
if [ "$ladder" -ne 2 ]; then
  echo "FAIL: expected 2 conv_winograd* functions in winograd.rs, found $ladder" >&2
  exit 1
fi
if grep -rnE 'fn [a-z0-9_]+_rt(_level)?\b|&Runtime\b' \
  crates/gemm/src crates/conv/src crates/guard/src crates/exec/src crates/serve/src; then
  echo "FAIL: an _rt twin or a &Runtime parameter above (use Runtime::install)" >&2
  exit 1
fi

stage "the served stack stands alone"
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
# The modelled tuner runs on the wino-runtime pool and persists nothing.
forbid 'parking_lot|serde|serde_json' -p wino-tuner --depth 1
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
# The server runs N executors and nothing else: each takes its next
# batch off the submission queue and contains its own batch panics, so
# a second spawn is a scheduler or a watcher growing back.
spawns=$(cat crates/serve/src/*.rs | grep -c 'std::thread::Builder::new()' || true)
if [ "$spawns" -ne 1 ]; then
  echo "FAIL: expected 1 thread spawn in crates/serve/src (the executors), found $spawns" >&2
  exit 1
fi

stage "cargo clippy (workspace, warnings are errors, SAFETY comments required)"
# `undocumented_unsafe_blocks` is allow-by-default; deny it so every
# unsafe block/impl must carry a `// SAFETY:` rationale. wino-verify's
# own scanner backstops this (shims, build scripts, `unsafe fn`).
cargo clippy --workspace --all-targets --offline -- -D warnings \
  -D clippy::undocumented_unsafe_blocks

stage "cargo doc (workspace, warnings are errors: every doc link resolves)"
# A deleted or private item that a doc comment still links to fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

stage "tier-1: release build (workspace: the stages below drive member binaries)"
cargo build --release --offline --workspace

stage "tier-1: test suite (every workspace member, not just the root package)"
cargo test --workspace --offline -q

stage "the repo benchmark builds against today's crates, and its own tests pass"
# benchmark/ is a package of its own, outside the workspace: nothing
# above builds it, so a crate API change that breaks it would otherwise
# surface only when the benchmark runs.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

stage "wino-verify: static verification (recipes, kernels, indexing, unsafe invariants)"
# Exits nonzero on any failed proof *and* on any analysis that covered
# nothing or missed a compiled spec x stage (its coverage check), so a
# stage that silently analysed nothing cannot pass. (The filter only
# drops the indented per-recipe rows; headlines and FAIL lines show.)
./target/release/wino-verify | grep -v '^  '

stage "probe smoke: figure6 with WINO_TRACE=summary"
# (plain grep, not -q: an early pipe close would SIGPIPE the binary)
WINO_TRACE=summary ./target/release/figure6 | grep "wino-probe phase summary" >/dev/null

stage "probe smoke: figure6 with WINO_TRACE=json, trace must parse"
trace=results/ci-figure6.trace.json
WINO_TRACE="json:$trace" ./target/release/figure6 >/dev/null
python3 -m json.tool "$trace" >/dev/null
rm -f "$trace"

stage "figure9_cpu --quick: every selector candidate serves undemoted, they agree, the pick is one"
# Nothing timed: the measured table belongs in EXPERIMENTS.md, not in a gate.
./target/release/figure9_cpu --quick

stage "wino-drill: fault, serving and chaos scenarios (one process each, typed reports)"
# The table of scenarios, their environments and their expected
# counters/gauges/histograms/health lives in
# crates/bench/src/bin/drill.rs; `wino-drill <scenario>` re-runs one.
./target/release/wino-drill

stage "done"
echo "CI OK"
