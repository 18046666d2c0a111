#!/usr/bin/env bash
# Full verification pipeline: release build + tests + benches, then an
# ASan/UBSan build + tests. This is what CI should run.
#
# AES kernel: dip_crypto picks AES-NI at runtime (CPUID) on CPUs that have
# it, so on such a host every lane below — release, ASan/UBSan, TSan (the
# pool suites push OPT/EPIC through it) and coverage — builds and runs the
# hardware kernel. The portable kernel stays covered in every lane through
# crypto_test's kernel differential (AesKernelTest, AesKernels), which calls
# both kernels by name.
#
#   --fast   docs check + release build + the unit/property/ctrl/fib/mesh/
#            pisa/dtn test tiers only (see docs/TESTING.md): the inner-loop
#            lane, no benches, no sanitizer rebuilds. `ctest -L fib` alone
#            slices just the FIB-engine lane (docs/FIB.md); `ctest -L mesh`
#            the UDP mesh lane (docs/MESH.md); `ctest -L pisa` the
#            stage-budget compiler + switch-model lane (docs/PISA.md);
#            `ctest -L dtn` the custody/disruption-tolerance lane
#            (docs/DTN.md).
#   --coverage docs check + a --coverage build + `ctest -LE bench-smoke`,
#            then line coverage per src/ subsystem (gcov, summarised by
#            scripts/coverage.py). Fails below COVERAGE_FLOOR or when a
#            shared node-runtime seam has no covered line.
set -euo pipefail
cd "$(dirname "$0")/.."

# Total src/ line coverage measured by the --coverage lane. Only ever raise
# it: a change that loses coverage must add the tests that win it back.
COVERAGE_FLOOR=96.1

FAST=0
COVERAGE=0
[ "${1:-}" = "--fast" ] && FAST=1
[ "${1:-}" = "--coverage" ] && COVERAGE=1

echo "== docs link check =="
# Markdown link targets (relative ones must exist) and backtick-quoted
# repo paths with an extension (e.g. `tests/stats_test.cpp`) in the
# operator docs must resolve — stale references rot fastest.
fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
  dir=$(dirname "$doc")
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*|'') continue ;;
    esac
    target="${target%%#*}"
    if [ ! -e "$dir/$target" ]; then
      echo "  BROKEN $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
  while IFS= read -r target; do
    if [ ! -e "$target" ]; then
      echo "  BROKEN $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '`(src|tests|bench|examples|docs|scripts)/[A-Za-z0-9_./-]*\.[A-Za-z0-9_]+`' "$doc" | tr -d '`')
done
if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "  all links resolve"

if [ "$COVERAGE" -eq 1 ]; then
  echo "== coverage build (--coverage, Debug) =="
  cmake -B build-cov -G Ninja -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" >/dev/null
  cmake --build build-cov
  find build-cov -name '*.gcda' -delete
  echo "== tests under coverage =="
  ctest --test-dir build-cov -LE bench-smoke --output-on-failure
  echo "== line coverage per src/ subsystem =="
  python3 scripts/coverage.py build-cov --floor "$COVERAGE_FLOOR" \
    --seam src/netsim/src/node_runtime.cpp \
    --seam src/netsim/src/faults.cpp \
    --seam src/ctrl/include/dip/ctrl/spf.hpp \
    --seam src/dtn/src/agent.cpp
  echo "COVERAGE CHECKS PASSED"
  exit 0
fi

echo "== release build =="
# Bench lanes depend on this being a real Release tree (-O3, NDEBUG):
# bench_guard.hpp aborts the binaries otherwise. DIP_NATIVE=1 additionally
# tunes codegen for this machine (-march=native) — numbers then only
# compare against baselines measured on the same host.
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release \
  -DDIP_NATIVE=$([ "${DIP_NATIVE:-0}" = "1" ] && echo ON || echo OFF) >/dev/null
cmake --build build 2>&1 | tee build/release-build.log

echo "== warnings gate (project sources) =="
# Any compiler warning located in src/, tests/, bench/ or examples/ fails the
# run (warnings inside system headers are out of scope; no -Wno-* flag hides
# one). The gate reads what this build compiled: every file on a fresh
# tree, only the rebuilt ones on an incremental build — run
# `cmake --build build --clean-first` first to re-check a warm tree.
if sed "s|$(pwd)/||g" build/release-build.log |
    grep -E '^(src|tests|bench|examples)/[^:]+:[0-9]+:[0-9]+: warning:'; then
  echo "warnings gate FAILED"
  exit 1
fi
echo "  no warnings in project sources"

if [ "$FAST" -eq 1 ]; then
  echo "== tests (--fast: unit + property + ctrl + fib + mesh + pisa + dtn tiers) =="
  ctest --test-dir build -L "unit|property|ctrl|fib|mesh|pisa|dtn" --output-on-failure
  echo "FAST CHECKS PASSED"
  exit 0
fi

echo "== tests =="
ctest --test-dir build -LE bench-smoke --output-on-failure

echo "== benches (smoke lane: ctest -L bench-smoke, ~1 iteration each) =="
ctest --test-dir build -L bench-smoke --output-on-failure

echo "== examples =="
for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue  # skip CMake metadata
  "$e" >/dev/null
  echo "  $(basename "$e") ok"
done

echo "== sanitizer build (ASan + UBSan) =="
cmake -B build-san -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
  >/dev/null
cmake --build build-san

echo "== tests under sanitizers =="
# -LE keeps the full unit/property tiers; the burst-arena and multi-block
# crypto coverage (allocation_test, crypto_test batch oracles, pipeline
# burst suites) runs here under ASan/UBSan in addition to the TSan pass,
# and so does the pisa lane (pisa_test's stage-budget property suite +
# ndn_switch_test) — the placement compiler's shrinker and report
# formatting are exactly the kind of index arithmetic ASan pays for.
ctest --test-dir build-san -LE bench-smoke --output-on-failure

echo "== bench smoke under sanitizers (arena + multi-block crypto) =="
ctest --test-dir build-san -L bench-smoke \
  -R "bench_smoke_bench_batch_pipeline|bench_smoke_bench_crypto|bench_smoke_bench_chaos" \
  --output-on-failure

echo "== TSan build (RouterPool / SpscRing concurrency + chaos harness) =="
cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=Debug -DDIP_SANITIZE=thread \
  >/dev/null
cmake --build build-tsan --target pipeline_test stats_test chaos_test \
  differential_test conformance_test ctrl_test fib_test mesh_test dtn_test

echo "== pipeline + stats + chaos + differential + conformance + ctrl + fib-churn + mesh + dtn tests under TSan =="
# fib_churn_test runs only the TreeBitmapChurn pool-under-journal-flush
# suite (docs/FIB.md) — full fib_test under TSan would mostly re-run
# single-threaded engine oracles at 10x cost. mesh_test includes the
# real-UDP two-thread router exchange (docs/MESH.md) — the thread-
# confinement contract's race probe. dtn_test rides along for the custody
# conformance sweep over the pool engine (docs/DTN.md).
ctest --test-dir build-tsan \
  -R "pipeline_test|stats_test|chaos_test|differential_test|conformance_test|ctrl_test|fib_churn_test|mesh_test|dtn_test" \
  --output-on-failure

echo "== chaos clean-path overhead (BENCH_chaos.json refresh: run manually) =="
# The committed BENCH_chaos.json comes from:
#   build/bench/bench_chaos --benchmark_min_time=0.2 \
#     --benchmark_out=BENCH_chaos.json --benchmark_out_format=json
# The smoke loop above already executes bench_chaos once per run.
# BENCH_control_plane.json (snapshot read overhead vs static FIB) is
# refreshed the same way from bench_control_plane, and
# BENCH_fib_scale.json (Internet-scale FIB sweep + zero-blackhole churn
# leg, docs/FIB.md) from bench_fib_scale.

echo "ALL CHECKS PASSED"
