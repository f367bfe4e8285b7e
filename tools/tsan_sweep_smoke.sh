#!/usr/bin/env bash
# ThreadSanitizer smoke run for the parallel sweep engine, registered
# as the `tsan_sweep_smoke` ctest (label `sanitize-thread`): configures
# a separate TSan build of this source tree — with invariant contracts
# forced on — builds the sweep driver, then runs a micro-workload sweep
# across 4 worker threads under TSan. Any data race between concurrent
# Systems (shared mutable globals, cross-run aliasing) fails the run.
#
# usage: tsan_sweep_smoke.sh <source-dir> <build-dir>
set -euo pipefail

src="${1:?usage: tsan_sweep_smoke.sh <source-dir> <build-dir>}"
build="${2:?usage: tsan_sweep_smoke.sh <source-dir> <build-dir>}"

jobs="$(nproc 2>/dev/null || echo 4)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

echo "== configure (thread; contracts on; -Werror) =="
cmake -S "$src" -B "$build" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DBCTRL_SANITIZE=thread \
      -DBCTRL_CONTRACTS=ON \
      -DBCTRL_WERROR=ON

echo "== build =="
cmake --build "$build" --target bctrl_sweep -j "$jobs"

echo "== parallel micro sweep under TSan (4 workers) =="
# Every point builds its own System on a worker thread; nothing in the
# simulator is locked, so this run is the proof that concurrent
# Systems share no mutable state.
"$build/tools/bctrl_sweep" --micro --jobs 4 --quiet \
    --out "$build/BENCH_sweep_tsan.json"

echo "tsan sweep smoke: clean"
