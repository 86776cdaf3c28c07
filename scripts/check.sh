#!/usr/bin/env bash
# Local verification mirroring the CI pipeline (.github/workflows/ci.yml calls
# this script for every stage, so local runs and CI cannot drift).
#
#   scripts/check.sh                 # tier-1 (RelWithDebInfo) + sanitize pass
#   scripts/check.sh --fast          # tier-1 only
#   scripts/check.sh --quick         # one CI build-test cell: build + ctest
#                                    # (ctest compiles AND runs every example)
#   scripts/check.sh --fuzz N        # the CI fuzz stage: N bounded iterations
#   scripts/check.sh --fuzz-sharded N  # the CI sharded-equivalence stage:
#                                    # N single-vs-sharded diff iterations
#   scripts/check.sh --fuzz-placement N  # the CI placement-equivalence
#                                    # stage: N modulo-vs-hash-vs-range
#                                    # diff iterations (placement must be
#                                    # semantics-invariant)
#   scripts/check.sh --fuzz-sched N  # the CI schedule-exploration stage:
#                                    # N strategy-mixed (round_robin/
#                                    # uniform_random/pct) + persistency-mixed
#                                    # (strict/buffered) iterations; writes
#                                    # coverage.json with the per-strategy
#                                    # bucket tables
#   scripts/check.sh --fuzz-wmm N   # the CI memory-model stage: N
#                                    # visibility-mixed (sc/tso/pso)
#                                    # iterations — store-buffer drains
#                                    # scheduled alongside process steps,
#                                    # composed with mixed persistency;
#                                    # writes coverage.json with the
#                                    # per-visibility-model bucket table
#   scripts/check.sh --fuzz-deep N [--jobs J]
#                                    # the nightly deep-fuzz lane: N
#                                    # coverage-steered multi-object
#                                    # strategy-mixed iterations with the
#                                    # equivalence diff on every one; writes
#                                    # coverage.json. --jobs J forks J worker
#                                    # processes over the iteration range
#                                    # (per-worker summaries + shared corpus
#                                    # land in the artifact dir, coverage.json
#                                    # is the merged union)
#   scripts/check.sh --bench-smoke   # the CI bench-smoke stage: every
#                                    # E-binary with tiny parameters, plus
#                                    # bench_serve at smoke size
#   scripts/check.sh --bench-detect-smoke
#                                    # the CI bench-detect stage: builds the
#                                    # end-to-end benchmark (perf/, its own
#                                    # CMake package) and runs its
#                                    # bench_detect_smoke test, so a library
#                                    # API change that breaks the benchmark
#                                    # fails CI
#   scripts/check.sh --tsan          # the CI ThreadSanitizer stage: a Tsan
#                                    # build of the suites that run real
#                                    # threads (threads backend, driver and
#                                    # checker lanes, thread engine, serve
#                                    # dispatcher), run without their fork
#                                    # tests, each suite's peak RSS printed
#   scripts/check.sh --serve-soak N  # the CI serve-soak stage: bench_serve
#                                    # with N sessions x 2000 ops — the
#                                    # invariant-enforcing serving soak
#                                    # (crashes + rebalancing + certificate)
#                                    # plus the overload and threaded
#                                    # scenarios; writes BENCH_serve.json
#
# Knobs (all respected by CI):
#   DETECT_BUILD_TYPE   CMake build type for --quick/--fuzz/--bench-smoke
#                       (default RelWithDebInfo; CI matrixes Debug/Sanitize)
#   DETECT_BUILD_DIR    build directory (default build-$DETECT_BUILD_TYPE
#                       for --quick, build otherwise; --bench-detect-smoke
#                       builds perf/ into the same name plus -perf)
#   DETECT_FUZZ_OUT     artifact directory for failing fuzz seeds
#                       (default fuzz-artifacts)
#   DETECT_COVERAGE_OUT coverage.json path for --fuzz-deep
#                       (default coverage.json)
#   CC/CXX              compilers, as usual with CMake
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
build_type="${DETECT_BUILD_TYPE:-RelWithDebInfo}"

configure_flags=()
if command -v ccache >/dev/null 2>&1; then
  configure_flags+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

stage_build() {           # $1 = build dir, $2 = build type
  # ${arr[@]+...} guards the empty-array expansion against set -u on
  # bash < 4.4 (macOS /bin/bash is 3.2).
  cmake -B "$1" -S . -DCMAKE_BUILD_TYPE="$2" \
    ${configure_flags[@]+"${configure_flags[@]}"} >/dev/null
  cmake --build "$1" -j "$jobs"
}

stage_ctest() {           # $1 = build dir
  ctest --test-dir "$1" --output-on-failure -j "$jobs"
}

stage_fuzz() {            # $1 = build dir, $2 = iterations, $3.. = extra flags
  local dir="$1" iters="$2"
  shift 2
  local out="${DETECT_FUZZ_OUT:-fuzz-artifacts}"
  mkdir -p "$out"
  "$dir"/fuzz_main --iters "$iters" --seed "${DETECT_FUZZ_SEED:-1}" \
    --out "$out" "$@"
}

stage_bench_smoke() {     # $1 = build dir
  # DETECT_SMOKE shrinks the E1/E2/E9 sweeps and E6's sweep and per-object
  # loops. The binary set comes from what CMake built (DETECT_BENCHES), so a
  # new E-binary is picked up here without touching this script.
  local b found=0
  for b in "$1"/bench_e*; do
    [[ -x "$b" ]] || continue
    found=1
    echo "== bench-smoke: $(basename "$b") =="
    DETECT_SMOKE=1 "$b"
  done
  if [[ "$found" == 0 ]]; then
    echo "bench-smoke: no bench_e* binaries in $1" >&2
    return 1
  fi
  # Throughput floor on the E6 sweep's single-backend row: the fiber-engine
  # step loop keeps the single sim backend in the hundreds of thousands of
  # ops/s even at smoke parameters, so 5x the pre-fiber seed baseline
  # (~6.7k ops/s) catches a step-loop regression while leaving ample
  # headroom for slow CI runners.
  # bench_serve is not an E-binary (no paper experiment number) but belongs
  # in the smoke sweep: it enforces the serving invariants and exits nonzero
  # on any violation, so a broken front-end fails this stage.
  if [[ -x "$1"/bench_serve ]]; then
    echo "== bench-smoke: bench_serve =="
    DETECT_SMOKE=1 "$1"/bench_serve
  fi
  if [[ -f BENCH_e6.json ]]; then
    python3 - <<'PY'
import json, sys
FLOOR = 33_500  # 5x the recorded pre-fiber-engine baseline of ~6.7k ops/s
with open("BENCH_e6.json") as f:
    data = json.load(f)
rows = [r for r in data["results"] if r["backend"] == "single"]
if not rows:
    sys.exit("bench-smoke: no single-backend row in BENCH_e6.json")
ops = rows[0]["ops_per_sec"]
if ops < FLOOR:
    sys.exit(f"bench-smoke: single-backend throughput {ops:,.0f} ops/s "
             f"is below the floor of {FLOOR:,} ops/s — step-loop regression?")
print(f"bench-smoke: single-backend throughput {ops:,.0f} ops/s "
      f"clears the {FLOOR:,} ops/s floor")
PY
  fi
}

case "${1:-}" in
  --quick)
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== quick: $build_type build + ctest ($dir) =="
    stage_build "$dir" "$build_type"
    stage_ctest "$dir"
    ;;
  --fuzz)
    iters="${2:-500}"
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== fuzz: $iters iterations ($dir) =="
    stage_build "$dir" "$build_type"
    # Unsteered, but still reports its buckets — CI's job summary reads the
    # coverage.json of short campaigns too.
    stage_fuzz "$dir" "$iters" \
      --coverage-out "${DETECT_COVERAGE_OUT:-coverage.json}"
    ;;
  --fuzz-sharded)
    iters="${2:-500}"
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== fuzz-sharded: $iters single-vs-sharded equivalence iterations ($dir) =="
    stage_build "$dir" "$build_type"
    stage_fuzz "$dir" "$iters" --sharded-equiv
    ;;
  --fuzz-placement)
    iters="${2:-500}"
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== fuzz-placement: $iters placement-equivalence iterations ($dir) =="
    stage_build "$dir" "$build_type"
    stage_fuzz "$dir" "$iters" --placement-equiv
    ;;
  --fuzz-sched)
    # Schedule-exploration stage: the generator draws every scenario's
    # strategy from the mixed pool (round_robin / uniform_random / pct) and
    # its persistency model from strict / buffered, so PCT preemption
    # schedules and buffered-persistency crash states run under the full
    # oracle side by side with the historical uniform scheduler. The
    # coverage.json carries per-strategy bucket counts — the numbers the job
    # summary's PCT-vs-uniform table reads.
    iters="${2:-500}"
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== fuzz-sched: $iters strategy-mixed iterations ($dir) =="
    stage_build "$dir" "$build_type"
    stage_fuzz "$dir" "$iters" --sched mixed --persist mixed \
      --coverage-out "${DETECT_COVERAGE_OUT:-coverage.json}"
    ;;
  --fuzz-wmm)
    # Memory-model stage: the generator draws every scenario's store-buffer
    # visibility model from the mixed pool (sc / tso / pso) — non-sc draws
    # also script up to three full-drain points — composed with mixed
    # persistency, so relaxed-visibility runs face the full oracle. The
    # coverage.json carries the per-visibility-model bucket counts the job
    # summary renders.
    iters="${2:-500}"
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== fuzz-wmm: $iters visibility-mixed iterations ($dir) =="
    stage_build "$dir" "$build_type"
    stage_fuzz "$dir" "$iters" --visibility mixed --persist mixed \
      --coverage-out "${DETECT_COVERAGE_OUT:-coverage.json}"
    ;;
  --fuzz-deep)
    # The nightly deep-fuzz lane (also runnable locally): coverage-steered
    # generation over up-to-4-object scenarios, the full variant diff,
    # shards-min 2 so every iteration carries the single-vs-sharded
    # equivalence diff, and strategy-mixed schedule/persistency generation.
    # Emits coverage.json (buckets, timeline, per-strategy tables, corpus
    # seed list) next to the usual failure artifacts.
    iters="${2:-30000}"
    # Optional campaign fan-out: `--fuzz-deep N --jobs J` forks J workers
    # (DETECT_FUZZ_JOBS works too; the flag wins). J > 1 turns the N-budget
    # lane into an N-per-worker-wall-clock campaign on a J-core runner.
    fuzz_jobs="${DETECT_FUZZ_JOBS:-1}"
    if [[ "${3:-}" == "--jobs" ]]; then
      fuzz_jobs="${4:?--jobs needs a worker count}"
    fi
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== fuzz-deep: $iters coverage-steered multi-object iterations, $fuzz_jobs worker(s) ($dir) =="
    stage_build "$dir" "$build_type"
    stage_fuzz "$dir" "$iters" \
      --coverage --coverage-out "${DETECT_COVERAGE_OUT:-coverage.json}" \
      --objects-max 4 --shards-min 2 --shards-max 4 \
      --sched mixed --persist mixed --visibility mixed --jobs "$fuzz_jobs"
    ;;
  --bench-smoke)
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== bench-smoke: every E-binary, tiny parameters ($dir) =="
    stage_build "$dir" "$build_type"
    stage_bench_smoke "$dir"
    ;;
  --bench-detect-smoke)
    dir="${DETECT_BUILD_DIR:-build-$build_type}-perf"
    echo "== bench-detect-smoke: perf/bench_detect build + smoke test ($dir) =="
    cmake -S perf -B "$dir" -DCMAKE_BUILD_TYPE="$build_type" \
      ${configure_flags[@]+"${configure_flags[@]}"} >/dev/null
    cmake --build "$dir" --target bench_detect -j "$jobs"
    ctest --test-dir "$dir" --output-on-failure -R bench_detect_smoke
    ;;
  --tsan)
    dir="${DETECT_BUILD_DIR:-build-tsan}"
    echo "== tsan: ThreadSanitizer build of the threaded suites ($dir) =="
    # TSan aborts a child that starts threads after a multi-threaded fork,
    # so the two fork tests stay out of this stage (the other stages run
    # them).
    no_fork='-task_pool.forked_child_gets_a_fresh_shared_pool'
    no_fork+=':pool_threads.replay_never_wakes_the_pool'
    suites=(executor_test api_test engine_test check_parallel_test
            serve_test task_pool_test)
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Tsan \
      ${configure_flags[@]+"${configure_flags[@]}"} >/dev/null
    cmake --build "$dir" --target "${suites[@]}" -j "$jobs"
    # Each suite runs under peak_rss.py, which prints its peak RSS: TSan's
    # shadow memory makes loops of replays grow by gigabytes.
    for t in "${suites[@]}"; do
      echo "== tsan: $t =="
      TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
        python3 scripts/peak_rss.py \
        "$dir/$t" --gtest_filter="$no_fork" --gtest_brief=1
    done
    ;;
  --serve-soak)
    sessions="${2:-32}"
    dir="${DETECT_BUILD_DIR:-build-$build_type}"
    echo "== serve-soak: $sessions sessions ($dir) =="
    stage_build "$dir" "$build_type"
    "$dir"/bench_serve --soak "$sessions" --json BENCH_serve.json
    ;;
  --fast|"")
    echo "== tier-1: RelWithDebInfo build + ctest =="
    stage_build build RelWithDebInfo
    stage_ctest build
    if [[ "${1:-}" == "--fast" ]]; then
      exit 0
    fi
    echo
    echo "== sanitize: ASan/UBSan build + ctest =="
    stage_build build-sanitize Sanitize
    stage_ctest build-sanitize
    ;;
  *)
    echo "usage: $0 [--fast | --quick | --fuzz N | --fuzz-sharded N | --fuzz-placement N | --fuzz-sched N | --fuzz-wmm N | --fuzz-deep N [--jobs J] | --bench-smoke | --bench-detect-smoke | --tsan | --serve-soak N]" >&2
    exit 2
    ;;
esac
