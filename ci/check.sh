#!/usr/bin/env bash
# Full static-analysis + sanitizer gate. Configures three build trees:
#
#   build-check/plain  RelWithDebInfo, -Werror         (warning-clean gate)
#   build-check/asan   Debug, ASan + UBSan             (memory & UB gate)
#   build-check/tsan   Debug, TSan                     (data-race gate)
#
# builds each, runs the full ctest suite in each, and fails on any
# warning, test failure, or sanitizer report. Tool stages (lint,
# explain, profile, observability, concurrency) reuse the plain tree's
# binaries (observability additionally runs the ASan-tree profiler); the
# perfbench stage builds the benchmark's own tree under
# build-check/perfbench. Run from anywhere:
#
#   ci/check.sh              # everything
#   ci/check.sh plain        # just one tree (plain|asan|tsan)
#   ci/check.sh concurrency  # concurrency lint + -Wthread-safety build
#   ci/check.sh perfbench    # wall-clock benchmark self-test (sf 0.05)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${ROOT}/build-check"
JOBS="$(nproc 2>/dev/null || echo 4)"
ONLY="${1:-all}"

case "${ONLY}" in
  all|plain|asan|tsan|tidy|lint|explain|profile|observability|concurrency|perfbench) ;;
  *)
    echo "usage: ci/check.sh [all|plain|asan|tsan|tidy|lint|explain|profile|observability|concurrency|perfbench]" >&2
    echo "unknown tree '${ONLY}'" >&2
    exit 2
    ;;
esac

# Abort on the first sanitizer report and exit non-zero so ctest sees it.
export ASAN_OPTIONS="halt_on_error=1:abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
# detect_deadlocks turns on TSan's lock-order-inversion detector — the
# dynamic complement of the static lock-rank checker (which also runs in
# the Debug trees via common/lock_rank.h).
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:detect_deadlocks=1"

run_tree() {
  local name="$1"; shift
  echo "=== [${name}] configure ==="
  cmake -B "${OUT}/${name}" -S "${ROOT}" "$@" >/dev/null
  echo "=== [${name}] build ==="
  cmake --build "${OUT}/${name}" -j "${JOBS}"
  echo "=== [${name}] test ==="
  # Global 300s ceiling: a test that hangs (a loop that stopped polling
  # its cancellation token, a deadlocked wait) fails instead of stalling
  # CI; stress suites carry tighter per-test TIMEOUTs in tests/.
  ctest --test-dir "${OUT}/${name}" --output-on-failure -j "${JOBS}" \
    --timeout 300
}

if [[ "${ONLY}" == "all" || "${ONLY}" == "plain" ]]; then
  run_tree plain \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGRADOOP_WERROR=ON
fi

if [[ "${ONLY}" == "all" || "${ONLY}" == "asan" ]]; then
  # The ASan tree also runs with the partitioning and memory audits on:
  # every elided shuffle in the whole suite re-hashes its records and
  # aborts on the first one the compile-time analysis misplaced
  # (docs/partitioning.md), and every executed operator's measured peak
  # is checked against its static memory bound (docs/memory.md). The
  # batch engine's columnar kernels run under the sanitizers here too,
  # via batch_engine_test and the fuzz suite's batch ablation.
  GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 run_tree asan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DGRADOOP_ASAN=ON -DGRADOOP_UBSAN=ON
  # Cancellation audit (docs/cancellation.md): every LDBC and example
  # query runs twice on each engine — once with a cancel injected at a
  # randomized poll checkpoint (the unwind must surface GQL008, stay
  # within the plan's claimed checkpoint interval and drain the memory
  # accountant; the audit aborts otherwise) and once clean — under the
  # sanitizers.
  echo "=== [asan] injected-cancellation audit over LDBC + examples ==="
  cmake --build "${OUT}/asan" -j "${JOBS}" --target cypher_explain \
    >/dev/null
  # The batch engine runs at --batch-size 7, so a cancel can land
  # between many small batches of one operator, the Expand's output cuts
  # included.
  for engine in row batch; do
    size_args=()
    if [[ "${engine}" == "batch" ]]; then size_args=(--batch-size 7); fi
    GRADOOP_AUDIT_CANCELLATION=1 "${OUT}/asan/tools/cypher_explain" \
      --analyze --engine "${engine}" "${size_args[@]}" --ldbc >/dev/null
    GRADOOP_AUDIT_CANCELLATION=1 "${OUT}/asan/tools/cypher_explain" \
      --analyze --engine "${engine}" "${size_args[@]}" \
      "${ROOT}"/examples/queries/*.cypher >/dev/null
  done
  # The batch join kernels under the sanitizers with many small batches:
  # the build table addresses every entry as (batch, row), and each
  # elided shuffle re-hashes its rows against the placement hash.
  echo "=== [asan] batch engine at --batch-size 7 under the audits ==="
  GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 \
    "${OUT}/asan/tools/cypher_explain" --analyze --no-broadcast \
    --engine batch --batch-size 7 --ldbc \
    "${ROOT}"/examples/queries/*.cypher >/dev/null
  # One row per batch: every output batch of the Expand is cut after its
  # first row, and each hop's walk audits every routed bucket.
  echo "=== [asan] batch engine at --batch-size 1 under the audits ==="
  GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 \
    "${OUT}/asan/tools/cypher_explain" --analyze \
    --engine batch --batch-size 1 --ldbc \
    "${ROOT}"/examples/queries/*.cypher >/dev/null
fi

if [[ "${ONLY}" == "all" || "${ONLY}" == "tsan" ]]; then
  # The partitioning audit runs here too (not only in the ASan tree):
  # its counters are shared across concurrently-executing joins, so the
  # audit's own locking deserves the race detector as much as the
  # record placement deserves re-hashing.
  GRADOOP_AUDIT_PARTITIONING=1 run_tree tsan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DGRADOOP_TSAN=ON
  # Real queries under the race detector, not only unit tests: every
  # LDBC query runs through both engines, so the parallel exchange, the
  # join kernels and the pool's caller-runs protocol meet real data.
  echo "=== [tsan] cypher_explain --analyze over LDBC, both engines ==="
  cmake --build "${OUT}/tsan" -j "${JOBS}" --target cypher_explain \
    >/dev/null
  for engine in row batch; do
    GRADOOP_AUDIT_PARTITIONING=1 "${OUT}/tsan/tools/cypher_explain" \
      --analyze --engine "${engine}" --ldbc >/dev/null
  done
  # The scatter and adopt paths under the race detector with many small
  # batches: every join repartitions, each routing task scatters with its
  # own copy of the placement and adopted sides are re-audited row by row.
  # (The runs above cover the broadcast build side: one chain of batches
  # read in place by every partition task at once.)
  echo "=== [tsan] batch engine at --batch-size 7 without broadcasts ==="
  GRADOOP_AUDIT_PARTITIONING=1 "${OUT}/tsan/tools/cypher_explain" \
    --analyze --no-broadcast --engine batch --batch-size 7 --ldbc \
    "${ROOT}"/examples/queries/*.cypher >/dev/null
fi

# Query lint stage: run the semantic analyzer over every query the repo
# ships (the LDBC benchmark set and the example corpus) and fail on any
# error-severity diagnostic. Reuses the plain tree's cypher_lint binary.
if [[ "${ONLY}" == "all" || "${ONLY}" == "lint" ]]; then
  echo "=== [lint] cypher_lint over LDBC + example queries ==="
  if [[ ! -x "${OUT}/plain/tools/cypher_lint" ]]; then
    cmake -B "${OUT}/plain" -S "${ROOT}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRADOOP_WERROR=ON >/dev/null
    cmake --build "${OUT}/plain" -j "${JOBS}" --target cypher_lint
  fi
  "${OUT}/plain/tools/cypher_lint" --ldbc "${ROOT}"/examples/queries/*.cypher
  # Exit-code contract for --werror: a warnings-only query passes the
  # default lint (exit 0) and fails the strict one (exit 1), so CI
  # configurations can rely on the escalation actually escalating.
  WARN_ONLY_QUERY="MATCH (a) WHERE 1 = 1 RETURN a"
  "${OUT}/plain/tools/cypher_lint" -q "${WARN_ONLY_QUERY}" >/dev/null
  if "${OUT}/plain/tools/cypher_lint" --werror -q "${WARN_ONLY_QUERY}" \
      >/dev/null 2>&1
  then
    echo "cypher_lint: --werror must fail a warnings-only query" >&2
    exit 1
  fi
fi

# Plan-compilation stage: lower every shipped query through the full
# planner + PlanCompiler + compiled-plan verifier (EXPLAIN, no
# execution) and fail if any plan does not compile. Reuses the plain
# tree's cypher_explain binary.
if [[ "${ONLY}" == "all" || "${ONLY}" == "explain" ]]; then
  echo "=== [explain] cypher_explain over LDBC + example queries ==="
  if [[ ! -x "${OUT}/plain/tools/cypher_explain" ]]; then
    cmake -B "${OUT}/plain" -S "${ROOT}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRADOOP_WERROR=ON >/dev/null
    cmake --build "${OUT}/plain" -j "${JOBS}" --target cypher_explain
  fi
  "${OUT}/plain/tools/cypher_explain" --ldbc \
    "${ROOT}"/examples/queries/*.cypher >/dev/null
  # Exit-code contract: an uncompilable query must fail the tool (and
  # its diagnostic must land on stderr, since stdout is discarded here).
  if "${OUT}/plain/tools/cypher_explain" -q "MATCH (a RETURN" >/dev/null 2>&1
  then
    echo "cypher_explain: expected non-zero exit for a broken query" >&2
    exit 1
  fi
  # Partitioning analysis: with broadcast joins disabled, at least one
  # shipped example plan must show a proven shuffle elision — a silent
  # regression of the analysis would otherwise keep this stage green.
  if ! "${OUT}/plain/tools/cypher_explain" --no-broadcast \
      "${ROOT}"/examples/queries/*.cypher | grep -q "shuffle=elided"
  then
    echo "cypher_explain: no example plan shows an elided shuffle" >&2
    exit 1
  fi
  # Memory analysis: every compiled operator carries a mem= bound; pin
  # one example EXPLAIN output so a rendering or annotation regression
  # cannot slip through silently (docs/memory.md).
  if ! "${OUT}/plain/tools/cypher_explain" \
      "${ROOT}/examples/queries/quickstart.cypher" \
      | grep -q "mem="
  then
    echo "cypher_explain: example plan is missing mem= annotations" >&2
    exit 1
  fi
  # Batch engine (docs/vectorized.md): EXPLAIN renders the batch size
  # the kernels build to on every operator as batch=<n>; pin one example
  # EXPLAIN so a rendering regression cannot slip through silently, and
  # pin that --batch-size flows from the options into the rendering.
  if ! "${OUT}/plain/tools/cypher_explain" --engine batch \
      "${ROOT}/examples/queries/quickstart.cypher" \
      | grep -q "batch="
  then
    echo "cypher_explain: example plan is missing batch= annotations" >&2
    exit 1
  fi
  if ! "${OUT}/plain/tools/cypher_explain" --engine batch --batch-size 7 \
      "${ROOT}/examples/queries/quickstart.cypher" \
      | grep -q "batch=7"
  then
    echo "cypher_explain: --batch-size 7 does not render as batch=7" >&2
    exit 1
  fi
  # ...and the elisions must survive their runtime audit: execute the
  # LDBC set and the example corpus with every elided shuffle re-hashed
  # record-by-record (the audit aborts the process on a misplaced one).
  # The memory audit rides along, checking measured per-operator peaks
  # against the static bounds over the same corpus. Both engines run
  # under the audits — the batch kernels' scatter placement and memory
  # accounting honor the same claims the row engine is held to.
  for engine in row batch; do
    GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 \
      "${OUT}/plain/tools/cypher_explain" \
      --analyze --no-broadcast --engine "${engine}" --ldbc >/dev/null
    GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 \
      "${OUT}/plain/tools/cypher_explain" \
      --analyze --no-broadcast --engine "${engine}" \
      "${ROOT}"/examples/queries/*.cypher >/dev/null
  done
  # Many small batches: the batch join's build table addresses entries as
  # (batch, row), and the partitioning audit re-checks the kernels'
  # placement hash against the row engine's on every elided shuffle.
  GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 \
    "${OUT}/plain/tools/cypher_explain" \
    --analyze --no-broadcast --engine batch --batch-size 7 --ldbc \
    "${ROOT}"/examples/queries/*.cypher >/dev/null
fi

# Telemetry stage: profile two LDBC queries with the engine's tracing
# enabled and check both emitted artifacts. cypher_profile already
# schema-validates its own output (well-formed JSON, non-empty spans,
# monotonic timestamps) and exits non-zero on any violation; the stage
# additionally asserts the files actually landed on disk non-empty.
if [[ "${ONLY}" == "all" || "${ONLY}" == "profile" ]]; then
  echo "=== [profile] cypher_profile over LDBC Q1 + Q4 ==="
  if [[ ! -x "${OUT}/plain/tools/cypher_profile" ]]; then
    cmake -B "${OUT}/plain" -S "${ROOT}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRADOOP_WERROR=ON >/dev/null
    cmake --build "${OUT}/plain" -j "${JOBS}" --target cypher_profile
  fi
  PROFILE_DIR="${OUT}/profile-artifacts"
  mkdir -p "${PROFILE_DIR}"
  "${OUT}/plain/tools/cypher_profile" --ldbc-q 1 --ldbc-q 4 \
    --out "${PROFILE_DIR}"
  for artifact in TRACE_ldbc_Q1 PROFILE_ldbc_Q1 TRACE_ldbc_Q4 \
                  PROFILE_ldbc_Q4; do
    if [[ ! -s "${PROFILE_DIR}/${artifact}.json" ]]; then
      echo "cypher_profile: missing or empty ${artifact}.json" >&2
      exit 1
    fi
  done
fi

# Observability stage (docs/observability.md): exercise the flight
# recorder and query log over the LDBC corpus under ASan with the
# partitioning/memory audits on (cypher_profile schema-validates the
# recorder export and every JSONL line before exiting), pin the plan-
# quality annotations in EXPLAIN ANALYZE for both engines, and gate a
# fresh bench_ldbc_queries run against the committed baseline with
# cypher_stats --baseline (matches exact; modeled fields within
# tolerance; wall clock reported, never gated), and smoke-run
# bench_overheads.
if [[ "${ONLY}" == "all" || "${ONLY}" == "observability" ]]; then
  echo "=== [observability] flight recorder + query log under ASan ==="
  # Always reconfigure + rebuild the targets — both are incremental, so
  # an up-to-date tree costs seconds, but a stale tree (configured
  # before a target existed, or holding binaries from an earlier
  # checkout) can never run against current sources.
  cmake -B "${OUT}/asan" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DGRADOOP_ASAN=ON -DGRADOOP_UBSAN=ON >/dev/null
  cmake --build "${OUT}/asan" -j "${JOBS}" --target cypher_profile \
    >/dev/null
  OBS_DIR="${OUT}/observability-artifacts"
  mkdir -p "${OBS_DIR}"
  rm -f "${OBS_DIR}/query_log.jsonl"
  GRADOOP_AUDIT_PARTITIONING=1 GRADOOP_AUDIT_MEMORY=1 \
    "${OUT}/asan/tools/cypher_profile" --ldbc \
    --flight-recorder "${OBS_DIR}/flight_recorder.json" \
    --query-log "${OBS_DIR}/query_log.jsonl" --slow-ms 10000 \
    --out "${OBS_DIR}" >/dev/null
  for artifact in flight_recorder.json query_log.jsonl; do
    if [[ ! -s "${OBS_DIR}/${artifact}" ]]; then
      echo "cypher_profile: missing or empty ${artifact}" >&2
      exit 1
    fi
  done

  echo "=== [observability] qerror= plan annotations, both engines ==="
  cmake -B "${OUT}/plain" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRADOOP_WERROR=ON >/dev/null
  cmake --build "${OUT}/plain" -j "${JOBS}" \
    --target cypher_explain cypher_stats bench_ldbc_queries \
    bench_vectorized_kernels bench_overheads concurrency_lint >/dev/null
  # Every executed operator must carry qerror= and sel= in EXPLAIN
  # ANALYZE on both engines — the per-plan face of the telemetry.
  for engine in row batch; do
    ANALYZE="$("${OUT}/plain/tools/cypher_explain" --analyze \
      --engine "${engine}" --ldbc)"
    for annotation in "qerror=" "sel="; do
      plan_lines="$(printf '%s\n' "${ANALYZE}" | grep -c "rows=")"
      annotated="$(printf '%s\n' "${ANALYZE}" | grep -c "${annotation}")"
      if [[ "${plan_lines}" -eq 0 || "${plan_lines}" -ne "${annotated}" ]]
      then
        echo "cypher_explain: ${engine} engine has ${annotated}/${plan_lines} operators with ${annotation}" >&2
        exit 1
      fi
    done
  done

  echo "=== [observability] cypher_stats baseline gate ==="
  (cd "${OBS_DIR}" && "${OUT}/plain/bench/bench_ldbc_queries" >/dev/null)
  "${OUT}/plain/tools/cypher_stats" --baseline \
    "${ROOT}/bench/baselines/BENCH_ldbc_queries.json" \
    "${OBS_DIR}/BENCH_ldbc_queries.json"
  # The vectorized-kernel benchmark is gated the same way: matches are
  # exact, modeled fields within tolerance, wall clock never gated.
  (cd "${OBS_DIR}" && "${OUT}/plain/bench/bench_vectorized_kernels" \
    >/dev/null)
  "${OUT}/plain/tools/cypher_stats" --baseline \
    "${ROOT}/bench/baselines/BENCH_vectorized_kernels.json" \
    "${OBS_DIR}/BENCH_vectorized_kernels.json"
  # The aggregate report must render from the run's own artifacts.
  "${OUT}/plain/tools/cypher_stats" \
    "${OBS_DIR}/flight_recorder.json" \
    "${OBS_DIR}/BENCH_ldbc_queries.json" | grep -q "worst misestimates"

  echo "=== [observability] bench_overheads smoke at sf 0.05 ==="
  # Every overhead row must land in the artifact (ratios are reported,
  # never gated), and a malformed scale factor must fail instead of
  # silently running at sf 0.
  rm -f "${OBS_DIR}/BENCH_overheads.json"
  (cd "${OBS_DIR}" && GRADOOP_BENCH_SF=0.05 \
    "${OUT}/plain/bench/bench_overheads" >/dev/null)
  for overhead in telemetry memory_accounting cancellation lock_rank \
                  pool_dispatch join_build_probe batches_to_rows \
                  value_join_key expand_hop root_finish leaf_scan; do
    if ! grep -q "\"overhead\": \"${overhead}\"" \
      "${OBS_DIR}/BENCH_overheads.json"; then
      echo "bench_overheads: no ${overhead} record" >&2
      exit 1
    fi
  done
  if (cd "${OBS_DIR}" && GRADOOP_BENCH_SF=abc \
    "${OUT}/plain/bench/bench_overheads" >/dev/null 2>&1); then
    echo "bench_overheads: GRADOOP_BENCH_SF=abc was accepted" >&2
    exit 1
  fi

  echo "=== [observability] concurrency_lint over src/telemetry ==="
  "${OUT}/plain/tools/concurrency_lint" --root "${ROOT}" src/telemetry
fi

# Concurrency stage (docs/concurrency.md): source-level lint over the
# whole engine plus, where the toolchain has clang, an engine-wide
# -Wthread-safety -Werror verification build and a negative compile
# check proving the GUARDED_BY machinery rejects unguarded access.
if [[ "${ONLY}" == "all" || "${ONLY}" == "concurrency" ]]; then
  echo "=== [concurrency] concurrency_lint over src/ ==="
  if [[ ! -x "${OUT}/plain/tools/concurrency_lint" ]]; then
    cmake -B "${OUT}/plain" -S "${ROOT}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRADOOP_WERROR=ON >/dev/null
    cmake --build "${OUT}/plain" -j "${JOBS}" --target concurrency_lint
  fi
  "${OUT}/plain/tools/concurrency_lint" --root "${ROOT}" src
  # Exit-code contract, mirroring the cypher_lint --werror test: each
  # seeded-violation fixture must fail the gate (a lint that silently
  # stops matching would otherwise keep this stage green forever), and
  # the clean fixture must keep passing.
  for fixture in raw_mutex unguarded_atomic detached_thread \
                 unjustified_escape shared_mutex scoped_lock \
                 unpolled_loop undeadlined_wait; do
    if "${OUT}/plain/tools/concurrency_lint" --root "${ROOT}" \
        "tests/concurrency_lint_fixtures/${fixture}.cc" >/dev/null 2>&1
    then
      echo "concurrency_lint: seeded violation ${fixture}.cc must fail" >&2
      exit 1
    fi
  done
  "${OUT}/plain/tools/concurrency_lint" --root "${ROOT}" \
    tests/concurrency_lint_fixtures/clean.cc >/dev/null

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== [concurrency] clang -Wthread-safety verification build ==="
    cmake -B "${OUT}/thread-safety" -S "${ROOT}" \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGRADOOP_WERROR=ON >/dev/null
    cmake --build "${OUT}/thread-safety" -j "${JOBS}"
    # Positive control first (the fixture is a correct TU without the
    # seed macro), so a failure below can only mean the seeded bug.
    clang++ -fsyntax-only -std=c++20 -Wthread-safety -Werror \
      -I"${ROOT}/src" "${ROOT}/tests/compile_fail/guarded_by_violation.cc"
    if clang++ -fsyntax-only -std=c++20 -Wthread-safety -Werror \
        -DGRADOOP_EXPECT_THREAD_SAFETY_ERROR \
        -I"${ROOT}/src" "${ROOT}/tests/compile_fail/guarded_by_violation.cc" \
        2>/dev/null
    then
      echo "thread-safety: unguarded GUARDED_BY access must not compile" >&2
      exit 1
    fi
  else
    echo "=== [concurrency] clang++ not found, skipping -Wthread-safety verification build ==="
  fi
fi

# Benchmark self-test (perfbench/README.md): builds the wall-clock LDBC
# benchmark from this checkout and runs every workload once untraced and
# once traced at sf 0.05, so an engine change cannot break the
# benchmark's build, its metric set or its pinned correctness check
# (match counts and cross-engine result hashes) unnoticed.
if [[ "${ONLY}" == "all" || "${ONLY}" == "perfbench" ]]; then
  echo "=== [perfbench] wall-clock benchmark self-test ==="
  CARGO_TARGET_DIR="${OUT}/perfbench" python3 "${ROOT}/perfbench/selftest.py"
fi

# Optional lint stage: the sanitizer gates above are mandatory, clang-tidy
# runs only where the toolchain provides it.
if [[ "${ONLY}" == "all" || "${ONLY}" == "tidy" ]]; then
  if command -v run-clang-tidy >/dev/null 2>&1; then
    echo "=== [tidy] clang-tidy ==="
    cmake -B "${OUT}/plain" -S "${ROOT}" \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    run-clang-tidy -quiet -p "${OUT}/plain" "${ROOT}/src/"
  else
    echo "=== [tidy] clang-tidy not found, skipping lint stage ==="
  fi
fi

echo "=== all checks passed ==="
