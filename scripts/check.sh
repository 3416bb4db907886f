#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the concurrent runtime:
# a ThreadSanitizer pass (data races — including the chaos harness) and
# an ASan+UBSan pass (memory errors / undefined behavior), a standalone
# UBSan pass (UB without ASan interposition), a crash-recovery chaos pass
# (randomized kill points) under ASan, a replicated-node kill/promotion
# chaos pass under ASan, a self-healing failover pass (fencing epochs,
# elections, catch-up) under ASan, a network front-door pass (epoll
# server, wire codec, socket replication chaos) under TSan and ASan,
# a deterministic fuzz smoke over the serde + wire-frame decoders, and
# the end-to-end benchmark's own tests.
# Usage: scripts/check.sh
#   [release|tsan|asan|ubsan|chaos|recovery|replication|failover|net|bench|
#    fuzz|perfbench|all]
# (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

san_targets=(runtime_test session_test sws_run_test fault_test chaos_test
             persistence_test crash_recovery_test governor_test serde_fuzz
             replication_test node_chaos_test failover_test relational_test
             query_engine_test net_test fo_compile_test sharing_test)

run_release() {
  echo "== Release build + full ctest =="
  cmake --preset release
  cmake --build --preset release -j "$jobs"
  ctest --preset release -j "$jobs"
}

run_tsan() {
  echo "== TSan build + concurrency-sensitive tests =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target "${san_targets[@]}"
  # halt_on_error: a data race fails the suite instead of just logging.
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -j 1
}

run_asan() {
  echo "== ASan+UBSan build + concurrency-sensitive tests =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${san_targets[@]}"
  ASAN_OPTIONS="halt_on_error=1" ctest --preset asan -j 1
}

run_ubsan() {
  echo "== Standalone UBSan build + concurrency-sensitive tests =="
  cmake --preset ubsan
  cmake --build --preset ubsan -j "$jobs" --target "${san_targets[@]}"
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --preset ubsan -j 1
}

run_fuzz() {
  echo "== Deterministic fuzz smoke over the serde decoders =="
  cmake --preset release
  cmake --build --preset release -j "$jobs" --target serde_fuzz
  ctest --test-dir build -L fuzz --output-on-failure -j 1
}

run_bench() {
  echo "== Query-engine benchmarks vs checked-in baseline =="
  cmake --preset release
  cmake --build --preset release -j "$jobs" --target bench_query_engine \
    bench_interning bench_persistence
  ./build/bench/bench_query_engine --benchmark_min_time=0.05 \
    --benchmark_repetitions=5 --benchmark_format=json \
    > /tmp/bench_query_engine.fresh.json
  # The naive/raw-tree reference evaluators are exponential-cost and
  # scheduler-bound; their run-to-run noise on the 1-CPU host exceeds
  # 25%, so the broad diff gates loosely. The hot path is gated tightly
  # below.
  python3 scripts/bench_diff.py BENCH_query_engine.json \
    /tmp/bench_query_engine.fresh.json --threshold 0.75
  # Gate specifically on the chain-join hot path: these are the numbers
  # the bytecode executor exists for, so a regression here fails check.
  python3 scripts/bench_diff.py BENCH_query_engine.json \
    /tmp/bench_query_engine.fresh.json --filter 'BM_CqChainJoin' \
    --threshold 0.25
  # Gate the catalog-size independence of a service run the same way: a
  # run that starts copying or re-indexing D again fails here.
  python3 scripts/bench_diff.py BENCH_query_engine.json \
    /tmp/bench_query_engine.fresh.json --filter 'BM_UcqCatalogScaling' \
    --threshold 0.25
  echo "== Interning/columnar microbenchmarks vs checked-in baseline =="
  ./build/bench/bench_interning --benchmark_min_time=0.05 \
    --benchmark_format=json > /tmp/bench_interning.fresh.json
  python3 scripts/bench_diff.py BENCH_interning.json \
    /tmp/bench_interning.fresh.json
  echo "== Durability benchmarks vs checked-in baseline =="
  ./build/bench/bench_persistence --benchmark_min_time=0.05 \
    --benchmark_format=json > /tmp/bench_persistence.fresh.json
  # fsync timing is at the mercy of the host's storage stack; allow 2x.
  python3 scripts/bench_diff.py BENCH_persistence.json \
    /tmp/bench_persistence.fresh.json --threshold 1.0
  echo "== Replication benchmarks vs checked-in baseline =="
  cmake --build --preset release -j "$jobs" --target bench_replication
  ./build/bench/bench_replication --benchmark_min_time=0.05 \
    --benchmark_format=json > /tmp/bench_replication.fresh.json
  # Barrier latency is scheduler-bound on a 1-CPU host; allow 2x.
  python3 scripts/bench_diff.py BENCH_replication.json \
    /tmp/bench_replication.fresh.json --threshold 1.0
  echo "== Front-door benchmarks vs checked-in baseline =="
  cmake --build --preset release -j "$jobs" --target bench_net
  ./build/bench/bench_net --benchmark_min_time=0.05 \
    --benchmark_format=json > /tmp/bench_net.fresh.json
  # Loopback RTT on a loaded 1-CPU host is scheduler-bound; allow 2x.
  python3 scripts/bench_diff.py BENCH_net.json \
    /tmp/bench_net.fresh.json --threshold 1.0
}

run_perfbench() {
  echo "== End-to-end benchmark: seeded inputs and oracle self-tests =="
  # Builds perfbench/ (into $CARGO_TARGET_DIR, default .bench_build) and
  # checks that inputs are seed-determined and a broken oracle fails.
  python3 perfbench/test_perfbench.py
}

run_recovery() {
  echo "== Crash-recovery chaos harness (randomized kill points) under ASan =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target crash_recovery_test \
    persistence_test
  ASAN_OPTIONS="halt_on_error=1" ctest --test-dir build-asan -L recovery \
    --output-on-failure -j 1
}

run_replication() {
  echo "== Replicated-node kill/promotion chaos under ASan =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target replication_test \
    node_chaos_test
  ASAN_OPTIONS="halt_on_error=1" ctest --test-dir build-asan -L replication \
    --output-on-failure -j 1
}

run_failover() {
  echo "== Self-healing failover (fencing, elections, catch-up) under ASan =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target failover_test \
    replication_test
  ASAN_OPTIONS="halt_on_error=1" ctest --test-dir build-asan -L failover \
    --output-on-failure -j 1
}

run_net() {
  echo "== Network front door (epoll server + wire codec) under TSan =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target net_test
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan -L net \
    --output-on-failure -j 1
  echo "== Network front door + socket replication chaos under ASan =="
  # detect_leaks catches FD-adjacent heap leaks from the drain/shutdown
  # ordering (connections alive at Stop()); node_chaos_test's socket
  # sweeps run here too so sever/garble chaos gets a memory gate.
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target net_test node_chaos_test \
    serde_fuzz
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" ctest --test-dir build-asan \
    -L net --output-on-failure -j 1
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" ctest --test-dir build-asan \
    -R 'SocketNodeChaosTest|Wire' --output-on-failure -j 1
}

run_chaos() {
  echo "== Chaos harness (randomized faults) under TSan =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target chaos_test
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan -L chaos \
    --output-on-failure -j 1
}

case "$mode" in
  release) run_release ;;
  tsan) run_tsan ;;
  asan) run_asan ;;
  ubsan) run_ubsan ;;
  chaos) run_chaos ;;
  recovery) run_recovery ;;
  replication) run_replication ;;
  failover) run_failover ;;
  net) run_net ;;
  bench) run_bench ;;
  fuzz) run_fuzz ;;
  perfbench) run_perfbench ;;
  all) run_release; run_tsan; run_asan; run_ubsan ;;
  *) echo "usage: $0 [release|tsan|asan|ubsan|chaos|recovery|replication|failover|net|bench|fuzz|perfbench|all]" >&2
     exit 2 ;;
esac
echo "== check.sh ($mode): OK =="
