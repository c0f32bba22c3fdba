#!/usr/bin/env bash
# One-command CI gate: tier-1 configure + build + full ctest, the
# repository benchmark's self-test, the quick preset, and the
# sanitizer-safe suites under ASan. Exits nonzero on the
# first failure. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: configure + build (preset: default) =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

echo "== tier-1: full test suite =="
ctest --preset default -j "$(nproc)"

# Quantum preemption (100 us) through the owned context switch: the soak
# must hold its exact ledger ten runs in a row.
echo "== preemption soak (10 consecutive runs) =="
ctest --preset default -R PreemptionSoak --repeat until-fail:10

# Listener -> worker hand-off under the parked handshake: pings and invoke
# children at the park/push race edge must never wait out the idle cap,
# ten runs in a row.
echo "== hand-off lost-wake test (10 consecutive runs) =="
ctest --preset default -R HandOff --repeat until-fail:10

# The repository benchmark compiles perfbench/pbench.cpp against
# dispatcher.hpp, runtime.hpp and sandbox.hpp; its self-test turns an
# incompatible header change into a CI failure here.
echo "== repository benchmark self-test (perfbench, ~2 min) =="
python3 perfbench/selftest.py

echo "== quick preset =="
ctest --preset quick -j "$(nproc)"

# Smoke stages write their records under build/, so the checked-in
# full-run BENCH_*.json files are never overwritten by smoke-scale numbers.
echo "== listener saturation bench (smoke) =="
SLEDGE_BENCH_OUT=build/BENCH_listener.smoke.json \
  ./build/bench/bench_ping_concurrency --smoke

echo "== invoke dataplane bench (smoke: shm p50 must beat copy p50) =="
SLEDGE_BENCH_OUT=build/BENCH_invoke.smoke.json ./build/bench/bench_invoke --smoke

echo "== churn bench (smoke: pooled p50 < cold p50) =="
SLEDGE_BENCH_OUT=build/BENCH_churn.smoke.json ./build/bench/bench_churn --smoke

echo "== footprint bench (smoke: VmRSS flat from 10k to 110k requests) =="
./build/bench/bench_footprint --smoke

echo "== asan: configure + build + sanitizer-safe tests =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan -j "$(nproc)"

echo "== tsan: io event-loop tests (cross-thread wakeups) =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target io_loop_test
ctest --preset tsan-io -j "$(nproc)"

echo "== tsan: dispatcher/admission soak (concurrent push/inject/fetch) =="
cmake --build --preset tsan -j "$(nproc)" --target admission_test
ctest --preset tsan-dispatch -j "$(nproc)"

echo "== tsan: multi-shard listener soak (REUSEPORT shards, worker hand-back, stats plane) =="
cmake --build --preset tsan -j "$(nproc)" --target listener_soak_test http_test
ctest --preset tsan-listener -j "$(nproc)"

echo "== tsan: invoke dataplane soak (transfer pool + hinted injection) =="
cmake --build --preset tsan -j "$(nproc)" --target invoke_soak_test
ctest --preset tsan-invoke -j "$(nproc)"

echo "== tsan: resource-pool soak (concurrent sandbox create/destroy) =="
cmake --build --preset tsan -j "$(nproc)" --target pool_test
ctest --preset tsan -R '^PoolTest\.' -j "$(nproc)"

echo "== tsan: module-metrics soak (lock-free records vs concurrent scrapes) =="
cmake --build --preset tsan -j "$(nproc)" --target stats_soak_test
ctest --preset tsan-stats -j "$(nproc)"

echo "== all checks passed =="
