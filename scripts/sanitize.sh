#!/usr/bin/env bash
# Sanitizer CI pass (see ISSUE: CI/tooling satellite).
#
#   scripts/sanitize.sh [asan|tsan|all]
#
# asan: ASan+UBSan build, runs the simulator-core and device tests (the
#       allocation-free event calendar with its recycled bucket vectors,
#       and the packet-slab paths), the telemetry engine and report-merge
#       tests (the sparse flow-table index), the k=4 golden-trace suite
#       (every layer end to end on the fixed cells), and ShardEdgeTest,
#       whose sharded runs drive the calendar's out-of-order-seq lane sort
#       and its behind-the-frontier heap.
# tsan: TSan build, runs the parallel sweep-runner tests plus the
#       fault-injection suite (link flaps / PFC frame loss exercise the
#       injector from every sweep worker thread), the reconvergence /
#       fault-attribution suites (routing withdrawal callbacks fire inside
#       sweep workers), the misdiagnosis-hunter campaign (HuntCampaignTest:
#       batched trial evaluation through multi-threaded run_sweep), and the
#       sharded-simulator suites (ShardIdentity / ShardEdge /
#       ShardPool): intra-run parallel rounds drain per-shard calendars
#       on the calling thread and a persistent worker pool synchronised
#       only by a pair of atomics, exactly the data-race surface TSan
#       exists for. The golden-trace k=4 suite is deliberately NOT run
#       under TSan: it replays single deterministic simulations with no
#       cross-thread surface, and the plain ctest job already covers it.
#
# Each flavour builds into its own tree (build-asan/, build-tsan/) so the
# default build/ stays sanitizer-free.
set -euo pipefail
cd "$(dirname "$0")/.."

flavour="${1:-all}"

run_asan() {
  # UBSan only prints by default; make any report fail the pass.
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  cmake -B build-asan -S . -DHAWKEYE_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc)" \
        --target hawkeye_tests hawkeye_golden_test
  (cd build-asan && ctest --output-on-failure -j "$(nproc)" \
        -R 'SimulatorTest|InlineActionTest|CalendarTest|Switch|Host|Device|Network|FleetRunTest|FleetSignatureTest|ScenarioIoTest|HuntClassifyTest|TelemetryEngineTest|MergeReportTest|GoldenTrace|ShardEdgeTest')
}

run_tsan() {
  cmake -B build-tsan -S . -DHAWKEYE_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc)" \
        --target hawkeye_tests hawkeye_shard_identity_test
  (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
        -R 'SweepTest|FaultPlanTest|FaultInjectorTest|FaultRunnerTest|LinkFlapTest|PfcFrameFaultTest|TargetedRepollTest|SelfHealingTest|ReconvergenceTest|FaultAttributionTest|ConfidenceCurveTest|FleetPlanTest|FleetRunTest|CalibrationTest|ShardIdentity|ShardEdgeTest|ShardPoolTest|HuntCampaignTest')
}

case "$flavour" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
