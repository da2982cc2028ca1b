// Fleet-ops fault-class matrix: signature-level diagnosis of the silent
// failure modes a fleet operator actually chases — degraded (CRC-erroring)
// cables, mis-negotiated link speeds, host-side PCIe drain bottlenecks and
// oversubscribed down-link tiers — across traffic patterns and injected
// severities.
//
// Matrix axes:
//   class    — the four fleet fault classes (one Table-2 signature row
//              each; see DESIGN.md §13)
//   workload — crafted §4.1 shape, RPC client/server mesh, all-to-all
//              shuffle (net_sanitizer's application patterns)
//   severity — scales the injected defect (RunConfig::fleet_severity):
//              milder and harsher than each scenario's default
//
// Each run is scored against the scenario's fault truth by the shared
// verdict ledger (eval::VerdictTally):
//   correct       — the class's own verdict, localized to the sick
//                   component (the erroring link / slow port / drain-bound
//                   NIC / reduced tier)
//   degraded      — wrong/missing verdict explicitly flagged degraded
//                   (the fault also ate telemetry, and collection said so)
//   misclassified — wrong verdict at full confidence
//   missed        — no verdict at all, nothing flagged
// The ledger's fault_attributed bucket (wrong/missing while a data-plane
// fault fired on the victim's path) is no excuse here: the class's own
// defect — CRC drops, rate limiting, drain delay on the victim's route —
// is exactly such a fault, so every wrong run would otherwise be excused.
//
// Acceptance bar (exit 1 on violation): ZERO silently-wrong verdicts —
// misclassified + missed + fault_attributed (VerdictTally::unflagged) must
// be zero in every cell, at every severity.
// Results go to BENCH_fleetfaults.json (HAWKEYE_BENCH_JSON overrides).
//
// `--smoke` shrinks the grid for CI: one seed, default severity only.
#include <cstring>

#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

const std::vector<diagnosis::AnomalyType>& fleet_classes() {
  static const std::vector<diagnosis::AnomalyType> kClasses = {
      diagnosis::AnomalyType::kDegradedLink,
      diagnosis::AnomalyType::kLinkSpeedMismatch,
      diagnosis::AnomalyType::kHostPcieBottleneck,
      diagnosis::AnomalyType::kOversubscribedDownlink,
  };
  return kClasses;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("Fleet-ops fault classes",
               "signature-level diagnosis of silent fleet failures");
  const int n = smoke ? 1 : seeds_per_point();

  const std::vector<workload::FleetWorkload> workloads = {
      workload::FleetWorkload::kCrafted,
      workload::FleetWorkload::kRpcClientServer,
      workload::FleetWorkload::kAllToAll,
  };
  const std::vector<double> severities =
      smoke ? std::vector<double>{1.0} : std::vector<double>{0.5, 1.0, 2.0};

  std::vector<JsonObject> rows;
  int silent_total = 0;

  for (const double sev : severities) {
    std::printf("\n--- severity x%g ---\n", sev);
    std::printf("%-26s %-11s %-8s %-9s %-14s %-7s %-11s\n", "class",
                "workload", "correct", "degraded", "misclassified", "missed",
                "confidence");
    for (const auto type : fleet_classes()) {
      for (const auto w : workloads) {
        eval::RunConfig cfg;
        cfg.scenario = type;
        cfg.fleet_workload = w;
        cfg.fleet_severity = sev;
        const std::vector<eval::RunResult> runs =
            eval::run_sweep(eval::seed_sweep(cfg, n));
        const eval::VerdictTally v = tally(runs);
        const double confidence = mean(runs, &eval::RunResult::confidence);
        std::printf("%-26s %-11s %-8d %-9d %-14d %-7d %-11.2f\n",
                    runs.back().scenario_name.c_str(),
                    std::string(workload::to_string(w)).c_str(), v.correct,
                    v.degraded, v.misclassified, v.missed, confidence);
        silent_total += v.unflagged();
        JsonObject row;
        row.str("class", diagnosis::to_string(type))
            .str("workload", workload::to_string(w))
            .num("severity", sev);
        add_verdicts(row, v)
            .num("avg_confidence", confidence)
            .num("avg_coverage",
                 mean(runs, &eval::RunResult::collection_coverage))
            .num("avg_crc_drops", mean(runs, &eval::RunResult::crc_drops))
            .num("avg_retransmissions",
                 mean(runs, &eval::RunResult::retransmissions))
            .num("avg_rate_limited",
                 mean(runs, &eval::RunResult::rate_limited_pkts))
            .num("avg_drain_delayed",
                 mean(runs, &eval::RunResult::host_drain_delayed));
        rows.push_back(row);
      }
    }
  }

  JsonObject doc;
  doc.str("bench", "fleet_faults")
      .num("seeds_per_point", n)
      .rows("cells", rows);
  const bool wrote =
      write_bench_json(bench_json_path("BENCH_fleetfaults.json"), doc);
  const int rc = zero_silent_gate(silent_total);
  return wrote ? rc : 1;
}
