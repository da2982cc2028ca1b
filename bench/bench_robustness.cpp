// Robustness sweep: diagnosis accuracy vs collection-pipeline fault rate.
//
// The fault-injection substrate drops each polling packet (and causality
// clone) with probability p at every switch; the self-healing pipeline
// (re-poll with capped exponential backoff, coverage tracking) has to
// recover. Each run is classified by the shared verdict ledger
// (eval::VerdictTally): correct, degraded (wrong/missing but flagged — the
// operator knows not to trust it), or silently wrong (misclassified at
// full confidence, or missed without a flag). Polling loss is not a
// data-plane fault, so fault_attributed stays 0 here.
//
// The acceptance bar (exit code 1 on violation): NO silently-wrong
// verdicts at any drop rate. Results go to BENCH_robustness.json
// (HAWKEYE_BENCH_JSON overrides) as the accuracy-degradation curve tracked
// across PRs.
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main() {
  print_header("Robustness", "diagnosis accuracy vs polling-loss rate");
  const int n = seeds_per_point();
  const double rates[] = {0.0, 0.05, 0.10, 0.20, 0.30};

  // One table row: the cell's (or the rate's TOTAL) verdicts and averages.
  const auto print_row = [](const std::string& name,
                            const std::vector<eval::RunResult>& runs) {
    const eval::VerdictTally v = tally(runs);
    std::printf("%-26s %-8d %-9d %-14d %-7d %-9.2f %-11.2f %-8.2f\n",
                name.c_str(), v.correct, v.degraded, v.misclassified, v.missed,
                mean(runs, &eval::RunResult::collection_coverage),
                mean(runs, &eval::RunResult::confidence),
                mean(runs, &eval::RunResult::repolls));
    return v;
  };

  std::vector<JsonObject> rows;
  int silent = 0;
  for (const double rate : rates) {
    std::printf("\n--- polling drop rate %.0f%% ---\n", rate * 100);
    std::printf("%-26s %-8s %-9s %-14s %-7s %-9s %-11s %-8s\n", "scenario",
                "correct", "degraded", "misclassified", "missed", "coverage",
                "confidence", "repolls");
    std::vector<eval::RunResult> all;
    for (const auto type : all_anomalies()) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      if (rate > 0) {
        cfg.faults = fault::FaultPlan::uniform_poll_loss(rate, 1);
      }
      const std::vector<eval::RunResult> runs =
          eval::run_sweep(eval::seed_sweep(cfg, n));
      const std::string& name = runs.back().scenario_name;
      JsonObject row;
      row.num("drop_rate", rate).str("scenario", name);
      add_verdicts(row, print_row(name, runs))
          .num("avg_coverage",
               mean(runs, &eval::RunResult::collection_coverage))
          .num("avg_confidence", mean(runs, &eval::RunResult::confidence))
          .num("avg_repolls", mean(runs, &eval::RunResult::repolls))
          .num("avg_polling_drops",
               mean(runs, &eval::RunResult::polling_drops));
      rows.push_back(row);
      all.insert(all.end(), runs.begin(), runs.end());
    }
    silent += print_row("TOTAL", all).silent();
  }

  JsonObject doc;
  doc.str("bench", "robustness").num("seeds_per_point", n).rows("points", rows);
  const bool wrote = write_bench_json(bench_json_path("BENCH_robustness.json"),
                                      doc);
  const int rc = zero_silent_gate(silent);
  return wrote ? rc : 1;
}
