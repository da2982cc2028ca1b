// Path-churn diagnosis sweep (PR 4): accuracy vs link-flap rate with the
// routing layer frozen (hold-down 0, the pre-reconvergence behaviour) vs
// reconverging (50 us hold-down: flapped ports are withdrawn from ECMP
// after the dampening timer and restored after the link heals).
//
// Each flap train targets the victim's mid-path link (the runner binds the
// unbound placeholder spec), so the victim's route genuinely churns when
// reconvergence is on — the detection agent must re-derive expected-hop
// coverage across the reroute and the provenance/diagnosis layers must
// honour the collection contract of the churned path.
//
// Each run is classified by the shared, victim-path-aware verdict ledger
// (eval::VerdictTally): correct, degraded, fault_attributed (a flap
// genuinely bit the victim's forwarding path), or silently wrong
// (misclassified/missed) — which must NEVER happen.
//
// Acceptance bar (exit 1 on violation):
//   1. zero silently-wrong verdicts at every point, both modes;
//   2. reconvergence-enabled accuracy >= frozen accuracy at every flap
//      rate (withdrawing dead ports must not make diagnosis worse).
//
// Results go to BENCH_pathchurn.json (HAWKEYE_BENCH_JSON overrides).
// `--smoke` shrinks the grid for CI: one seed, one flap period.
#include <algorithm>
#include <cstring>

#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("Path churn", "diagnosis accuracy vs flap rate, frozen vs "
                             "reconverging routing");
  const int n = smoke ? 1 : seeds_per_point();
  const sim::Time holddown = sim::us(50);

  const std::vector<sim::Time> periods =
      smoke ? std::vector<sim::Time>{sim::us(500)}
            : std::vector<sim::Time>{sim::us(1000), sim::us(500), sim::us(250)};

  const auto churned = [](const std::vector<eval::RunResult>& runs) {
    return static_cast<int>(std::count_if(
        runs.begin(), runs.end(),
        [](const eval::RunResult& r) { return r.path_churned; }));
  };
  const auto print_row = [&churned](const std::string& name,
                                    const std::vector<eval::RunResult>& runs) {
    const eval::VerdictTally v = tally(runs);
    std::printf("%-26s %-8d %-9d %-12d %-8d %-7d %-9.2f %-8.1f\n",
                name.c_str(), v.correct, v.degraded, v.fault_attributed,
                v.silent(), churned(runs),
                mean(runs, &eval::RunResult::collection_coverage),
                mean(runs, &eval::RunResult::routing_epochs));
    return v;
  };

  std::vector<JsonObject> rows;
  int silent_total = 0;
  bool ordering_violated = false;

  for (const sim::Time period : periods) {
    const double period_us = static_cast<double>(period) / 1000.0;
    eval::VerdictTally mode_total[2];
    for (const int reconverge : {0, 1}) {
      const char* mode = reconverge ? "reconverge" : "frozen";
      std::printf("\n--- flap period %g us, %s routing ---\n", period_us,
                  mode);
      std::printf("%-26s %-8s %-9s %-12s %-8s %-7s %-9s %-8s\n", "scenario",
                  "correct", "degraded", "fault_attr", "silent", "churned",
                  "coverage", "epochs");
      std::vector<eval::RunResult> all;
      for (const auto type : all_anomalies()) {
        eval::RunConfig cfg;
        cfg.scenario = type;
        cfg.faults = fault::FaultPlan::victim_flap_train(
            period, reconverge ? holddown : 0);
        const std::vector<eval::RunResult> runs =
            eval::run_sweep(eval::seed_sweep(cfg, n));
        const std::string& name = runs.back().scenario_name;
        JsonObject row;
        row.num("flap_period_us", period_us)
            .str("mode", mode)
            .str("scenario", name);
        add_verdicts(row, print_row(name, runs))
            .num("churned_runs", churned(runs))
            .num("avg_routing_epochs",
                 mean(runs, &eval::RunResult::routing_epochs))
            .num("avg_link_down_drops",
                 mean(runs, &eval::RunResult::link_down_drops))
            .num("avg_coverage",
                 mean(runs, &eval::RunResult::collection_coverage))
            .num("avg_confidence", mean(runs, &eval::RunResult::confidence));
        rows.push_back(row);
        all.insert(all.end(), runs.begin(), runs.end());
      }
      mode_total[reconverge] = print_row("TOTAL", all);
      silent_total += mode_total[reconverge].silent();
    }
    const auto accuracy = [](const eval::VerdictTally& t) {
      return t.runs() == 0 ? 0 : static_cast<double>(t.correct) / t.runs();
    };
    std::printf("\nflap period %g us: frozen accuracy %.3f, reconverge "
                "accuracy %.3f\n",
                period_us, accuracy(mode_total[0]), accuracy(mode_total[1]));
    if (mode_total[1].correct < mode_total[0].correct) {
      ordering_violated = true;
      std::printf("ORDERING VIOLATION at flap period %g us\n", period_us);
    }
  }

  JsonObject doc;
  doc.str("bench", "path_churn")
      .num("seeds_per_point", n)
      .num("holddown_us", holddown / 1000)
      .rows("points", rows);
  const bool wrote =
      write_bench_json(bench_json_path("BENCH_pathchurn.json"), doc);
  int rc = zero_silent_gate(silent_total);
  if (ordering_violated) {
    std::printf("FAIL: reconvergence-enabled accuracy fell below frozen "
                "routing at some flap rate\n");
    rc = 1;
  } else {
    std::printf("OK: reconvergence never hurts accuracy\n");
  }
  return wrote ? rc : 1;
}
