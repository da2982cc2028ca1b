// Data-plane robustness sweep: diagnosis accuracy vs injected FABRIC
// faults — PFC pause/resume frame loss and link flap trains — as opposed
// to bench_robustness's telemetry-pipeline faults.
//
// Two series over all six crafted scenarios:
//   axis "pfc_loss" — every PFC frame on the wire is eaten with prob p
//   axis "flap"     — a link on the victim path flaps once per period
//                     (100 us outages, seeded jitter; the runner binds the
//                     placeholder spec to the crafted victim's route)
//
// Each run is classified by the shared verdict ledger (eval::VerdictTally):
// correct, degraded, fault_attributed (a wrong/missing verdict while an
// injected data-plane fault fired ON THE VICTIM'S FORWARDING PATH — off-path
// faults don't excuse anything), or silently wrong (misclassified/missed).
//
// The acceptance bar this bench enforces (exit code 1 on violation): NO
// silently-wrong verdicts — misclassified + missed must be zero at every
// point. Results go to BENCH_dataplane.json (HAWKEYE_BENCH_JSON overrides).
//
// `--smoke` shrinks the grid for CI: one seed, two points per axis.
#include <cstring>

#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

struct Point {
  const char* axis;
  double value;  // loss probability, or flap period in us
  fault::FaultPlan plan;
};

/// One table row: a cell's (or a point's TOTAL) verdicts and averages.
eval::VerdictTally print_row(const std::string& name,
                             const std::vector<eval::RunResult>& runs) {
  const eval::VerdictTally v = tally(runs);
  std::printf("%-26s %-8d %-9d %-12d %-14d %-7d %-9.2f %-11.2f\n",
              name.c_str(), v.correct, v.degraded, v.fault_attributed,
              v.misclassified, v.missed,
              mean(runs, &eval::RunResult::collection_coverage),
              mean(runs, &eval::RunResult::confidence));
  return v;
}

/// Run every point over all six scenarios; returns the silent-verdict count.
int run_axis(const std::vector<Point>& points, int n,
             std::vector<JsonObject>& rows) {
  int silent_total = 0;
  for (const Point& pt : points) {
    std::printf("\n--- %s = %g ---\n", pt.axis, pt.value);
    std::printf("%-26s %-8s %-9s %-12s %-14s %-7s %-9s %-11s\n", "scenario",
                "correct", "degraded", "fault_attr", "misclassified", "missed",
                "coverage", "confidence");
    std::vector<eval::RunResult> all;
    for (const auto type : all_anomalies()) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.faults = pt.plan;
      const std::vector<eval::RunResult> runs =
          eval::run_sweep(eval::seed_sweep(cfg, n));
      const std::string& name = runs.back().scenario_name;
      JsonObject row;
      row.str("axis", pt.axis).num("value", pt.value).str("scenario", name);
      add_verdicts(row, print_row(name, runs))
          .num("avg_coverage",
               mean(runs, &eval::RunResult::collection_coverage))
          .num("avg_confidence", mean(runs, &eval::RunResult::confidence))
          .num("avg_repolls", mean(runs, &eval::RunResult::repolls))
          .num("avg_link_down_drops",
               mean(runs, &eval::RunResult::link_down_drops))
          .num("avg_pfc_frames_lost",
               mean(runs,
                    [](const eval::RunResult& r) {
                      return r.pfc_pause_lost + r.pfc_resume_lost;
                    }))
          .num("avg_pfc_loss_drops",
               mean(runs, &eval::RunResult::pfc_loss_drops));
      rows.push_back(row);
      all.insert(all.end(), runs.begin(), runs.end());
    }
    silent_total += print_row("TOTAL", all).silent();
  }
  return silent_total;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("Data-plane robustness",
               "diagnosis accuracy vs PFC frame loss and link flap rate");
  const int n = smoke ? 1 : seeds_per_point();

  std::vector<Point> points;
  const std::vector<double> loss_rates =
      smoke ? std::vector<double>{0.0, 0.25}
            : std::vector<double>{0.0, 0.10, 0.25, 0.50};
  for (const double rate : loss_rates) {
    Point pt;
    pt.axis = "pfc_loss";
    pt.value = rate;
    if (rate > 0) pt.plan = fault::FaultPlan::uniform_pfc_loss(rate, 1);
    points.push_back(pt);
  }
  const std::vector<sim::Time> periods =
      smoke ? std::vector<sim::Time>{sim::us(500)}
            : std::vector<sim::Time>{sim::us(1000), sim::us(500), sim::us(250)};
  for (const sim::Time period : periods) {
    Point pt;
    pt.axis = "flap_period_us";
    pt.value = static_cast<double>(period) / 1000.0;
    pt.plan = fault::FaultPlan::victim_flap_train(period);
    points.push_back(pt);
  }

  std::vector<JsonObject> rows;
  const int silent = run_axis(points, n, rows);
  JsonObject doc;
  doc.str("bench", "dataplane_robustness")
      .num("seeds_per_point", n)
      .rows("points", rows);
  const bool wrote =
      write_bench_json(bench_json_path("BENCH_dataplane.json"), doc);
  const int rc = zero_silent_gate(silent);
  return wrote ? rc : 1;
}
