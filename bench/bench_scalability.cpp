// Extension experiment: fabric-scale behaviour + intra-run shard scaling.
//
// Fabric axis: the paper's NS-3 setup is a k=4 fat-tree (20 switches); this
// sweep grows the fabric to k=6/8 (45/80 switches) and checks that
// Hawkeye's collection stays *local* — the collected-switch count tracks
// the anomaly's causal footprint, not the fabric size — while diagnosis
// quality holds.
//
// Shard axis: each (k, anomaly) point reruns under the sharded simulator
// (`--shards 1,2,4,8`), reporting wall-clock AND events/sec per cell plus
// the simulator's phase decomposition (parallel drain vs serial merge vs
// sequential windows) and the measured dispatch gap (drain time not spent
// by the slowest shard: waking and collecting the pool), so shard-scaling
// efficiency is visible in the JSON trajectory. Every number is measured
// on the host that runs the bench; nothing is extrapolated to other core
// counts. Results append under a "scalability" key in BENCH_hotpath.json
// (HAWKEYE_BENCH_JSON overrides the path).
//
// `--k16` (or HAWKEYE_BENCH_K16=1) adds the headline k=16 cells: the
// microburst-incast scenario at shards 1 vs 8 (576 switches, tens of
// millions of events). Off by default — a k=16 run takes minutes.
//
// Memory columns per cell: the process's peak RSS so far (getrusage
// high-water mark, so it never falls from one cell to the next), the event
// calendars' retained capacity, and the telemetry flow tables' XOR
// evictions and peak occupied slots, read from each run's testbed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench_common.hpp"
#include "eval/testbed.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

struct Cell {
  int k = 4;
  int shards = 1;
  diagnosis::AnomalyType anomaly;
  int seeds = 1;
  double wall_s = 0;
  double events = 0;
  double precision = 0;
  double recall = 0;
  double collected = 0;
  sim::Simulator::ShardStats st;  // summed over the cell's runs
  double peak_rss_mb = 0;         // process high-water mark after the cell
  double calendar_mb = 0;         // max over runs: retained calendar heap
  std::uint64_t flow_evictions = 0;  // summed over runs and switches
  std::size_t peak_flow_slots = 0;   // max over runs and switches

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
  /// Parallel-round time not spent by the slowest shard: waking the pool
  /// and collecting it (ShardStats drain minus round max).
  double dispatch_gap_s() const {
    return st.drain_seconds - st.round_max_seconds;
  }
};

Cell run_cell(int k, int shards, diagnosis::AnomalyType anomaly, int seeds) {
  Cell c;
  c.k = k;
  c.shards = shards;
  c.anomaly = anomaly;
  c.seeds = seeds;
  eval::RunConfig cfg;
  cfg.scenario = anomaly;
  cfg.fat_tree_k = k;
  cfg.background_load = k >= 16 ? 0.1 : 0.05;
  cfg.shards = shards;
  const auto t0 = std::chrono::steady_clock::now();
  PointStats st;
  for (int i = 0; i < seeds; ++i) {
    // Serial seed loop (not run_point's sweep pool): each cell's wall-clock
    // must measure exactly one run at a time or the per-shard timing is
    // meaningless.
    cfg.seed = 1 + static_cast<std::uint64_t>(i) * 2;
    const eval::RunResult r = eval::run_one(cfg, [&c](eval::Testbed& tb) {
      c.calendar_mb = std::max(
          c.calendar_mb, static_cast<double>(tb.simu.retained_event_capacity() *
                                             sizeof(sim::EventCalendar::Event)) /
                             1e6);
      for (const auto* tier : {&tb.ft.edges, &tb.ft.aggs, &tb.ft.cores}) {
        for (const net::NodeId sw : *tier) {
          const telemetry::TelemetryEngine& t = tb.switch_at(sw).telemetry();
          c.flow_evictions += t.flow_evictions();
          c.peak_flow_slots = std::max(c.peak_flow_slots, t.peak_flow_slots());
        }
      }
    });
    st.add(r);
    c.st.parallel_rounds += r.shard_stats.parallel_rounds;
    c.st.sequential_windows += r.shard_stats.sequential_windows;
    c.st.sequential_events += r.shard_stats.sequential_events;
    c.st.merged_records += r.shard_stats.merged_records;
    c.st.deferred_schedules += r.shard_stats.deferred_schedules;
    c.st.drain_seconds += r.shard_stats.drain_seconds;
    c.st.round_max_seconds += r.shard_stats.round_max_seconds;
    c.st.barrier_seconds += r.shard_stats.barrier_seconds;
    c.st.merge_seconds += r.shard_stats.merge_seconds;
    c.st.flush_seconds += r.shard_stats.flush_seconds;
    c.st.sequential_seconds += r.shard_stats.sequential_seconds;
  }
  c.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  c.events = st.sim_events;
  c.precision = st.pr.precision();
  c.recall = st.pr.recall();
  c.collected = st.avg(st.collected_switches);
  return c;
}

std::string json_cell(const Cell& c, double wall_1shard) {
  char buf[1024];
  std::string s;
  std::snprintf(buf, sizeof(buf),
                "{\"k\": %d, \"shards\": %d, \"anomaly\": \"%s\", "
                "\"seeds\": %d, \"wall_s\": %.3f, \"events\": %.0f, "
                "\"events_per_sec\": %.0f, \"precision\": %.3f, "
                "\"recall\": %.3f, \"peak_rss_mb\": %.1f, "
                "\"calendar_mb\": %.2f, \"flow_evictions\": %llu, "
                "\"peak_flow_slots\": %zu",
                c.k, c.shards, std::string(to_string(c.anomaly)).c_str(),
                c.seeds, c.wall_s, c.events, c.events_per_sec(), c.precision,
                c.recall, c.peak_rss_mb, c.calendar_mb,
                static_cast<unsigned long long>(c.flow_evictions),
                c.peak_flow_slots);
  s += buf;
  if (c.shards > 1) {
    std::snprintf(
        buf, sizeof(buf),
        ", \"drain_s\": %.3f, \"round_max_s\": %.3f, "
        "\"dispatch_gap_s\": %.3f, \"merge_s\": %.3f, "
        "\"flush_s\": %.3f, \"seq_s\": %.3f, \"parallel_rounds\": %llu, "
        "\"sequential_events\": %llu, \"merged_records\": %llu, "
        "\"deferred_schedules\": %llu",
        c.st.drain_seconds, c.st.round_max_seconds, c.dispatch_gap_s(),
        c.st.merge_seconds, c.st.flush_seconds, c.st.sequential_seconds,
        static_cast<unsigned long long>(c.st.parallel_rounds),
        static_cast<unsigned long long>(c.st.sequential_events),
        static_cast<unsigned long long>(c.st.merged_records),
        static_cast<unsigned long long>(c.st.deferred_schedules));
    s += buf;
    if (wall_1shard > 0) {
      std::snprintf(buf, sizeof(buf), ", \"measured_speedup_vs_1shard\": %.3f",
                    wall_1shard / c.wall_s);
      s += buf;
    }
  }
  s += "}";
  return s;
}

void print_row(const Cell& c) {
  char gap[16] = "-";
  if (c.shards > 1) std::snprintf(gap, sizeof(gap), "%.3f", c.dispatch_gap_s());
  std::printf(
      "%-4d %-7d %-34s %-10.2f %-8.2f %-11.1f %-9.2f %-8.2f %-8.2f %-8s "
      "%-9.0f %-8.2f %-9llu %-9zu\n",
      c.k, c.shards, std::string(to_string(c.anomaly)).c_str(), c.precision,
      c.recall, c.collected, c.events / 1e6, c.wall_s,
      c.events_per_sec() / 1e6, gap, c.peak_rss_mb, c.calendar_mb,
      static_cast<unsigned long long>(c.flow_evictions), c.peak_flow_slots);
}

std::vector<int> parse_list(const char* arg) {
  std::vector<int> out;
  for (const char* p = arg; *p != '\0';) {
    out.push_back(std::atoi(p));
    while (*p != '\0' && *p != ',') ++p;
    if (*p == ',') ++p;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> ks = {4, 6, 8};
  std::vector<int> shard_counts = {1};
  bool k16 = std::getenv("HAWKEYE_BENCH_K16") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      ks = parse_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = parse_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--k16") == 0) {
      k16 = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--k 4,6,8] [--shards 1,2,4,8] [--k16]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("Extension", "fabric scale sweep (fat-tree k x shards)");
  const int n = seeds_per_point(2);
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host_cpus=%u (wall-clock speedup from sharding needs >1)\n\n",
              host_cpus);
  std::printf("%-4s %-7s %-34s %-10s %-8s %-11s %-9s %-8s %-8s %-8s %-9s "
              "%-8s %-9s %-9s\n",
              "k", "shards", "anomaly", "precision", "recall", "collected",
              "Mevents", "wall-s", "Mev/s", "gap-s", "peakRSS", "cal-MB",
              "evicted", "peakSlots");

  std::vector<Cell> cells;
  // wall_s of the shards=1 cell for each (k, anomaly), for speedup ratios.
  auto base_wall = [&cells](int k, diagnosis::AnomalyType a) {
    for (const Cell& c : cells) {
      if (c.k == k && c.shards == 1 && c.anomaly == a) return c.wall_s;
    }
    return 0.0;
  };

  for (const int k : ks) {
    for (const auto type : {diagnosis::AnomalyType::kMicroBurstIncast,
                            diagnosis::AnomalyType::kInLoopDeadlock}) {
      for (const int s : shard_counts) {
        const Cell c = run_cell(k, s, type, n);
        print_row(c);
        cells.push_back(c);
      }
    }
  }

  if (k16) {
    std::printf("\nk=16 headline (576 switches, microburst incast):\n");
    for (const int s : {1, 8}) {
      const Cell c = run_cell(16, s, diagnosis::AnomalyType::kMicroBurstIncast,
                              /*seeds=*/1);
      print_row(c);
      if (c.shards > 1) {
        const double w1 = base_wall(16, c.anomaly);
        std::printf("     drain=%.2fs round-max=%.2fs gap=%.2fs merge=%.2fs "
                    "flush=%.2fs seq=%.2fs rounds=%llu; measured %.2fx vs "
                    "1 shard\n",
                    c.st.drain_seconds, c.st.round_max_seconds,
                    c.dispatch_gap_s(), c.st.merge_seconds,
                    c.st.flush_seconds, c.st.sequential_seconds,
                    static_cast<unsigned long long>(c.st.parallel_rounds),
                    w1 > 0 ? w1 / c.wall_s : 0.0);
      }
      cells.push_back(c);
    }
  }

  // Append the whole table under a "scalability" key next to the
  // google-benchmark rows bench_micro_hotpath writes.
  const std::string path = bench_json_path("BENCH_hotpath.json");
  std::string payload = "{\n    \"host_cpus\": " + std::to_string(host_cpus);
  payload += ",\n    \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    payload += (i == 0 ? "\n      " : ",\n      ");
    payload += json_cell(cells[i], base_wall(cells[i].k, cells[i].anomaly));
  }
  payload += "\n    ]\n  }";
  const bool wrote = merge_json_key(path, "scalability", payload);
  if (wrote) std::printf("\nwrote \"scalability\" into %s\n", path.c_str());

  std::printf("\nExpected: collected-switch counts stay near the causal set\n"
              "size (victim path + loop) at every scale; accuracy holds;\n"
              "sharded cells match 1-shard output bitwise (identity suite).\n");
  return wrote ? 0 : 1;
}
