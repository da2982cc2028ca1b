// perfbench: the repository benchmark binary. Runs one workload's seeded
// run list through eval::run_one (untraced) or through the staged public
// calls of staged.hpp (traced), checks the outputs, and prints every
// metric by name and unit. perfbench/run.py builds this binary, runs it and
// prints the BENCHMARK.json metrics; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--golden K:FILE]... [--trace-out FILE]
//   perfbench --smoke [--seed N] [--golden K:FILE]...

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/canonical.hpp"
#include "eval/hunter.hpp"
#include "staged.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace eval = hawkeye::eval;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  /// Canonical-line fixtures by fabric size ("K:FILE", repeatable): list
  /// cells a fixture pins must reproduce its line exactly.
  std::vector<std::string> golden;
  std::string trace_out;  // traced run: spans and counts, JSON lines
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = v == "1";
    else if (key == "--commit") a.commit = v;
    else if (key == "--golden") a.golden.push_back(v);
    else if (key == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!a.smoke && a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1e3;  // ru_maxrss is in KB
}

/// One run_one execution and what the metrics need from it.
struct Execution {
  std::size_t index = 0;
  bool timed = false;
  bool threw = false;
  std::string error;
  double wall_s = 0;
  std::string line;  // eval::canonical_line
  eval::RunResult result;
};

Execution execute(const RunItem& item, std::size_t index, bool timed) {
  Execution e;
  e.index = index;
  e.timed = timed;
  const double t0 = now_s();
  try {
    e.result = eval::run_one(item.cfg);
    e.line = eval::canonical_line(item.cfg.scenario, item.cfg.seed, e.result);
  } catch (const std::exception& ex) {
    e.threw = true;
    e.error = ex.what();
  }
  e.wall_s = now_s() - t0;
  return e;
}

/// Fan `work(ticket)` out over `threads` workers, each claiming the next
/// ticket from a shared counter until `claim` refuses it (the same
/// atomic-ticket scheme as eval::run_sweep). Returns the wall seconds.
double fan_out(int threads, const std::function<bool(std::size_t)>& claim,
               const std::function<void(std::size_t)>& work) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t ticket = next.fetch_add(1);
      if (!claim(ticket)) return;
      work(ticket);
    }
  };
  const double t0 = now_s();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return now_s() - t0;
}

/// Execute every list item once over `threads` workers, appending to
/// `execs`. Returns the pass's wall seconds.
double run_pass(const std::vector<RunItem>& list, int threads, bool timed,
                std::vector<Execution>& execs) {
  std::mutex mu;
  return fan_out(
      threads, [&](std::size_t t) { return t < list.size(); },
      [&](std::size_t t) {
        Execution e = execute(list[t], t, timed);
        const std::lock_guard<std::mutex> lock(mu);
        execs.push_back(std::move(e));
      });
}

/// Pinned canonical lines by fat-tree k, then by cell key ("scenario/sN").
using Golden = std::map<int, std::map<std::string, std::string>>;

Golden load_golden(const std::vector<std::string>& specs) {
  Golden out;
  for (const std::string& spec : specs) {
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("--golden wants K:FILE, got " + spec);
    }
    const std::string path = spec.substr(colon + 1);
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read golden file " + path);
    auto& cells = out[std::stoi(spec.substr(0, colon))];
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      cells[line.substr(0, line.find(' '))] = line;
    }
  }
  return out;
}

/// Everything the run found wrong; empty means the outputs check out.
struct Checks {
  std::vector<std::string> problems;
  std::size_t failed_ops = 0;
  void fail(std::string what) { problems.push_back(std::move(what)); }
};

/// First execution per list index (the reference), plus repetition and
/// golden checks over every other execution.
std::vector<const Execution*> reference_executions(
    const std::vector<RunItem>& list, const std::vector<Execution>& execs,
    const Golden& golden, Checks& checks) {
  std::vector<const Execution*> first(list.size(), nullptr);
  for (const Execution& e : execs) {
    if (e.threw) {
      ++checks.failed_ops;
      checks.fail(list[e.index].label + ": run_one threw: " + e.error);
      continue;
    }
    const Execution*& ref = first[e.index];
    if (ref == nullptr) {
      ref = &e;
    } else if (ref->line != e.line) {
      ++checks.failed_ops;
      checks.fail(list[e.index].label + ": canonical line changed between "
                                        "repetitions");
    }
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (first[i] == nullptr) {
      checks.fail(list[i].label + ": never completed");
      continue;
    }
    const eval::RunConfig& cfg = list[i].cfg;
    const auto tier = golden.find(cfg.fat_tree_k);
    if (cfg.faults.enabled() || tier == golden.end()) continue;
    const auto pinned =
        tier->second.find(eval::canonical_cell_key(cfg.scenario, cfg.seed));
    if (pinned != tier->second.end() && pinned->second != first[i]->line) {
      checks.fail(list[i].label + ": differs from the golden fixture");
    }
  }
  return first;
}

std::string output_hash(const std::vector<const Execution*>& first) {
  Digest d;
  for (const Execution* e : first) d.add(e == nullptr ? "" : e->line);
  return d.hex();
}

std::string protocol_json(const Args& a, const Workload& w) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return std::string("{\"workload\": ") + json_string(w.name) +
         ", \"seed\": " + std::to_string(a.seed) +
         ", \"run_seconds\": " + std::to_string(a.seconds) +
         ", \"nproc\": " + std::to_string(host_cpus()) +
         ", \"threads\": " + std::to_string(w.threads) +
         ", \"shards\": " + std::to_string(w.shards) +
         ", \"fat_tree_k\": " + std::to_string(w.fat_tree_k) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (optimized ? "true" : "false") +
         ", \"ndebug\": " + (ndebug ? "true" : "false") +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"commit\": " + json_string(a.commit) +
         ", \"model_note\": " +
         json_string("simulated fabric, unvalidated against hardware: the "
                     "repository holds no reference measurements, so no "
                     "model-error figure is given") +
         "}";
}

void print_result(const Args& a, const Workload& w, const Checks& checks,
                  std::size_t attempted, const std::string& hash,
                  const std::vector<Metric>& metrics,
                  const std::string& extra) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("output_hash %s  attempted %zu  failed %zu\n", hash.c_str(),
              attempted, checks.failed_ops);
  for (const std::string& p : checks.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string problems = "[";
  for (std::size_t i = 0; i < checks.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(checks.problems[i]);
  }
  problems += "]";
  std::printf(
      "PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %zu, "
      "\"failed\": %zu, \"output_hash\": \"%s\", \"protocol\": %s%s, "
      "\"problems\": %s, \"metrics\": %s}\n",
      checks.problems.empty() ? "true" : "false", attempted, checks.failed_ops,
      hash.c_str(), protocol_json(a, w).c_str(), extra.c_str(),
      problems.c_str(), metrics_json(metrics).c_str());
}

double share(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// ---------------------------------------------------------------- untraced

int run_untraced(const Args& a, const Workload& w,
                 const Golden& golden) {
  std::vector<Execution> execs;

  // Set-up: build the run list and run one warm-up trace, three times; the
  // first repetition is timed from process start.
  std::vector<RunItem> list;
  std::vector<double> setup;
  double t0 = 0;
  for (int rep = 0; rep < 3; ++rep) {
    list = build_run_list(w, a.seed);
    execs.push_back(execute(list.front(), 0, false));
    setup.push_back(now_s() - t0);
    t0 = now_s();
  }

  // Timed window: whole passes over the list, fanned out over the
  // workload's threads, until --seconds have elapsed. Each pass repeats
  // every trace, so every pass must reproduce the output hash.
  const std::size_t n = list.size();
  double timed_wall = 0;
  int passes = 0;
  while (passes == 0 || timed_wall < a.seconds) {
    timed_wall += run_pass(list, w.threads, true, execs);
    ++passes;
  }
  std::vector<double> walls;
  std::uint64_t events = 0;
  for (const Execution& e : execs) {
    if (!e.timed || e.threw) continue;
    walls.push_back(e.wall_s);
    events += e.result.sim_events;
  }

  Checks checks;
  const auto first = reference_executions(list, execs, golden, checks);
  if (walls.empty()) checks.fail("no timed trace completed");
  std::size_t tp = 0, silent = 0, ok = 0;
  double monitor_kb = 0;
  std::vector<double> latency_us;
  for (const Execution* e : first) {
    if (e == nullptr) continue;
    const eval::RunResult& r = e->result;
    ++ok;
    tp += r.tp ? 1 : 0;
    silent += eval::classify_verdict(r, 0.9) ==
                      eval::HuntVerdictClass::kSilentWrong
                  ? 1
                  : 0;
    monitor_kb +=
        static_cast<double>(r.telemetry_bytes + r.monitor_bw_bytes) / 1e3;
    if (r.triggered) {
      latency_us.push_back(static_cast<double>(r.detection_latency) / 1e3);
    }
  }
  const std::size_t attempted = execs.size();

  std::vector<Metric> m = {
      {"traces_per_s", static_cast<double>(walls.size()) / timed_wall, "1/s"},
      {"run_s_p50", median(walls), "s"},
      {"sim_mevents_per_s", static_cast<double>(events) / timed_wall / 1e6,
       "Mev/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup), "s"},
      {"verdict_accuracy", share(tp, ok), "ratio"},
      {"silent_wrong_share", share(silent, ok), "ratio"},
      {"detect_latency_us_p50", median(latency_us), "us"},
      {"monitor_kb_per_trace", ok == 0 ? 0 : monitor_kb / ok, "KB"},
      {"failed_share", share(checks.failed_ops, attempted), "ratio"},
  };
  std::string extra = ", \"passes\": " + std::to_string(passes) +
                      ", \"list_size\": " + std::to_string(n);
  if (const auto tail = tail_percentile(walls)) {
    m.insert(m.begin() + 2, {"run_s_tail", tail->value, "s"});
    extra += ", \"run_s_tail_pct\": " + std::to_string(tail->pct);
  } else {
    extra += ", \"run_s_tail_pct\": null";
  }
  print_result(a, w, checks, attempted, output_hash(first), m, extra);
  return 0;
}

// ------------------------------------------------------------------ traced

struct TracedTrace {
  std::size_t index = 0;
  double runone_s = 0;  // untraced run_one, same thread, just before
  StagedTrace staged;
  const Execution* ref = nullptr;
};

void write_traces(const std::string& path, const std::vector<RunItem>& list,
                  const std::vector<TracedTrace>& traces) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const TracedTrace& t : traces) {
    for (const Span& s : t.staged.spans) {
      std::fprintf(f,
                   "{\"trace\": %zu, \"cell\": %s, \"span\": \"%s\", "
                   "\"parent\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                   t.index, json_string(list[t.index].label).c_str(), s.name,
                   s.parent, s.start_s, s.end_s);
    }
    const StagedTrace& c = t.staged;
    std::fprintf(f,
                 "{\"trace\": %zu, \"counts\": {\"events\": %llu, "
                 "\"flows\": %llu, \"data_hops\": %llu, \"triggers\": %llu, "
                 "\"episodes\": %llu, \"repolls\": %llu, "
                 "\"routing_epochs\": %llu, \"faults_injected\": %llu, "
                 "\"provenance_ports\": %zu}}\n",
                 t.index, static_cast<unsigned long long>(c.events),
                 static_cast<unsigned long long>(c.flows),
                 static_cast<unsigned long long>(c.data_hops),
                 static_cast<unsigned long long>(c.triggers),
                 static_cast<unsigned long long>(c.episodes),
                 static_cast<unsigned long long>(c.repolls),
                 static_cast<unsigned long long>(c.routing_epochs),
                 static_cast<unsigned long long>(c.faults_injected),
                 c.prov_ports);
  }
  std::fclose(f);
}

int run_traced(const Args& a, const Workload& w,
               const Golden& golden) {
  const std::vector<RunItem> list = build_run_list(w, a.seed);
  const std::size_t n = list.size();
  std::vector<Execution> execs;
  execs.push_back(execute(list.front(), 0, false));  // warm-up

  // Pool pass with the workload's own fan-out: how busy its workers stay.
  double busy_share = 1;
  if (w.threads > 1) {
    const std::size_t before = execs.size();
    const double wall = run_pass(list, w.threads, false, execs);
    double busy = 0;
    for (std::size_t i = before; i < execs.size(); ++i) {
      busy += execs[i].wall_s;
    }
    busy_share = busy / (wall * w.threads);
  }

  // Serial staged replay of every trace, each right after its untraced
  // run_one on the same thread.
  std::vector<TracedTrace> traces;
  std::vector<std::size_t> exec_of;
  for (std::size_t i = 0; i < n; ++i) {
    Execution e = execute(list[i], i, false);
    TracedTrace t;
    t.index = i;
    t.runone_s = e.wall_s;
    if (!e.threw) {
      try {
        t.staged = run_staged(list[i].cfg, e.result.fleet_evidence);
      } catch (const std::exception& ex) {
        e.threw = true;
        e.error = std::string("staged replay threw: ") + ex.what();
      }
    }
    exec_of.push_back(execs.size());
    execs.push_back(std::move(e));
    traces.push_back(std::move(t));
  }

  Checks checks;
  const auto first = reference_executions(list, execs, golden, checks);
  for (std::size_t i = 0; i < n; ++i) {
    const Execution& e = execs[exec_of[i]];
    if (e.threw) continue;
    traces[i].ref = &e;
    if (traces[i].staged.events != e.result.sim_events) {
      ++checks.failed_ops;
      checks.fail(list[i].label + ": staged sim.events " +
                  std::to_string(traces[i].staged.events) +
                  " != run_one sim_events " +
                  std::to_string(e.result.sim_events));
    }
  }

  // Per-trace means of spans and counts; ratios from sums.
  double cnt = 0;
  std::map<std::string, double> sum;
  std::vector<double> traced_s, untraced_s;
  double sim_ms = 0, raw = 0, report = 0, covered = 0, collected = 0;
  for (const TracedTrace& t : traces) {
    if (t.ref == nullptr) continue;
    const StagedTrace& s = t.staged;
    const eval::RunResult& r = t.ref->result;
    ++cnt;
    const double total = s.span_s("trace");
    traced_s.push_back(total);
    untraced_s.push_back(t.runone_s);
    double staged = 0;
    for (const char* span :
         {"workload.craft", "workload.background", "testbed.build",
          "testbed.install", "testbed.teardown", "sim.run",
          "provenance.build", "diagnosis.diagnose", "diagnosis.refine"}) {
      sum[std::string(span) + "_s"] += s.span_s(span);
      staged += s.span_s(span);
    }
    sum["runner.residual_s"] += t.runone_s - staged;
    sim_ms += s.sim_ms;
    raw += static_cast<double>(r.raw_telemetry_bytes);
    report += static_cast<double>(r.telemetry_bytes);
    covered += r.causal_coverage * static_cast<double>(r.causal_switches);
    collected += static_cast<double>(r.collected_switches);
    const auto add = [&](const char* k, double v) { sum[k] += v; };
    add("workload.flows", static_cast<double>(s.flows));
    add("testbed.build_mb", s.build_mb);
    add("sim.events", static_cast<double>(s.events));
    add("sim.shard.drain_s", s.shard.drain_seconds);
    add("sim.shard.round_max_s", s.shard.round_max_seconds);
    add("sim.shard.merge_s", s.shard.merge_seconds);
    add("sim.shard.flush_s", s.shard.flush_seconds);
    add("sim.shard.seq_s", s.shard.sequential_seconds);
    add("sim.shard.rounds", static_cast<double>(s.shard.parallel_rounds));
    add("sim.shard.merged_records",
        static_cast<double>(s.shard.merged_records));
    add("sim.shard.deferred", static_cast<double>(s.shard.deferred_schedules +
                                                  s.shard.deferred_controls));
    add("sim.shard.imbalance", s.shard_imbalance);
    add("device.data_hops", static_cast<double>(s.data_hops));
    add("device.hop_bytes", static_cast<double>(s.hop_bytes));
    add("device.pause_frames", static_cast<double>(s.pause_frames));
    add("device.pfc_injected", static_cast<double>(s.pfc_injected));
    add("device.drops", static_cast<double>(s.drops));
    add("device.retransmissions", static_cast<double>(s.retransmissions));
    add("routing.epochs", static_cast<double>(s.routing_epochs));
    add("fault.injected", static_cast<double>(s.faults_injected));
    add("telemetry.raw_bytes", static_cast<double>(r.raw_telemetry_bytes));
    add("telemetry.report_bytes", static_cast<double>(r.telemetry_bytes));
    add("collect.triggers", static_cast<double>(s.triggers));
    add("collect.snapshot_requests", static_cast<double>(s.snapshot_requests));
    add("collect.episodes", static_cast<double>(s.episodes));
    add("collect.polling_packets", static_cast<double>(s.polling_packets));
    add("collect.repolls", static_cast<double>(s.repolls));
    add("collect.stale_epochs", static_cast<double>(s.stale_epochs));
    add("collect.failed", static_cast<double>(s.failed));
    add("provenance.ports", static_cast<double>(s.prov_ports));
    add("provenance.flows", static_cast<double>(s.prov_flows));
  }
  const auto mean = [&](const char* k) { return cnt == 0 ? 0 : sum[k] / cnt; };
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0 : num / den;
  };
  const std::vector<Metric> m = {
      {"workload.craft_s", mean("workload.craft_s"), "s"},
      {"workload.background_s", mean("workload.background_s"), "s"},
      {"workload.flows", mean("workload.flows"), "count"},
      {"testbed.build_s", mean("testbed.build_s"), "s"},
      {"testbed.build_mb", mean("testbed.build_mb"), "MB"},
      {"testbed.install_s", mean("testbed.install_s"), "s"},
      {"testbed.teardown_s", mean("testbed.teardown_s"), "s"},
      {"runner.residual_s", mean("runner.residual_s"), "s"},
      {"sweep.busy_share", busy_share, "ratio"},
      {"sim.run_s", mean("sim.run_s"), "s"},
      {"sim.events", mean("sim.events"), "count"},
      {"sim.ns_per_event", ratio(sum["sim.run_s"] * 1e9, sum["sim.events"]),
       "ns"},
      {"sim.host_s_per_sim_ms", ratio(sum["sim.run_s"], sim_ms), "s/ms"},
      {"sim.shard.drain_s", mean("sim.shard.drain_s"), "s"},
      {"sim.shard.round_max_s", mean("sim.shard.round_max_s"), "s"},
      {"sim.shard.merge_s", mean("sim.shard.merge_s"), "s"},
      {"sim.shard.flush_s", mean("sim.shard.flush_s"), "s"},
      {"sim.shard.seq_s", mean("sim.shard.seq_s"), "s"},
      {"sim.shard.rounds", mean("sim.shard.rounds"), "count"},
      {"sim.shard.merged_records", mean("sim.shard.merged_records"), "count"},
      {"sim.shard.deferred", mean("sim.shard.deferred"), "count"},
      {"sim.shard.imbalance", mean("sim.shard.imbalance"), "ratio"},
      {"device.data_hops", mean("device.data_hops"), "count"},
      {"device.hop_bytes", mean("device.hop_bytes"), "B"},
      {"device.pause_frames", mean("device.pause_frames"), "count"},
      {"device.pfc_injected", mean("device.pfc_injected"), "count"},
      {"device.drops", mean("device.drops"), "count"},
      {"device.retransmissions", mean("device.retransmissions"), "count"},
      {"routing.epochs", mean("routing.epochs"), "count"},
      {"fault.injected", mean("fault.injected"), "count"},
      {"telemetry.raw_bytes", mean("telemetry.raw_bytes"), "B"},
      {"telemetry.report_bytes", mean("telemetry.report_bytes"), "B"},
      {"telemetry.filter_ratio", ratio(report, raw), "ratio"},
      {"collect.triggers", mean("collect.triggers"), "count"},
      {"collect.snapshot_requests", mean("collect.snapshot_requests"), "count"},
      {"collect.episodes", mean("collect.episodes"), "count"},
      {"collect.polling_packets", mean("collect.polling_packets"), "count"},
      {"collect.repolls", mean("collect.repolls"), "count"},
      {"collect.stale_epochs", mean("collect.stale_epochs"), "count"},
      {"collect.failed", mean("collect.failed"), "count"},
      {"collect.useful_ratio", ratio(covered, collected), "ratio"},
      {"provenance.build_s", mean("provenance.build_s"), "s"},
      {"provenance.ports", mean("provenance.ports"), "count"},
      {"provenance.flows", mean("provenance.flows"), "count"},
      {"diagnosis.diagnose_s", mean("diagnosis.diagnose_s"), "s"},
      {"diagnosis.refine_s", mean("diagnosis.refine_s"), "s"},
      {"trace.run_s_p50", median(traced_s), "s"},
      {"trace.untraced_run_s_p50", median(untraced_s), "s"},
      {"trace.overhead", ratio(median(traced_s), median(untraced_s)), "ratio"},
  };
  write_traces(a.trace_out, list, traces);
  print_result(a, w, checks, execs.size(), output_hash(first), m,
               ", \"list_size\": " + std::to_string(n));
  return 0;
}

// ------------------------------------------------------------------- smoke

int run_smoke(const Args& a, const Golden& golden) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const Workload w = find_workload(name, host_cpus());
    const std::vector<RunItem> list = build_run_list(w, a.seed);
    const std::vector<RunItem> one = {list.front()};
    std::vector<Execution> execs = {execute(one[0], 0, true),
                                    execute(one[0], 0, true)};
    Checks checks;
    const auto first = reference_executions(one, execs, golden, checks);
    const StagedTrace staged =
        checks.problems.empty()
            ? run_staged(one[0].cfg, first[0]->result.fleet_evidence)
            : StagedTrace{};
    if (checks.problems.empty() &&
        staged.events != first[0]->result.sim_events) {
      checks.fail(one[0].label + ": staged sim.events differ");
    }
    std::printf("%-18s %-40s %8.3f s  %s\n", name.c_str(),
                one[0].label.c_str(), execs[0].wall_s,
                checks.problems.empty() ? "ok" : "FAILED");
    for (const std::string& p : checks.problems) {
      std::printf("  CHECK FAILED: %s\n", p.c_str());
    }
    ok = ok && checks.problems.empty();
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  now_s();  // set-up is timed from here
  try {
    const Args a = parse_args(argc, argv);
    const auto golden = load_golden(a.golden);
    if (a.smoke) return run_smoke(a, golden);
    const Workload w = find_workload(a.workload, host_cpus());
    return a.trace ? run_traced(a, w, golden) : run_untraced(a, w, golden);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 2;
  }
}
