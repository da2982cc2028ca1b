#pragma once

// Shared plumbing for the figure/table reproduction benches. Each bench is
// a standalone binary that prints the rows/series of one paper figure.
// Seeds per data point default to a small count so the whole bench suite
// runs in minutes; set HAWKEYE_BENCH_SEEDS=<n> for tighter error bars
// (the paper crafts 100 traces per scenario).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/runner.hpp"
#include "eval/sweep.hpp"

namespace hawkeye::bench {

inline int seeds_per_point(int def = 3) {
  if (const char* env = std::getenv("HAWKEYE_BENCH_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return def;
}

inline const std::vector<diagnosis::AnomalyType>& all_anomalies() {
  static const std::vector<diagnosis::AnomalyType> kAll = {
      diagnosis::AnomalyType::kMicroBurstIncast,
      diagnosis::AnomalyType::kPfcStorm,
      diagnosis::AnomalyType::kInLoopDeadlock,
      diagnosis::AnomalyType::kOutOfLoopDeadlockContention,
      diagnosis::AnomalyType::kOutOfLoopDeadlockInjection,
      diagnosis::AnomalyType::kNormalContention,
  };
  return kAll;
}

/// Aggregate of N trace runs at one parameter point.
struct PointStats {
  eval::PrecisionRecall pr;
  int runs = 0;
  double telemetry_bytes = 0;
  double raw_telemetry_bytes = 0;
  double report_packets = 0;
  double dataplane_report_packets = 0;
  double polling_packets = 0;
  double monitor_bw_bytes = 0;
  double collected_switches = 0;
  double causal_coverage = 0;
  double detection_latency_us = 0;
  double sim_events = 0;

  void add(const eval::RunResult& r) {
    pr.add(r);
    ++runs;
    telemetry_bytes += static_cast<double>(r.telemetry_bytes);
    raw_telemetry_bytes += static_cast<double>(r.raw_telemetry_bytes);
    report_packets += static_cast<double>(r.report_packets);
    dataplane_report_packets +=
        static_cast<double>(r.dataplane_report_packets);
    polling_packets += static_cast<double>(r.polling_packets);
    monitor_bw_bytes += static_cast<double>(r.monitor_bw_bytes);
    collected_switches += static_cast<double>(r.collected_switches);
    sim_events += static_cast<double>(r.sim_events);
    causal_coverage += r.causal_coverage;
    if (r.detection_latency >= 0) {
      detection_latency_us += static_cast<double>(r.detection_latency) / 1e3;
    }
  }
  double avg(double sum) const { return runs == 0 ? 0 : sum / runs; }
};

/// Run one (scenario, config) point over `n` trace seeds. Runs fan out
/// across the sweep runner's thread pool (HAWKEYE_SWEEP_THREADS to pin);
/// results are aggregated in seed order, so the stats are identical to the
/// old serial loop regardless of thread count.
inline PointStats run_point(eval::RunConfig cfg, int n,
                            std::uint64_t seed0 = 1) {
  PointStats st;
  for (const eval::RunResult& r :
       eval::run_sweep(eval::seed_sweep(cfg, n, seed0))) {
    st.add(r);
  }
  return st;
}

inline void print_header(const char* fig, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("(shape reproduction on the simulated fabric; see EXPERIMENTS.md)\n");
  std::printf("==============================================================\n");
}

/// Where a bench writes its JSON: $HAWKEYE_BENCH_JSON when set, else
/// `def`. The only reader of that variable.
inline std::string bench_json_path(const char* def) {
  const char* env = std::getenv("HAWKEYE_BENCH_JSON");
  return env != nullptr ? env : def;
}

/// Replace the file at `path` with `body`. A failed open, write or close
/// is reported on stderr and returns false, so the bench can exit non-zero.
inline bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr &&
            std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 std::strerror(errno));
  }
  return ok;
}

/// A JSON object built field by field, in insertion order. Numbers are
/// formatted by std::to_string (doubles with six decimals, the format of
/// every committed BENCH_*.json); a field may also hold an array of row
/// objects.
class JsonObject {
 public:
  template <typename T>
  JsonObject& num(std::string_view key, T value) {
    return field(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return field(key, "\"" + std::string(value) + "\"");
  }
  JsonObject& rows(std::string_view key, const std::vector<JsonObject>& rows) {
    std::vector<std::string> items;
    items.reserve(rows.size());
    for (const JsonObject& r : rows) items.push_back(r.line());
    fields_.push_back({std::string(key), "", std::move(items), true});
    return *this;
  }

  /// One line: `{"key": value, "rows": [{...}, {...}]}`.
  std::string line() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += ", ";
      s += fields_[i].name();
      s += fields_[i].array ? "[" + join(fields_[i].items, ", ") + "]"
                            : fields_[i].value;
    }
    return s + "}";
  }

  /// The BENCH_*.json file layout: one field per line, one row per line.
  std::string document() const {
    std::string s = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += ",\n";
      s += "  " + fields_[i].name();
      s += fields_[i].array ? "[\n    " +
                                  join(fields_[i].items, ",\n    ") + "\n  ]"
                            : fields_[i].value;
    }
    return s + "\n}\n";
  }

 private:
  struct Field {
    std::string key;
    std::string value;               // scalar fields
    std::vector<std::string> items;  // array fields: rows, one line each
    bool array = false;
    std::string name() const { return "\"" + key + "\": "; }
  };
  JsonObject& field(std::string_view key, std::string value) {
    fields_.push_back({std::string(key), std::move(value), {}, false});
    return *this;
  }
  static std::string join(const std::vector<std::string>& items,
                          const char* sep) {
    std::string s;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) s += sep;
      s += items[i];
    }
    return s;
  }
  std::vector<Field> fields_;
};

/// Write a bench's JSON document to `path` (see bench_json_path) and say
/// so on stdout; false (reported on stderr) when the write failed.
inline bool write_bench_json(const std::string& path, const JsonObject& doc) {
  if (!write_file(path, doc.document())) return false;
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

/// Tally a cell's runs into the shared verdict ledger.
inline eval::VerdictTally tally(const std::vector<eval::RunResult>& runs) {
  eval::VerdictTally t;
  for (const eval::RunResult& r : runs) t.add(r);
  return t;
}

/// Mean of `field` (a RunResult member or a callable on one) over `runs`,
/// summed in run order; 0 for no runs.
template <typename F>
double mean(const std::vector<eval::RunResult>& runs, F field) {
  double sum = 0;
  for (const eval::RunResult& r : runs) {
    sum += static_cast<double>(std::invoke(field, r));
  }
  return runs.empty() ? 0 : sum / static_cast<double>(runs.size());
}

/// The ledger's columns, in the order every gated bench writes them.
inline JsonObject& add_verdicts(JsonObject& row, const eval::VerdictTally& t) {
  return row.num("correct", t.correct)
      .num("degraded", t.degraded)
      .num("fault_attributed", t.fault_attributed)
      .num("misclassified", t.misclassified)
      .num("missed", t.missed)
      .num("runs", t.runs());
}

/// The gated benches' acceptance bar: zero silently-wrong verdicts over
/// the whole grid (eval::VerdictTally::silent, or unflagged for the fleet
/// bench). Prints FAIL or OK and returns the exit code.
inline int zero_silent_gate(int silent) {
  if (silent > 0) {
    std::printf("FAIL: %d silently-wrong verdict(s)\n", silent);
    return 1;
  }
  std::printf("OK: no silently-wrong verdicts\n");
  return 0;
}

/// Merge `payload` (a JSON value) into the top-level object of the JSON
/// file at `path` under `key`, creating the file if needed. Written for the
/// BENCH_hotpath.json convention: google-benchmark owns the file body and
/// rewrites it wholesale; this helper appends one extra key after it runs.
/// Idempotent — a key previously appended by this helper is replaced, so
/// re-running a bench never duplicates or corrupts the object. Returns
/// false, reported on stderr, when the file holds something other than a
/// JSON object or cannot be written.
inline bool merge_json_key(const std::string& path, const std::string& key,
                           const std::string& payload) {
  std::string body;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      body.append(buf, got);
    }
    std::fclose(f);
  }
  const std::string marker = ",\n  \"" + key + "\":";
  const std::size_t prev = body.find(marker);
  if (prev != std::string::npos) {
    // Replacing a key this helper appended earlier: the erased tail runs
    // to end-of-file and takes the root object's closing brace with it,
    // so the remainder is a ready-to-append prefix no matter what
    // character the preceding section ends on (']' for the
    // google-benchmark rows).
    body.erase(prev);
  } else {
    while (!body.empty() &&
           (body.back() == '\n' || body.back() == ' ' ||
            body.back() == '\r' || body.back() == '\t')) {
      body.pop_back();
    }
    if (!body.empty()) {
      if (body.back() != '}') {  // not a JSON object; leave it be
        std::fprintf(stderr, "%s is not a JSON object\n", path.c_str());
        return false;
      }
      body.pop_back();
    } else {
      body = "{";
    }
  }
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.pop_back();
  }
  body += ",\n  \"" + key + "\": " + payload + "\n}\n";
  if (body.compare(0, 2, "{,") == 0) body.erase(1, 1);
  return write_file(path, body);
}

inline std::string human_bytes(double b) {
  char buf[32];
  if (b >= 1e9) std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  else if (b >= 1e6) std::snprintf(buf, sizeof(buf), "%.2f MB", b / 1e6);
  else if (b >= 1e3) std::snprintf(buf, sizeof(buf), "%.2f KB", b / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.0f B", b);
  return buf;
}

}  // namespace hawkeye::bench
