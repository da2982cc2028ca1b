// Tests of the benchmark's own helpers: the tail-percentile rule, the
// metric-name charset, digest stability and the run-list generator.
// Exits non-zero on the first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/canonical.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median_and_percentile() {
  using perfbench::median;
  using perfbench::percentile;
  expect(median({}) == 0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");
  expect(percentile(ramp(100), 90) == 90, "nearest-rank p90 of 1..100");
  expect(percentile(ramp(10), 99.9) == 10, "p99.9 of 10 samples is the max");
  expect(percentile(ramp(4), 50) == 2, "p50 of 1..4 by nearest rank");
}

void test_tail_rule() {
  using perfbench::tail_percentile;
  expect(!tail_percentile(ramp(39)).has_value(),
         "39 samples: not even p75 has 10 beyond it");
  auto t = tail_percentile(ramp(40));
  expect(t && t->pct == 75 && t->value == 30, "40 samples give p75");
  t = tail_percentile(ramp(100));
  expect(t && t->pct == 90 && t->value == 90, "100 samples give p90");
  t = tail_percentile(ramp(199));
  expect(t && t->pct == 90, "199 samples: p95 leaves only 9 beyond");
  t = tail_percentile(ramp(200));
  expect(t && t->pct == 95 && t->value == 190, "200 samples give p95");
  t = tail_percentile(ramp(1000));
  expect(t && t->pct == 99 && t->value == 990, "1000 samples give p99");
  t = tail_percentile(ramp(10000));
  expect(t && t->pct == 99.9, "10000 samples give p99.9");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("sim.shard.drain_s"), "dotted name");
  expect(valid_metric_name("run_s_p50"), "underscores");
  expect(valid_metric_name("9-lives"), "leading digit and dash");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name("latency ms"), "space");
  expect(!valid_metric_name("lat/s"), "slash");
  expect(!valid_metric_name("µs"), "non-ASCII");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  bool threw = false;
  try {
    perfbench::metrics_json({{"bad name", 1, "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "metrics_json rejects a bad name");
  expect(perfbench::metrics_json({{"a", 0.5, "s"}}) ==
             "{\"a\": {\"value\": 0.5, \"unit\": \"s\"}}",
         "metrics_json layout");
}

void test_digest() {
  perfbench::Digest empty;
  expect(empty.hex() == "cbf29ce484222325", "empty digest is the FNV offset");
  perfbench::Digest a, b, c;
  a.add("ab");
  a.add("c");
  b.add("a");
  b.add("bc");
  c.add("ab");
  c.add("c");
  expect(a.value() == c.value(), "same lines, same digest");
  expect(a.value() != b.value(), "line boundaries are hashed");
  perfbench::Digest one;
  one.add("a");
  // FNV-1a 64 of "a\n": a fixed value, so output hashes stay comparable
  // across builds and commits.
  expect(one.hex() == "089bdc07b544e7b2", "digest of one line is pinned");
}

void test_run_lists() {
  using namespace perfbench;
  for (const std::string& name : workload_names()) {
    const Workload w = find_workload(name, 4);
    const auto a = build_run_list(w, 5);
    const auto b = build_run_list(w, 5);
    const auto c = build_run_list(w, 6);
    expect(!a.empty(), "run list is non-empty");
    bool same = a.size() == b.size(), differs = a.size() != c.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].label == b[i].label;
    }
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
      differs = a[i].label != c[i].label;
    }
    expect(same, "same seed, same run list");
    expect(differs, "another seed, another run list");
    for (const RunItem& it : a) {
      expect(it.cfg.fat_tree_k == w.fat_tree_k, "items use the workload's k");
    }
  }
  // The k=8 list keeps the golden tier's wrong cells whatever the seed.
  const Workload k8 = find_workload("k8_single_trace", 1);
  for (const std::uint64_t seed : {1, 2, 77}) {
    std::set<std::string> cells;
    for (const RunItem& it : build_run_list(k8, seed)) cells.insert(it.label);
    expect(cells.count("in-loop-deadlock/s1") &&
               cells.count("in-loop-deadlock/s3") &&
               cells.count("out-of-loop-deadlock-contention/s7"),
           "k8 list carries the pinned wrong cells");
  }
  expect(find_workload("k12_sharded_trace", 2).shards == 2,
         "shards never exceed nproc");
  bool threw = false;
  try {
    find_workload("nope", 4);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "unknown workload throws");
}

}  // namespace

int main() {
  test_median_and_percentile();
  test_tail_rule();
  test_metric_names();
  test_digest();
  test_run_lists();
  if (failures == 0) std::printf("perfbench_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
