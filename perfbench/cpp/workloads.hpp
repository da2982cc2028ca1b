#pragma once

// The benchmark's workloads and their seeded run lists. Every list is a
// pure function of (workload, --seed); see perfbench/README.md for why
// each workload exists and which layers it stresses.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/runner.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  int fat_tree_k = 4;
  /// Threads the traces fan out over (1 = serial).
  int threads = 1;
  int shards = 1;
};

/// One operation: a trace to simulate, diagnose and score.
struct RunItem {
  hawkeye::eval::RunConfig cfg;
  std::string label;  ///< canonical cell key plus fault kind, for reports
};

/// Workload by name, sized for `nproc` host CPUs; throws
/// std::invalid_argument for an unknown name.
Workload find_workload(std::string_view name, int nproc);
const std::vector<std::string>& workload_names();

/// Scenario seed of cell `index`: a splitmix64 mix of the workload seed.
std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t index);

/// The workload's run list for `seed`.
std::vector<RunItem> build_run_list(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
