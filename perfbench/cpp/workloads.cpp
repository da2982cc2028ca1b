#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "eval/canonical.hpp"

namespace perfbench {

using hawkeye::diagnosis::AnomalyType;
using hawkeye::eval::RunConfig;
namespace fault = hawkeye::fault;
namespace sim = hawkeye::sim;

namespace {

constexpr AnomalyType kTable2[] = {
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
};

constexpr AnomalyType kFleet[] = {
    AnomalyType::kDegradedLink,
    AnomalyType::kLinkSpeedMismatch,
    AnomalyType::kHostPcieBottleneck,
    AnomalyType::kOversubscribedDownlink,
};

constexpr hawkeye::workload::FleetWorkload kFleetTraffic[] = {
    hawkeye::workload::FleetWorkload::kCrafted,
    hawkeye::workload::FleetWorkload::kRpcClientServer,
    hawkeye::workload::FleetWorkload::kAllToAll,
};

RunItem item(const Workload& w, AnomalyType scenario, std::uint64_t seed,
             std::string_view kind = {}) {
  RunItem it;
  it.cfg.scenario = scenario;
  it.cfg.seed = seed;
  it.cfg.fat_tree_k = w.fat_tree_k;
  it.cfg.shards = w.shards;
  it.label = hawkeye::eval::canonical_cell_key(scenario, seed);
  if (!kind.empty()) {
    it.label += '+';
    it.label += kind;
  }
  return it;
}

// Telemetry-path damage: lost polling packets and failed DMA snapshots
// force re-polls and targeted collect_missing; late snapshots exercise
// stale-epoch rejection.
fault::FaultPlan collect_loss_plan() {
  fault::FaultPlan plan = fault::FaultPlan::uniform_poll_loss(0.1, 1);
  fault::DmaFaultSpec dma;
  dma.fail_prob = 0.05;
  dma.stale_prob = 0.1;
  plan.dma_faults.push_back(dma);
  return plan;
}

// A victim-path flap train with hold-down reconvergence: ECMP withdrawals
// and restores bump the routing epoch while lookups continue.
fault::FaultPlan flap_plan() {
  fault::FaultPlan plan;
  fault::LinkFlapSpec flap;  // unbound: run_one pins it to the victim path
  flap.start = sim::us(100);
  flap.down_ns = sim::us(100);
  flap.period_ns = sim::us(500);
  flap.jitter = 0.5;
  flap.holddown_ns = sim::us(50);
  plan.link_flaps.push_back(flap);
  return plan;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "k4_table2_sweep", "k8_single_trace", "k12_sharded_trace",
      "k4_faulted_mix"};
  return kNames;
}

Workload find_workload(std::string_view name, int nproc) {
  // At most 4 threads or shards: the k=12 shard count the workload is
  // defined with, and a k=4 pool's memory (~100 MB per trace) stays small.
  const int pool = std::clamp(nproc, 1, 4);
  if (name == "k4_table2_sweep" || name == "k4_faulted_mix") {
    return {std::string(name), 4, pool, 1};
  }
  if (name == "k8_single_trace") {
    return {std::string(name), 8, 1, 1};
  }
  if (name == "k12_sharded_trace") {
    return {std::string(name), 12, 1, pool};
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return 1 + z % 1'000'000;
}

std::vector<RunItem> build_run_list(const Workload& w, std::uint64_t seed) {
  std::vector<RunItem> out;
  std::uint64_t cell = 0;
  const auto next_seed = [&] { return cell_seed(seed, cell++); };

  if (w.name == "k4_table2_sweep") {
    for (int round = 0; round < 12; ++round) {
      for (const AnomalyType t : kTable2) {
        out.push_back(item(w, t, next_seed()));
      }
    }
  } else if (w.name == "k8_single_trace") {
    // The cells the k=8 golden tier records as confidently wrong ride in
    // every list, so a fix (or a regression) shows whatever the seed.
    const std::pair<AnomalyType, std::uint64_t> anchors[] = {
        {AnomalyType::kInLoopDeadlock, 1},
        {AnomalyType::kInLoopDeadlock, 3},
        {AnomalyType::kOutOfLoopDeadlockContention, 7},
    };
    for (const auto& [anchor, anchor_seed] : anchors) {
      for (const AnomalyType t :
           {AnomalyType::kMicroBurstIncast, AnomalyType::kInLoopDeadlock,
            AnomalyType::kOutOfLoopDeadlockContention}) {
        out.push_back(item(w, t, next_seed()));
      }
      out.push_back(item(w, anchor, anchor_seed));
    }
  } else if (w.name == "k12_sharded_trace") {
    for (int round = 0; round < 2; ++round) {
      for (const AnomalyType t :
           {AnomalyType::kMicroBurstIncast, AnomalyType::kInLoopDeadlock}) {
        out.push_back(item(w, t, next_seed()));
      }
    }
  } else if (w.name == "k4_faulted_mix") {
    for (int round = 0; round < 2; ++round) {
      std::size_t fleet = 0;
      for (const AnomalyType t : kTable2) {
        RunItem loss = item(w, t, next_seed(), "collect-loss");
        loss.cfg.faults = collect_loss_plan();
        out.push_back(std::move(loss));
        RunItem pfc = item(w, t, next_seed(), "pfc-loss");
        pfc.cfg.faults = fault::FaultPlan::uniform_pfc_loss(0.05, 1);
        out.push_back(std::move(pfc));
        RunItem flap = item(w, t, next_seed(), "flap-reconverge");
        flap.cfg.faults = flap_plan();
        out.push_back(std::move(flap));
        for (int i = 0; i < 2; ++i, ++fleet) {
          const auto traffic = kFleetTraffic[fleet / 4];
          RunItem f = item(w, kFleet[fleet % 4], next_seed(),
                           hawkeye::workload::to_string(traffic));
          f.cfg.fleet_workload = traffic;
          out.push_back(std::move(f));
        }
      }
    }
  } else {
    throw std::invalid_argument("unknown workload: " + w.name);
  }
  return out;
}

}  // namespace perfbench
