#pragma once

// The traced run's replay of eval::run_one as a sequence of public calls
// (craft_scenario, Testbed, install, background_flows, run_for,
// build_provenance, diagnose, refine_fleet_verdict), with a span around
// each call and the layers' public counters read at the same boundaries.

#include <cstdint>
#include <vector>

#include "eval/runner.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// One timed interval. `parent` names the enclosing span; every span of a
/// trace carries that trace's list index as its request id.
struct Span {
  const char* name = "";
  const char* parent = "";
  double start_s = 0;
  double end_s = 0;
  double seconds() const { return end_s - start_s; }
};

struct StagedTrace {
  std::vector<Span> spans;  ///< "trace" (the root) first
  double span_s(const char* name) const;

  double build_mb = 0;           ///< heap growth across the Testbed ctor
  std::uint64_t flows = 0;       ///< crafted + background
  std::uint64_t events = 0;
  double sim_ms = 0;             ///< simulated horizon
  hawkeye::sim::Simulator::ShardStats shard;
  double shard_imbalance = 0;    ///< max/mean per-shard events, 0 unsharded
  // device
  std::uint64_t data_hops = 0, hop_bytes = 0, pause_frames = 0,
                pfc_injected = 0, drops = 0, retransmissions = 0;
  std::uint64_t routing_epochs = 0;
  std::uint64_t faults_injected = 0;  ///< sum of the injector counters
  // collect, summed over every episode of the run
  std::uint64_t triggers = 0, snapshot_requests = 0, episodes = 0,
                polling_packets = 0, repolls = 0, stale_epochs = 0,
                failed = 0;
  std::size_t prov_ports = 0, prov_flows = 0;
};

/// Replay `cfg` stage by stage. `fleet` is the fleet evidence run_one
/// assembled for the same config; when non-empty the refinement stage runs
/// on it. Simulates exactly what run_one simulates, so `events` must equal
/// RunResult::sim_events.
StagedTrace run_staged(const hawkeye::eval::RunConfig& cfg,
                       const hawkeye::diagnosis::FleetEvidence& fleet);

}  // namespace perfbench
