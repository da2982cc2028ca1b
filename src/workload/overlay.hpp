#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::workload {

/// Deterministic post-crafting mutations of a ScenarioSpec — the workload
/// half of the misdiagnosis hunter's search space (`hawkeye hunt`,
/// DESIGN.md §15). A scenario factory crafts the anomaly from (type, seed);
/// the overlay then perturbs the crafted trace *without touching the RNG
/// stream*: every knob is an explicit value, so (RunConfig, overlay) is a
/// complete, replayable description of a mutated run and two applications
/// of the same overlay are byte-identical.
///
/// Ground-truth protection: the victim flow and the crafted root-cause
/// flows are never dropped (removing them would invalidate the scenario's
/// GroundTruth, turning every verdict into noise), and the victim is never
/// size/rate-scaled. Everything else — feeder flows, background shape,
/// arrival offsets, fault windows and rates — is fair game: those are
/// exactly the perturbations that expose brittle diagnosis rules while the
/// anomaly itself stays real.
struct ScenarioOverlay {
  /// Indices into the crafted spec.flows to remove, pre-mutation order.
  /// Out-of-range and protected (victim / root-cause) indices are skipped,
  /// so a shrinking loop can propose aggressive chunks safely.
  std::vector<std::uint32_t> drop_flows;
  /// Multiply every non-victim flow's bytes (clamped to >= 1 MTU).
  double size_scale = 1.0;
  /// Multiply every non-victim flow's rate cap where one is set.
  double rate_scale = 1.0;
  /// Flow i's start is shifted by i * stride (victim excluded) — staggers
  /// the crafted burst without re-drawing arrivals.
  sim::Time arrival_stride_ns = 0;
  /// Added to the trace duration (clamped so the run still covers the
  /// anomaly onset plus one detection interval).
  sim::Time duration_add_ns = 0;
  /// Scale every probabilistic rate in the scenario's installed FaultPlan
  /// (poll drop/dup/delay, DMA fail/stale, PFC loss/delay, BER). Applied
  /// after run_one merges cfg-level faults into the spec, renormalized so
  /// per-spec probability sums stay <= 1.
  double fault_rate_scale = 1.0;
  /// Scale every bounded fault window's length (start fixed, stop pulled
  /// in; unbounded stop < 0 windows and flap down_ns shrink too).
  double fault_window_scale = 1.0;

  bool enabled() const {
    return !drop_flows.empty() || size_scale != 1.0 || rate_scale != 1.0 ||
           arrival_stride_ns != 0 || duration_add_ns != 0 ||
           fault_rate_scale != 1.0 || fault_window_scale != 1.0;
  }

  /// Empty string when applicable, else the first problem (non-positive
  /// scale factors and the like). Mirrors fault::FaultPlan::validate.
  std::string validate() const;

  /// `(case-file name, member)` pairs in case-file order, the list
  /// eval::serialize_case and parse_case walk (see fault::PollFaultSpec).
  static void visit_fields(auto& o, auto&& f) {
    f("drop_flows", o.drop_flows);
    f("size_scale", o.size_scale);
    f("rate_scale", o.rate_scale);
    f("arrival_stride_ns", o.arrival_stride_ns);
    f("duration_add_ns", o.duration_add_ns);
    f("fault_rate_scale", o.fault_rate_scale);
    f("fault_window_scale", o.fault_window_scale);
  }
};

/// Apply the overlay to a freshly crafted spec (identity when disabled).
/// Deterministic, draws no randomness; see ScenarioOverlay for the
/// ground-truth protection rules.
void apply_overlay(ScenarioSpec& spec, const ScenarioOverlay& o);

}  // namespace hawkeye::workload
