#include "staged.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string_view>

#include "eval/testbed.hpp"
#include "provenance/builder.hpp"

namespace perfbench {

namespace eval = hawkeye::eval;
namespace sim = hawkeye::sim;

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double StagedTrace::span_s(const char* name) const {
  double s = 0;
  for (const Span& sp : spans) {
    if (std::string_view(sp.name) == name) s += sp.seconds();
  }
  return s;
}

namespace {

/// Heap bytes in use (all malloc arenas), MB. Unlike resident memory it
/// grows with every allocation, also when freed pages are reused.
double heap_mb() {
  return static_cast<double>(mallinfo2().uordblks) / 1e6;
}

/// The Testbed options run_one derives from `cfg` and the crafted spec:
/// k>8 trigger headroom, the repoll budget under faults, the fleet
/// retransmit trigger and scenario PFC thresholds.
eval::Testbed::Options testbed_options(
    const eval::RunConfig& cfg, const hawkeye::workload::ScenarioSpec& spec) {
  eval::Testbed::Options opts;
  opts.fat_tree_k = cfg.fat_tree_k;
  opts.switch_cfg.telemetry.epoch.epoch_shift = cfg.epoch_shift;
  opts.switch_cfg.telemetry.epoch.index_bits = cfg.epoch_index_bits;
  opts.switch_cfg.telemetry.mode = cfg.tele_mode;
  opts.switch_cfg.telemetry.one_bit_meter = cfg.one_bit_meter;
  opts.agent_cfg.threshold_factor = cfg.threshold_factor;
  if (cfg.fat_tree_k > 8) opts.agent_cfg.hop_noise_headroom = sim::us(1);
  opts.agent_cfg.full_polling = cfg.method == eval::Method::kFullPolling ||
                                cfg.method == eval::Method::kNetSight;
  opts.switch_agent_cfg.trace_pfc_causality =
      cfg.method == eval::Method::kHawkeye;
  opts.shards = opts.agent_cfg.full_polling ? 1 : cfg.shards;
  if (cfg.faults.enabled()) opts.agent_cfg.max_repolls = cfg.max_repolls;
  if (spec.xoff_bytes) opts.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
  if (spec.xon_bytes) opts.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;
  if (spec.faults.has_value() && spec.faults->fleet_enabled()) {
    opts.agent_cfg.max_repolls = cfg.max_repolls;
    opts.agent_cfg.retx_trigger_pkts = 64;
  }
  return opts;
}

/// Scoped span: records [construction, destruction) into `out`.
class SpanScope {
 public:
  SpanScope(std::vector<Span>& out, const char* name, const char* parent)
      : out_(out), span_{name, parent, now_s(), 0} {}
  ~SpanScope() {
    span_.end_s = now_s();
    out_.push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<Span>& out_;
  Span span_;
};

/// run_one's episode merge, reduced to what provenance reads: the victim's
/// post-onset episodes (pre-onset only as a last resort), earliest report
/// per switch first.
hawkeye::collect::Episode merge_victim_episodes(
    eval::Testbed& tb, const hawkeye::workload::ScenarioSpec& spec) {
  hawkeye::collect::Episode merged;
  bool any = false;
  for (const bool post_onset : {true, false}) {
    for (const std::uint64_t id : tb.collector.episode_order()) {
      const hawkeye::collect::Episode* cand = tb.collector.episode(id);
      if (cand == nullptr || !(cand->victim == spec.victim)) continue;
      if ((cand->triggered_at >= spec.anomaly_start) != post_onset) continue;
      if (!post_onset && any) continue;
      if (!any) {
        merged.probe_id = cand->probe_id;
        merged.victim = cand->victim;
        merged.triggered_at = cand->triggered_at;
      }
      any = true;
      for (const auto& [sw, rep] : cand->reports) {
        if (!merged.put_report(sw, rep)) {
          hawkeye::telemetry::merge_report(merged.report_ref(sw), rep);
        }
      }
    }
    if (any && !merged.reports.empty()) break;
  }
  return merged;
}

void count_layers(eval::Testbed& tb, StagedTrace& out) {
  out.events = tb.simu.executed_events();
  out.shard = tb.simu.shard_stats();
  const std::vector<std::uint64_t> per_shard = tb.simu.per_shard_executed();
  if (!per_shard.empty()) {
    std::uint64_t max = 0, sum = 0;
    for (const std::uint64_t n : per_shard) {
      max = std::max(max, n);
      sum += n;
    }
    if (sum > 0) {
      out.shard_imbalance = static_cast<double>(max) *
                            static_cast<double>(per_shard.size()) /
                            static_cast<double>(sum);
    }
  }
  out.data_hops = tb.net.data_hops();
  out.hop_bytes = tb.net.data_hop_bytes();
  out.drops = tb.net.drops();
  for (const hawkeye::net::NodeId sw : tb.ft.topo.switches()) {
    out.pause_frames += tb.switch_at(sw).pause_frames_sent();
  }
  for (const hawkeye::net::NodeId h : tb.ft.topo.hosts()) {
    const hawkeye::device::Host& host = tb.host(h);
    out.pfc_injected += host.pfc_frames_injected();
    out.retransmissions += host.retransmissions();
  }
  out.routing_epochs = tb.routing.epoch();
  if (const hawkeye::fault::FaultInjector* f = tb.faults.get()) {
    out.faults_injected =
        f->polls_dropped() + f->polls_duplicated() + f->polls_delayed() +
        f->blackout_drops() + f->dma_failed() + f->dma_stale() +
        f->rtt_jittered() + f->link_drops() + f->pfc_pause_lost() +
        f->pfc_resume_lost() + f->pfc_frames_delayed() + f->crc_drops() +
        f->rate_limited_pkts() + f->host_drain_delayed();
  }
  out.triggers = tb.agent->triggers();
  out.snapshot_requests = tb.collector.snapshot_requests();
  for (const std::uint64_t id : tb.collector.episode_order()) {
    const hawkeye::collect::Episode* ep = tb.collector.episode(id);
    if (ep == nullptr) continue;
    ++out.episodes;
    out.polling_packets += ep->polling_packets;
    out.repolls += ep->repolls;
    out.stale_epochs += ep->stale_epochs_rejected;
    out.failed += ep->failed_collections;
  }
}

}  // namespace

StagedTrace run_staged(const eval::RunConfig& cfg,
                       const hawkeye::diagnosis::FleetEvidence& fleet) {
  StagedTrace out;
  const Span root_open{"trace", "", now_s(), 0};

  sim::Rng rng(cfg.seed);
  std::optional<hawkeye::workload::ScenarioSpec> crafted;
  {
    SpanScope s(out.spans, "workload.craft", "trace");
    crafted = eval::craft_scenario(cfg, rng);
  }
  const hawkeye::workload::ScenarioSpec& spec = *crafted;
  const eval::Testbed::Options opts = testbed_options(cfg, spec);

  std::optional<eval::Testbed> tb;
  {
    const double heap0 = heap_mb();
    SpanScope s(out.spans, "testbed.build", "trace");
    tb.emplace(opts);
    out.build_mb = heap_mb() - heap0;
  }
  {
    SpanScope s(out.spans, "testbed.install", "trace");
    tb->install(spec);
  }
  {
    SpanScope s(out.spans, "workload.background", "trace");
    const auto flows = hawkeye::workload::background_flows(
        tb->ft, rng, cfg.background_load, sim::us(5),
        spec.duration - sim::us(100));
    for (const auto& f : flows) tb->add_flow(f);
    out.flows = spec.flows.size() + flows.size();
  }
  sim::Time margin = 2 * opts.collector_cfg.snapshot_delay;
  if (cfg.faults.enabled() ||
      (spec.faults.has_value() && spec.faults->fleet_enabled())) {
    margin += sim::ms(4);
  }
  {
    SpanScope s(out.spans, "sim.run", "trace");
    tb->run_for(spec.duration + margin);
  }
  out.sim_ms = static_cast<double>(spec.duration + margin) / 1e6;
  count_layers(*tb, out);

  const hawkeye::collect::Episode ep = merge_victim_episodes(*tb, spec);
  if (!ep.reports.empty()) {
    hawkeye::provenance::BuilderConfig bcfg;
    bcfg.epoch_ns = opts.switch_cfg.telemetry.epoch.epoch_ns();
    if (cfg.fat_tree_k > 8 || cfg.background_load > 0.1) {
      bcfg.trigger_scope_ns = bcfg.epoch_ns;
    }
    std::optional<hawkeye::provenance::ProvenanceGraph> g;
    {
      SpanScope s(out.spans, "provenance.build", "trace");
      g = hawkeye::provenance::build_provenance(ep, tb->ft.topo, bcfg);
    }
    out.prov_ports = g->port_count();
    out.prov_flows = g->flow_count();
    hawkeye::diagnosis::DiagnosisConfig dcfg;
    dcfg.epoch_ns = bcfg.epoch_ns;
    dcfg.signature_rank = true;
    std::optional<hawkeye::diagnosis::DiagnosisResult> dx;
    {
      SpanScope s(out.spans, "diagnosis.diagnose", "trace");
      dx = hawkeye::diagnosis::diagnose(*g, tb->ft.topo, tb->routing,
                                        spec.victim, dcfg);
    }
    if (!fleet.empty()) {
      SpanScope s(out.spans, "diagnosis.refine", "trace");
      dx = hawkeye::diagnosis::refine_fleet_verdict(*dx, fleet, tb->ft.topo,
                                                    tb->routing, spec.victim);
    }
  }
  {
    SpanScope s(out.spans, "testbed.teardown", "trace");
    tb.reset();
  }
  Span root = root_open;
  root.end_s = now_s();
  out.spans.insert(out.spans.begin(), root);
  return out;
}

}  // namespace perfbench
