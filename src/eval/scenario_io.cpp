#include "eval/scenario_io.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "eval/canonical.hpp"

namespace hawkeye::eval {

namespace {

using diagnosis::AnomalyType;
using workload::FleetWorkload;

constexpr AnomalyType kAllAnomalies[] = {
    AnomalyType::kNone,
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
    AnomalyType::kDegradedLink,
    AnomalyType::kLinkSpeedMismatch,
    AnomalyType::kHostPcieBottleneck,
    AnomalyType::kOversubscribedDownlink,
};
constexpr Method kAllMethods[] = {
    Method::kHawkeye,    Method::kFullPolling, Method::kVictimOnly,
    Method::kSpiderMon,  Method::kNetSight,
};
constexpr FleetWorkload kAllFleetWorkloads[] = {
    FleetWorkload::kCrafted,
    FleetWorkload::kRpcClientServer,
    FleetWorkload::kAllToAll,
};

std::string_view mode_name(telemetry::TelemetryMode m) {
  switch (m) {
    case telemetry::TelemetryMode::kFull: return "full";
    case telemetry::TelemetryMode::kPortOnly: return "port-only";
    case telemetry::TelemetryMode::kFlowOnly: return "flow-only";
    case telemetry::TelemetryMode::kOff: return "off";
  }
  return "?";
}

[[noreturn]] void fail(const std::string& line, const std::string& why) {
  throw std::invalid_argument("scenario_io: " + why + " in line \"" + line +
                              "\"");
}

std::int64_t to_i64(const std::string& line, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    fail(line, "bad integer");
  }
  return r;
}

std::uint64_t to_u64(const std::string& line, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
      (!v.empty() && v[0] == '-')) {
    fail(line, "bad unsigned integer");
  }
  return r;
}

double to_f(const std::string& line, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    fail(line, "bad number");
  }
  return r;
}

bool to_bool(const std::string& line, const std::string& v) {
  if (v == "0") return false;
  if (v == "1") return true;
  fail(line, "bad bool (want 0 or 1)");
}

net::NodeId to_node(const std::string& line, const std::string& v) {
  return static_cast<net::NodeId>(to_i64(line, v));
}

AnomalyType to_anomaly(const std::string& line, const std::string& v) {
  for (const AnomalyType t : kAllAnomalies) {
    if (diagnosis::to_string(t) == v) return t;
  }
  fail(line, "unknown anomaly type");
}

Method to_method(const std::string& line, const std::string& v) {
  for (const Method m : kAllMethods) {
    if (to_string(m) == v) return m;
  }
  fail(line, "unknown method");
}

FleetWorkload to_fleet_workload(const std::string& line,
                                const std::string& v) {
  for (const FleetWorkload w : kAllFleetWorkloads) {
    if (workload::to_string(w) == v) return w;
  }
  fail(line, "unknown fleet workload");
}

telemetry::TelemetryMode to_tele_mode(const std::string& line,
                                      const std::string& v) {
  for (const telemetry::TelemetryMode m :
       {telemetry::TelemetryMode::kFull, telemetry::TelemetryMode::kPortOnly,
        telemetry::TelemetryMode::kFlowOnly, telemetry::TelemetryMode::kOff}) {
    if (mode_name(m) == v) return m;
  }
  fail(line, "unknown telemetry mode");
}

std::vector<std::string> split(const std::string& s, char d) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(d, pos);
    if (next == std::string::npos) {
      out.push_back(s.substr(pos));
      return out;
    }
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
}

/// Grow-on-demand spec access: the serializer emits indices in order, but
/// the parser tolerates any order so a hand-edited fixture stays valid.
template <typename V>
V& spec_at(std::vector<V>& v, const std::string& line,
           const std::string& idx) {
  const std::int64_t i = to_i64(line, idx);
  if (i < 0 || i > 4096) fail(line, "spec index out of range");
  if (v.size() <= static_cast<std::size_t>(i)) {
    v.resize(static_cast<std::size_t>(i) + 1);
  }
  return v[static_cast<std::size_t>(i)];
}

void parse_fault_key(fault::FaultPlan& fp, const std::string& line,
                     const std::vector<std::string>& key,
                     const std::string& val) {
  // key[0] == "faults"
  if (key.size() == 2 && key[1] == "seed") {
    fp.seed = to_u64(line, val);
    return;
  }
  if (key.size() == 3 && key[1] == "rtt_jitter") {
    if (key[2] == "prob") fp.rtt_jitter.prob = to_f(line, val);
    else if (key[2] == "magnitude") fp.rtt_jitter.magnitude = to_f(line, val);
    else fail(line, "unknown key");
    return;
  }
  if (key.size() != 4) fail(line, "unknown key");
  const std::string& list = key[1];
  const std::string& idx = key[2];
  const std::string& f = key[3];
  if (list == "poll") {
    fault::PollFaultSpec& s = spec_at(fp.poll_faults, line, idx);
    if (f == "sw") s.sw = to_node(line, val);
    else if (f == "drop_prob") s.drop_prob = to_f(line, val);
    else if (f == "duplicate_prob") s.duplicate_prob = to_f(line, val);
    else if (f == "delay_prob") s.delay_prob = to_f(line, val);
    else if (f == "delay_ns") s.delay_ns = to_i64(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "dma") {
    fault::DmaFaultSpec& s = spec_at(fp.dma_faults, line, idx);
    if (f == "sw") s.sw = to_node(line, val);
    else if (f == "fail_prob") s.fail_prob = to_f(line, val);
    else if (f == "stale_prob") s.stale_prob = to_f(line, val);
    else if (f == "extra_delay") s.extra_delay = to_i64(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "blackout") {
    fault::AgentBlackout& s = spec_at(fp.blackouts, line, idx);
    if (f == "sw") s.sw = to_node(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "flap") {
    fault::LinkFlapSpec& s = spec_at(fp.link_flaps, line, idx);
    if (f == "node_a") s.node_a = to_node(line, val);
    else if (f == "node_b") s.node_b = to_node(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else if (f == "down_ns") s.down_ns = to_i64(line, val);
    else if (f == "period_ns") s.period_ns = to_i64(line, val);
    else if (f == "jitter") s.jitter = to_f(line, val);
    else if (f == "holddown_ns") s.holddown_ns = to_i64(line, val);
    else if (f == "restore_holddown_ns") {
      s.restore_holddown_ns = to_i64(line, val);
    } else fail(line, "unknown key");
  } else if (list == "pfc") {
    fault::PfcFrameFaultSpec& s = spec_at(fp.pfc_faults, line, idx);
    if (f == "sw") s.sw = to_node(line, val);
    else if (f == "port") s.port = static_cast<net::PortId>(to_i64(line, val));
    else if (f == "loss_prob") s.loss_prob = to_f(line, val);
    else if (f == "delay_prob") s.delay_prob = to_f(line, val);
    else if (f == "delay_ns") s.delay_ns = to_i64(line, val);
    else if (f == "affect_pause") s.affect_pause = to_bool(line, val);
    else if (f == "affect_resume") s.affect_resume = to_bool(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "degraded") {
    fault::DegradedLinkSpec& s = spec_at(fp.degraded_links, line, idx);
    if (f == "node_a") s.node_a = to_node(line, val);
    else if (f == "node_b") s.node_b = to_node(line, val);
    else if (f == "ber") s.ber = to_f(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "speed") {
    fault::LinkSpeedMismatchSpec& s = spec_at(fp.speed_mismatches, line, idx);
    if (f == "node_a") s.node_a = to_node(line, val);
    else if (f == "node_b") s.node_b = to_node(line, val);
    else if (f == "gbps") s.gbps = to_f(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "pcie") {
    fault::HostPcieBottleneckSpec& s = spec_at(fp.pcie_bottlenecks, line, idx);
    if (f == "host") s.host = to_node(line, val);
    else if (f == "drain_gbps") s.drain_gbps = to_f(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else if (list == "oversub") {
    fault::OversubscribedDownlinkSpec& s =
        spec_at(fp.oversub_downlinks, line, idx);
    if (f == "sw") s.sw = to_node(line, val);
    else if (f == "factor") s.factor = to_f(line, val);
    else if (f == "start") s.start = to_i64(line, val);
    else if (f == "stop") s.stop = to_i64(line, val);
    else fail(line, "unknown key");
  } else {
    fail(line, "unknown key");
  }
}

void parse_overlay_key(workload::ScenarioOverlay& o, const std::string& line,
                       const std::vector<std::string>& key,
                       const std::string& val) {
  if (key.size() != 2) fail(line, "unknown key");
  const std::string& f = key[1];
  if (f == "drop_flows") {
    o.drop_flows.clear();
    if (!val.empty()) {
      for (const std::string& tok : split(val, ',')) {
        const std::int64_t i = to_i64(line, tok);
        if (i < 0) fail(line, "negative flow index");
        o.drop_flows.push_back(static_cast<std::uint32_t>(i));
      }
    }
  } else if (f == "size_scale") o.size_scale = to_f(line, val);
  else if (f == "rate_scale") o.rate_scale = to_f(line, val);
  else if (f == "arrival_stride_ns") o.arrival_stride_ns = to_i64(line, val);
  else if (f == "duration_add_ns") o.duration_add_ns = to_i64(line, val);
  else if (f == "fault_rate_scale") o.fault_rate_scale = to_f(line, val);
  else if (f == "fault_window_scale") o.fault_window_scale = to_f(line, val);
  else fail(line, "unknown key");
}

}  // namespace

std::string serialize_case(const HuntCase& c) {
  std::ostringstream os;
  const auto put = [&os](const std::string& k, std::string_view v) {
    os << k << '=' << v << '\n';
  };
  const auto puti = [&os](const std::string& k, std::int64_t v) {
    os << k << '=' << v << '\n';
  };
  const auto putu = [&os](const std::string& k, std::uint64_t v) {
    os << k << '=' << v << '\n';
  };
  const auto putd = [&put](const std::string& k, double v) {
    put(k, canonical_double(v));
  };
  const RunConfig& cfg = c.cfg;

  os << "hawkeye-hunt-case v1\n";
  put("scenario", diagnosis::to_string(cfg.scenario));
  putu("seed", cfg.seed);
  put("method", to_string(cfg.method));
  puti("epoch_shift", cfg.epoch_shift);
  puti("epoch_index_bits", cfg.epoch_index_bits);
  putd("threshold_factor", cfg.threshold_factor);
  put("tele_mode", mode_name(cfg.tele_mode));
  puti("one_bit_meter", cfg.one_bit_meter ? 1 : 0);
  putd("background_load", cfg.background_load);
  puti("fat_tree_k", cfg.fat_tree_k);
  puti("shards", cfg.shards);
  puti("max_repolls", cfg.max_repolls);
  put("fleet_workload", workload::to_string(cfg.fleet_workload));
  putd("fleet_severity", cfg.fleet_severity);

  if (cfg.faults.enabled()) {
    const fault::FaultPlan& fp = cfg.faults;
    putu("faults.seed", fp.seed);
    for (std::size_t i = 0; i < fp.poll_faults.size(); ++i) {
      const std::string p = "faults.poll." + std::to_string(i) + ".";
      const fault::PollFaultSpec& s = fp.poll_faults[i];
      puti(p + "sw", s.sw);
      putd(p + "drop_prob", s.drop_prob);
      putd(p + "duplicate_prob", s.duplicate_prob);
      putd(p + "delay_prob", s.delay_prob);
      puti(p + "delay_ns", s.delay_ns);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    for (std::size_t i = 0; i < fp.dma_faults.size(); ++i) {
      const std::string p = "faults.dma." + std::to_string(i) + ".";
      const fault::DmaFaultSpec& s = fp.dma_faults[i];
      puti(p + "sw", s.sw);
      putd(p + "fail_prob", s.fail_prob);
      putd(p + "stale_prob", s.stale_prob);
      puti(p + "extra_delay", s.extra_delay);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    for (std::size_t i = 0; i < fp.blackouts.size(); ++i) {
      const std::string p = "faults.blackout." + std::to_string(i) + ".";
      const fault::AgentBlackout& s = fp.blackouts[i];
      puti(p + "sw", s.sw);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    for (std::size_t i = 0; i < fp.link_flaps.size(); ++i) {
      const std::string p = "faults.flap." + std::to_string(i) + ".";
      const fault::LinkFlapSpec& s = fp.link_flaps[i];
      puti(p + "node_a", s.node_a);
      puti(p + "node_b", s.node_b);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
      puti(p + "down_ns", s.down_ns);
      puti(p + "period_ns", s.period_ns);
      putd(p + "jitter", s.jitter);
      puti(p + "holddown_ns", s.holddown_ns);
      puti(p + "restore_holddown_ns", s.restore_holddown_ns);
    }
    for (std::size_t i = 0; i < fp.pfc_faults.size(); ++i) {
      const std::string p = "faults.pfc." + std::to_string(i) + ".";
      const fault::PfcFrameFaultSpec& s = fp.pfc_faults[i];
      puti(p + "sw", s.sw);
      puti(p + "port", s.port);
      putd(p + "loss_prob", s.loss_prob);
      putd(p + "delay_prob", s.delay_prob);
      puti(p + "delay_ns", s.delay_ns);
      puti(p + "affect_pause", s.affect_pause ? 1 : 0);
      puti(p + "affect_resume", s.affect_resume ? 1 : 0);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    if (fp.rtt_jitter.prob != 0 || fp.rtt_jitter.magnitude != 0) {
      putd("faults.rtt_jitter.prob", fp.rtt_jitter.prob);
      putd("faults.rtt_jitter.magnitude", fp.rtt_jitter.magnitude);
    }
    for (std::size_t i = 0; i < fp.degraded_links.size(); ++i) {
      const std::string p = "faults.degraded." + std::to_string(i) + ".";
      const fault::DegradedLinkSpec& s = fp.degraded_links[i];
      puti(p + "node_a", s.node_a);
      puti(p + "node_b", s.node_b);
      putd(p + "ber", s.ber);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    for (std::size_t i = 0; i < fp.speed_mismatches.size(); ++i) {
      const std::string p = "faults.speed." + std::to_string(i) + ".";
      const fault::LinkSpeedMismatchSpec& s = fp.speed_mismatches[i];
      puti(p + "node_a", s.node_a);
      puti(p + "node_b", s.node_b);
      putd(p + "gbps", s.gbps);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    for (std::size_t i = 0; i < fp.pcie_bottlenecks.size(); ++i) {
      const std::string p = "faults.pcie." + std::to_string(i) + ".";
      const fault::HostPcieBottleneckSpec& s = fp.pcie_bottlenecks[i];
      puti(p + "host", s.host);
      putd(p + "drain_gbps", s.drain_gbps);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
    for (std::size_t i = 0; i < fp.oversub_downlinks.size(); ++i) {
      const std::string p = "faults.oversub." + std::to_string(i) + ".";
      const fault::OversubscribedDownlinkSpec& s = fp.oversub_downlinks[i];
      puti(p + "sw", s.sw);
      putd(p + "factor", s.factor);
      puti(p + "start", s.start);
      puti(p + "stop", s.stop);
    }
  }

  if (cfg.overlay.enabled()) {
    const workload::ScenarioOverlay& o = cfg.overlay;
    if (!o.drop_flows.empty()) {
      std::string v;
      for (std::size_t i = 0; i < o.drop_flows.size(); ++i) {
        if (i != 0) v += ',';
        v += std::to_string(o.drop_flows[i]);
      }
      put("overlay.drop_flows", v);
    }
    putd("overlay.size_scale", o.size_scale);
    putd("overlay.rate_scale", o.rate_scale);
    puti("overlay.arrival_stride_ns", o.arrival_stride_ns);
    puti("overlay.duration_add_ns", o.duration_add_ns);
    putd("overlay.fault_rate_scale", o.fault_rate_scale);
    putd("overlay.fault_window_scale", o.fault_window_scale);
  }

  if (!c.expected_class.empty()) {
    put("expected.class", c.expected_class);
    put("expected.verdict", diagnosis::to_string(c.expected_verdict));
    put("expected.truth", diagnosis::to_string(c.expected_truth));
  }
  if (!c.note.empty()) {
    std::string n = c.note;
    for (char& ch : n) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    put("note", n);
  }
  return os.str();
}

HuntCase parse_case(const std::string& text) {
  HuntCase c;
  std::istringstream in(text);
  std::string line;
  bool saw_magic = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != "hawkeye-hunt-case v1") {
        fail(line, "bad magic/version (want 'hawkeye-hunt-case v1')");
      }
      saw_magic = true;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line, "missing '='");
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    RunConfig& cfg = c.cfg;
    if (key == "scenario") cfg.scenario = to_anomaly(line, val);
    else if (key == "seed") cfg.seed = to_u64(line, val);
    else if (key == "method") cfg.method = to_method(line, val);
    else if (key == "epoch_shift") {
      cfg.epoch_shift = static_cast<int>(to_i64(line, val));
    } else if (key == "epoch_index_bits") {
      cfg.epoch_index_bits = static_cast<int>(to_i64(line, val));
    } else if (key == "threshold_factor") {
      cfg.threshold_factor = to_f(line, val);
    } else if (key == "tele_mode") cfg.tele_mode = to_tele_mode(line, val);
    else if (key == "one_bit_meter") cfg.one_bit_meter = to_bool(line, val);
    else if (key == "background_load") {
      cfg.background_load = to_f(line, val);
    } else if (key == "fat_tree_k") {
      cfg.fat_tree_k = static_cast<int>(to_i64(line, val));
    } else if (key == "shards") {
      cfg.shards = static_cast<int>(to_i64(line, val));
    } else if (key == "max_repolls") {
      cfg.max_repolls = static_cast<std::uint32_t>(to_i64(line, val));
    } else if (key == "fleet_workload") {
      cfg.fleet_workload = to_fleet_workload(line, val);
    } else if (key == "fleet_severity") {
      cfg.fleet_severity = to_f(line, val);
    } else if (key == "expected.class") c.expected_class = val;
    else if (key == "expected.verdict") {
      c.expected_verdict = to_anomaly(line, val);
    } else if (key == "expected.truth") {
      c.expected_truth = to_anomaly(line, val);
    } else if (key == "note") c.note = val;
    else if (key.rfind("faults.", 0) == 0) {
      parse_fault_key(cfg.faults, line, split(key, '.'), val);
    } else if (key.rfind("overlay.", 0) == 0) {
      parse_overlay_key(cfg.overlay, line, split(key, '.'), val);
    } else {
      fail(line, "unknown key");
    }
  }
  if (!saw_magic) fail("<empty>", "missing magic line");
  // A parsed case must be installable: a corrupted fixture fails here, at
  // parse time, instead of deep inside Testbed::install_faults.
  if (c.cfg.faults.enabled()) {
    const std::string err = c.cfg.faults.validate();
    if (!err.empty()) fail(err, "invalid fault plan");
  }
  {
    const std::string err = c.cfg.overlay.validate();
    if (!err.empty()) fail(err, "invalid overlay");
  }
  {
    const std::string err = validate(c.cfg);
    if (!err.empty()) {
      throw std::invalid_argument("scenario_io: invalid run config: " + err);
    }
  }
  return c;
}

std::uint64_t case_fingerprint(const HuntCase& c) {
  const std::string s = serialize_case(c);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace hawkeye::eval
