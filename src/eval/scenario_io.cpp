#include "eval/scenario_io.hpp"

#include <charconv>
#include <cmath>
#include <concepts>
#include <sstream>
#include <type_traits>
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

constexpr telemetry::TelemetryMode kAllTeleModes[] = {
    telemetry::TelemetryMode::kFull,
    telemetry::TelemetryMode::kPortOnly,
    telemetry::TelemetryMode::kFlowOnly,
    telemetry::TelemetryMode::kOff,
};
std::string_view to_string(telemetry::TelemetryMode m) {
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

// ---- encode: the value text serialize_case writes ----

std::string encode(bool v) { return v ? "1" : "0"; }
template <std::integral T>
std::string encode(T v) {
  return std::to_string(v);
}
std::string encode(double v) { return canonical_double(v); }
template <typename E>
  requires std::is_enum_v<E>
std::string encode(E e) {
  return std::string(to_string(e));
}
std::string encode(const std::vector<std::uint32_t>& v) {
  std::string out;
  for (const std::uint32_t i : v) {
    out += (out.empty() ? "" : ",") + std::to_string(i);
  }
  return out;
}
/// One line per key: embedded newlines flatten to spaces.
std::string encode(std::string v) {
  for (char& ch : v) {
    if (ch == '\n' || ch == '\r') ch = ' ';
  }
  return v;
}

template <typename E, std::size_t N>
std::string decode_name(std::string_view text, E& out, const E (&all)[N],
                        const char* what) {
  for (const E e : all) {
    if (encode(e) == text) {
      out = e;
      return {};
    }
  }
  return std::string("unknown ") + what;
}

template <typename T>
void decode_into(T& member, std::string_view val, const std::string& line) {
  const std::string why = decode(val, member);
  if (!why.empty()) fail(line, why);
}

/// Decode `val` into the field `obj` lists as `name` (its visit_fields);
/// false when it lists no such name.
template <typename T>
bool set_field(T& obj, std::string_view name, std::string_view val,
               const std::string& line) {
  bool found = false;
  T::visit_fields(obj, [&](std::string_view field, auto& member) {
    if (found || field != name) return;
    found = true;
    decode_into(member, val, line);
  });
  return found;
}

/// A `faults.` key (prefix stripped): `seed`, `<family>.<index>.<field>`
/// for a spec list, `rtt_jitter.<field>` for the singleton. Spec indices
/// grow the list on demand: the serializer emits them in order, but the
/// parser tolerates any order so a hand-edited fixture stays valid.
bool set_fault_key(fault::FaultPlan& fp, std::string_view key,
                   std::string_view val, const std::string& line) {
  if (key == "seed") {
    decode_into(fp.seed, val, line);
    return true;
  }
  bool found = false;
  fault::FaultPlan::visit_families(fp, [&](const fault::FaultFamily& fam,
                                           auto& specs) {
    if (found || !key.starts_with(fam.key) ||
        key.substr(fam.key.size(), 1) != ".") {
      return;
    }
    const std::string_view rest = key.substr(fam.key.size() + 1);
    if constexpr (fault::SpecList<decltype(specs)>) {
      const std::size_t dot = rest.find('.');
      if (dot == std::string_view::npos) return;
      std::uint32_t i = 0;
      decode_into(i, rest.substr(0, dot), line);
      if (i > 4096) fail(line, "spec index out of range");
      if (specs.size() <= i) specs.resize(i + 1);
      found = set_field(specs[i], rest.substr(dot + 1), val, line);
    } else {
      found = set_field(specs, rest, val, line);
    }
  });
  return found;
}

}  // namespace

template <DecodableNumber T>
std::string decode(std::string_view text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) return "out of range";
  if (ec != std::errc{} || ptr != end) {
    return std::is_floating_point_v<T> ? "bad number"
           : std::is_signed_v<T>       ? "bad integer"
                                       : "bad unsigned integer";
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return "not a finite number";
  }
  out = v;
  return {};
}
template std::string decode(std::string_view, std::int32_t&);
template std::string decode(std::string_view, std::int64_t&);
template std::string decode(std::string_view, std::uint32_t&);
template std::string decode(std::string_view, std::uint64_t&);
template std::string decode(std::string_view, double&);
std::string decode(std::string_view text, bool& out) {
  if (text != "0" && text != "1") return "bad bool (want 0 or 1)";
  out = text == "1";
  return {};
}
std::string decode(std::string_view text, AnomalyType& out) {
  return decode_name(text, out, kAllAnomalies, "anomaly type");
}
std::string decode(std::string_view text, Method& out) {
  return decode_name(text, out, kAllMethods, "method");
}
std::string decode(std::string_view text, telemetry::TelemetryMode& out) {
  return decode_name(text, out, kAllTeleModes, "telemetry mode");
}
std::string decode(std::string_view text, FleetWorkload& out) {
  return decode_name(text, out, kAllFleetWorkloads, "fleet workload");
}
std::string decode(std::string_view text, std::vector<std::uint32_t>& out) {
  std::vector<std::uint32_t> v;
  for (std::size_t pos = 0; !text.empty();) {
    const std::size_t comma = text.find(',', pos);
    std::uint32_t x = 0;
    const std::string why = decode(text.substr(pos, comma - pos), x);
    if (!why.empty()) return why;
    v.push_back(x);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  out = std::move(v);
  return {};
}
std::string decode(std::string_view text, std::string& out) {
  out = text;
  return {};
}

std::string serialize_case(const HuntCase& c) {
  std::ostringstream os;
  // An empty list or string (overlay.drop_flows, note) is not written.
  const auto put = [&os](std::string_view key, const auto& v) {
    if constexpr (requires { v.empty(); }) {
      if (v.empty()) return;
    }
    os << key << '=' << encode(v) << '\n';
  };
  const auto put_fields = [&put](const std::string& prefix, const auto& obj) {
    std::remove_cvref_t<decltype(obj)>::visit_fields(
        obj, [&](std::string_view name, const auto& v) {
          put(prefix + std::string(name), v);
        });
  };

  os << "hawkeye-hunt-case v1\n";
  RunConfig::visit_fields(c.cfg, put);
  const fault::FaultPlan& fp = c.cfg.faults;
  if (fp.enabled()) {
    put("faults.seed", fp.seed);
    fault::FaultPlan::visit_families(
        fp, [&](const fault::FaultFamily& fam, const auto& specs) {
          const std::string prefix = "faults." + std::string(fam.key) + ".";
          if constexpr (fault::SpecList<decltype(specs)>) {
            for (std::size_t i = 0; i < specs.size(); ++i) {
              put_fields(prefix + std::to_string(i) + ".", specs[i]);
            }
          } else if (specs != std::remove_cvref_t<decltype(specs)>{}) {
            put_fields(prefix, specs);
          }
        });
  }
  if (c.cfg.overlay.enabled()) put_fields("overlay.", c.cfg.overlay);
  HuntCase::visit_fields(c, [&](std::string_view key, const auto& v) {
    if (!c.expected_class.empty() || !key.starts_with("expected.")) {
      put(key, v);
    }
  });
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
    const std::string_view key = std::string_view(line).substr(0, eq);
    const std::string_view val = std::string_view(line).substr(eq + 1);
    const bool known =
        key.starts_with("faults.")
            ? set_fault_key(c.cfg.faults, key.substr(7), val, line)
        : key.starts_with("overlay.")
            ? set_field(c.cfg.overlay, key.substr(8), val, line)
            : set_field(c.cfg, key, val, line) ||
                  set_field(c, key, val, line);
    if (!known) fail(line, "unknown key");
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
