#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::size_t nearest_rank(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), pct) - 1];
}

std::optional<Tail> tail_percentile(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n > 0 && n - nearest_rank(n, pct) >= 10) {
      return Tail{pct, percentile(samples, pct)};
    }
  }
  return std::nullopt;
}

bool valid_metric_name(std::string_view name) {
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Digest::add(std::string_view line) {
  const auto mix = [this](unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  };
  for (const char c : line) mix(static_cast<unsigned char>(c));
  mix('\n');
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("bad metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite metric: " + m.name);
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
           buf + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
