#pragma once

// Sample statistics, the output digest and metric records shared by the
// benchmark binary and its tests.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile, `pct` in (0, 100]: the smallest sample with at
/// least pct% of the samples at or below it. 0 for an empty sample.
double percentile(std::vector<double> v, double pct);

/// The tail a sample supports: the highest of the candidate percentiles
/// (99.9, 99, 95, 90, 75) that leaves at least 10 samples above its
/// nearest rank. Empty when the sample has fewer than 40 values.
struct Tail {
  double pct = 0;
  double value = 0;
};
std::optional<Tail> tail_percentile(const std::vector<double>& samples);

/// Metric names are restricted to [A-Za-z0-9_.-], start with a letter or
/// digit and are at most 64 characters long.
bool valid_metric_name(std::string_view name);

/// Order-sensitive 64-bit FNV-1a digest of a sequence of lines; each line
/// is terminated by '\n' before hashing, so ["ab","c"] != ["a","bc"].
class Digest {
 public:
  void add(std::string_view line);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v
/// (%.17g). Throws std::invalid_argument on a name outside the charset or
/// a non-finite value.
std::string metrics_json(const std::vector<Metric>& metrics);

/// JSON string literal (quotes included) with ", \ and control characters
/// escaped.
std::string json_string(std::string_view s);

}  // namespace perfbench
