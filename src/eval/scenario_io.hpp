#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/runner.hpp"

namespace hawkeye::eval {

/// Versioned, canonical text serialization of a run configuration — the
/// input format of every `hawkeye run` case and the replayable-counterexample
/// format of `hawkeye hunt` (tools/hawkeye.cpp, DESIGN.md §15). One `key=value` line per field in a fixed order,
/// doubles printed with %.17g (round-trip exact, the golden-suite
/// convention), so `serialize(parse(serialize(x)))` is byte-identical to
/// `serialize(x)` and string equality of two serializations is value
/// equality of the underlying cases.
///
/// The payload is deliberately the *inputs* of a run — RunConfig plus its
/// ScenarioOverlay and FaultPlan — never the crafted ScenarioSpec: a case
/// file replays through the exact same eval::run_one path as every bench,
/// and stays valid as long as the (scenario, seed) factories stay
/// deterministic. The `expected.*` block records the verdict class and
/// diagnosis the hunter observed at find time; tests/hunt_corpus_test.cpp
/// replays every committed file and asserts those fields forever. When a
/// later PR fixes a pinned misdiagnosis, the fixture's expected fields are
/// updated in that PR (turning the file into a permanent regression test
/// for the fix) — corpus files are never silently deleted.
///
/// Format rules (v1):
///  - first line is exactly `hawkeye-hunt-case v1`;
///  - `#`-prefixed and blank lines are ignored on parse, never emitted;
///  - top-level RunConfig scalars are always emitted; the faults./overlay.
///    blocks only when enabled, but then with every field of every spec;
///  - keys and their order come from the field lists, not from this file:
///    RunConfig::visit_fields, fault::FaultPlan::visit_families (family
///    keys `faults.<key>.<index>.`, rtt_jitter unindexed and only when set)
///    with each spec's visit_fields, ScenarioOverlay::visit_fields, then
///    HuntCase::visit_fields (the expected.* block and note). Adding a
///    field to one of those lists adds it to the format; an empty flow
///    list or note is not written;
///  - every value is decoded by eval::decode into its field's type, so an
///    integer that does not fit (fat_tree_k=4294967300) fails, not wraps;
///  - unknown keys are a parse error — format drift fails loudly in CI
///    instead of silently dropping a mutation axis.
struct HuntCase {
  RunConfig cfg;
  /// Verdict class observed at find time (eval::to_string(HuntVerdictClass)
  /// vocabulary — "silent-wrong", "wrong-low-confidence", "missed-trigger",
  /// or "correct"/"excused" once a find has been fixed).
  std::string expected_class;
  /// Diagnosis type the replay must reproduce (kNone for missed triggers).
  diagnosis::AnomalyType expected_verdict = diagnosis::AnomalyType::kNone;
  /// Ground-truth type of the crafted scenario (redundant with
  /// cfg.scenario for every current factory, recorded so a future
  /// factory-behaviour change is caught as drift, not absorbed).
  diagnosis::AnomalyType expected_truth = diagnosis::AnomalyType::kNone;
  /// One-line triage note (newlines are replaced by spaces on serialize).
  std::string note;

  /// The case's own fields, `(case-file name, member)` in case-file order;
  /// `cfg` lists its scalars, faults and overlay itself.
  static void visit_fields(auto& c, auto&& f) {
    f("expected.class", c.expected_class);
    f("expected.verdict", c.expected_verdict);
    f("expected.truth", c.expected_truth);
    f("note", c.note);
  }
};

/// Canonical text form of the case (see format rules above).
std::string serialize_case(const HuntCase& c);

/// Parse a serialized case. Throws std::invalid_argument with the
/// offending line on any structural problem: bad magic/version, malformed
/// or unknown key, unparsable value, or an invalid resulting FaultPlan /
/// overlay / run scalar (each validate() is consulted so a corrupted
/// fixture cannot reach the injector or the fabric builder).
HuntCase parse_case(const std::string& text);

/// Strict decoders from case-file (or command-line) text to a field's type,
/// shared by parse_case and the `hawkeye` CLI flags. Each stores the value
/// and returns an empty string when `text` is well formed and fits the
/// destination type; otherwise it returns why not (malformed number, out
/// of range for the type, unknown name) and leaves `out` unchanged. The
/// number overload is built for int32 (int, net::NodeId, net::PortId),
/// int64 (sim::Time), uint32, uint64 and double; a double must be finite
/// (no nan or inf). A bool is 0 or 1, an enum its to_string name, a flow
/// list comma-separated indices.
template <typename T>
concept DecodableNumber =
    (std::integral<T> && !std::same_as<T, bool>) || std::floating_point<T>;
template <DecodableNumber T>
std::string decode(std::string_view text, T& out);
std::string decode(std::string_view text, bool& out);
std::string decode(std::string_view text, diagnosis::AnomalyType& out);
std::string decode(std::string_view text, Method& out);
std::string decode(std::string_view text, telemetry::TelemetryMode& out);
std::string decode(std::string_view text, workload::FleetWorkload& out);
std::string decode(std::string_view text, std::vector<std::uint32_t>& out);
std::string decode(std::string_view text, std::string& out);

/// Stable content fingerprint of a case (FNV-1a over the serialization) —
/// the corpus filename suffix, so identical finds from different campaigns
/// collide into one file instead of accumulating duplicates.
std::uint64_t case_fingerprint(const HuntCase& c);

}  // namespace hawkeye::eval
