// eval::scenario_io — the hunt-corpus serialization layer. Pins the two
// properties the corpus depends on: serialize∘parse∘serialize is
// byte-identical (canonical form is a fixed point), and a parsed config
// replays bit-for-bit through run_one (the file really is the run).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eval/canonical.hpp"
#include "eval/scenario_io.hpp"

namespace hawkeye::eval {
namespace {

using diagnosis::AnomalyType;

HuntCase full_case() {
  // Every serializable axis populated at once: one spec per fault family
  // (same-family windows would overlap) with every field off its default,
  // jitter, a full overlay, and the expected block.
  HuntCase c;
  c.cfg.scenario = AnomalyType::kPfcStorm;
  c.cfg.seed = 42;
  c.cfg.method = Method::kVictimOnly;
  c.cfg.epoch_shift = 18;
  c.cfg.epoch_index_bits = 4;
  c.cfg.threshold_factor = 2.5;
  c.cfg.tele_mode = telemetry::TelemetryMode::kPortOnly;
  c.cfg.one_bit_meter = true;
  c.cfg.background_load = 0.15;
  c.cfg.fat_tree_k = 8;
  c.cfg.shards = 4;
  c.cfg.max_repolls = 2;
  c.cfg.fleet_workload = workload::FleetWorkload::kAllToAll;
  c.cfg.fleet_severity = 1.75;
  fault::FaultPlan& fp = c.cfg.faults;
  fp.seed = 99;
  fault::PollFaultSpec poll;
  poll.sw = 3;
  poll.drop_prob = 0.25;
  poll.duplicate_prob = 0.0625;
  poll.delay_prob = 0.125;
  poll.delay_ns = sim::us(120);
  poll.start = sim::us(10);
  poll.stop = sim::us(500);
  fp.poll_faults.push_back(poll);
  fault::DmaFaultSpec dma;
  dma.sw = 2;
  dma.fail_prob = 0.5;
  dma.stale_prob = 0.25;
  dma.extra_delay = sim::ms(2);
  dma.start = sim::us(100);
  dma.stop = sim::us(200);
  fp.dma_faults.push_back(dma);
  fault::AgentBlackout bo;
  bo.sw = 5;
  bo.start = sim::us(50);
  bo.stop = sim::us(60);
  fp.blackouts.push_back(bo);
  fault::LinkFlapSpec flap;
  flap.node_a = 6;
  flap.node_b = 7;
  flap.start = sim::us(100);
  flap.stop = sim::us(900);
  flap.down_ns = sim::us(30);
  flap.period_ns = sim::us(200);
  flap.jitter = 0.5;
  flap.holddown_ns = sim::us(50);
  flap.restore_holddown_ns = sim::us(80);
  fp.link_flaps.push_back(flap);
  fault::PfcFrameFaultSpec pfc;
  pfc.sw = 4;
  pfc.port = 2;
  pfc.loss_prob = 0.3;
  pfc.delay_prob = 0.2;
  pfc.delay_ns = sim::us(40);
  pfc.affect_pause = false;
  pfc.affect_resume = false;
  pfc.start = sim::us(20);
  pfc.stop = sim::us(800);
  fp.pfc_faults.push_back(pfc);
  fp.rtt_jitter.prob = 0.1;
  fp.rtt_jitter.magnitude = 1.5;
  fault::DegradedLinkSpec deg;
  deg.node_a = 8;
  deg.node_b = 9;
  deg.ber = 1e-6;
  deg.start = sim::us(10);
  deg.stop = sim::us(700);
  fp.degraded_links.push_back(deg);
  fault::LinkSpeedMismatchSpec speed;
  speed.node_a = 10;
  speed.node_b = 11;
  speed.gbps = 40.0;
  speed.start = sim::us(5);
  speed.stop = sim::us(600);
  fp.speed_mismatches.push_back(speed);
  fault::HostPcieBottleneckSpec pcie;
  pcie.host = 12;
  pcie.drain_gbps = 4.0;
  pcie.start = sim::us(15);
  pcie.stop = sim::us(400);
  fp.pcie_bottlenecks.push_back(pcie);
  fault::OversubscribedDownlinkSpec oversub;
  oversub.sw = 13;
  oversub.factor = 0.25;
  oversub.start = sim::us(25);
  oversub.stop = sim::us(300);
  fp.oversub_downlinks.push_back(oversub);
  workload::ScenarioOverlay& ov = c.cfg.overlay;
  ov.drop_flows = {4, 2, 9};
  ov.size_scale = 0.5;
  ov.rate_scale = 2.0;
  ov.arrival_stride_ns = 1000;
  ov.duration_add_ns = sim::us(200);
  ov.fault_rate_scale = 0.5;
  ov.fault_window_scale = 0.75;
  c.expected_class = "silent-wrong";
  c.expected_verdict = AnomalyType::kMicroBurstIncast;
  c.expected_truth = AnomalyType::kPfcStorm;
  c.note = "fixture with\nan embedded newline";
  return c;
}

/// Every field of a spec, as (case-file name, printed value).
template <typename Spec>
std::vector<std::pair<std::string, std::string>> printed_fields(
    const Spec& s) {
  std::vector<std::pair<std::string, std::string>> out;
  Spec::visit_fields(s, [&out](std::string_view name, const auto& v) {
    std::ostringstream os;
    os << v;
    out.emplace_back(std::string(name), os.str());
  });
  return out;
}

TEST(ScenarioIoTest, SerializeParseSerializeIsFixedPoint) {
  const HuntCase c = full_case();
  // The fixture fills every family with one spec whose every field is off
  // its default, so a field the serializer or the parser drops breaks the
  // fixed point below.
  fault::FaultPlan::visit_families(
      c.cfg.faults, [](const fault::FaultFamily& fam, const auto& specs) {
        const auto expect_set = [&fam](const auto& spec) {
          using Spec = std::remove_cvref_t<decltype(spec)>;
          const auto got = printed_fields(spec);
          const auto def = printed_fields(Spec{});
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_NE(got[i].second, def[i].second)
                << fam.key << "." << got[i].first << " holds its default";
          }
        };
        if constexpr (fault::SpecList<decltype(specs)>) {
          ASSERT_EQ(specs.size(), 1u) << fam.key;
          expect_set(specs[0]);
        } else {
          expect_set(specs);
        }
      });
  const std::string s1 = serialize_case(c);
  const HuntCase parsed = parse_case(s1);
  const std::string s2 = serialize_case(parsed);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(parsed.expected_class, "silent-wrong");
  EXPECT_EQ(parsed.expected_verdict, AnomalyType::kMicroBurstIncast);
  EXPECT_EQ(parsed.note, "fixture with an embedded newline")
      << "newlines flatten to spaces on serialize";
  EXPECT_EQ(case_fingerprint(c), case_fingerprint(parsed));
}

TEST(ScenarioIoTest, EveryScenarioTypeRoundTripsAcrossSeeds) {
  // The whole craftable space — classic, fleet, benign — under seeds the
  // golden suite also uses.
  const AnomalyType types[] = {
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
      AnomalyType::kNone,
  };
  for (const AnomalyType t : types) {
    for (const std::uint64_t seed : {1ull, 3ull, 7ull}) {
      HuntCase c;
      c.cfg.scenario = t;
      c.cfg.seed = seed;
      const std::string s1 = serialize_case(c);
      const std::string s2 = serialize_case(parse_case(s1));
      EXPECT_EQ(s1, s2) << diagnosis::to_string(t) << " seed " << seed;
    }
  }
}

TEST(ScenarioIoTest, ParsedConfigReplaysBitForBit) {
  // A parsed case must drive run_one to the exact result of the original
  // config — canonical_line equality is bitwise RunResult equality for
  // every scored field. One cell per crafting path: classic, classic with
  // faults + overlay, fleet, benign.
  std::vector<HuntCase> cases;
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kMicroBurstIncast;
    c.cfg.seed = 3;
    cases.push_back(c);
  }
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kPfcStorm;
    c.cfg.seed = 7;
    c.cfg.faults = fault::FaultPlan::uniform_poll_loss(0.3, 11);
    c.cfg.overlay.drop_flows = {5, 6};
    c.cfg.overlay.size_scale = 2.0;
    c.cfg.overlay.fault_rate_scale = 0.5;
    cases.push_back(c);
  }
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kDegradedLink;
    c.cfg.seed = 1;
    c.cfg.fleet_workload = workload::FleetWorkload::kRpcClientServer;
    c.cfg.fleet_severity = 2.0;
    cases.push_back(c);
  }
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kNone;
    c.cfg.seed = 1;
    c.cfg.overlay.arrival_stride_ns = 1000;
    cases.push_back(c);
  }
  for (const HuntCase& c : cases) {
    const HuntCase parsed = parse_case(serialize_case(c));
    const RunResult orig = run_one(c.cfg);
    const RunResult replayed = run_one(parsed.cfg);
    EXPECT_EQ(canonical_line(c.cfg.scenario, c.cfg.seed, orig),
              canonical_line(parsed.cfg.scenario, parsed.cfg.seed, replayed))
        << diagnosis::to_string(c.cfg.scenario);
  }
}

TEST(ScenarioIoTest, ParseRejectsDrift) {
  const std::string good = serialize_case(HuntCase{});
  // Bad magic.
  EXPECT_THROW(parse_case("hawkeye-hunt-case v2\nseed=1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_case(""), std::invalid_argument);
  // Unknown key — format drift must fail loudly, not drop an axis.
  EXPECT_THROW(parse_case(good + "mystery_knob=3\n"), std::invalid_argument);
  EXPECT_THROW(parse_case(good + "faults.poll.0.typo=1\n"),
               std::invalid_argument);
  // Malformed values.
  EXPECT_THROW(parse_case(good + "overlay.size_scale=abc\n"),
               std::invalid_argument);
  // Non-finite doubles: every range rule would have to catch them itself.
  for (const char* v : {"nan", "inf", "-inf", "NAN", "infinity"}) {
    EXPECT_THROW(parse_case(good + "faults.rtt_jitter.magnitude=" + v + "\n"),
                 std::invalid_argument)
        << v;
  }
  EXPECT_THROW(parse_case(good + "one_bit_meter=2\n"), std::invalid_argument);
  EXPECT_THROW(parse_case(good + "scenario=unheard-of\n"),
               std::invalid_argument);
  // Structurally parsable but invalid plans are rejected at parse time.
  EXPECT_THROW(
      parse_case(good +
                 "faults.poll.0.drop_prob=0.5\nfaults.poll.1.drop_prob=0.5\n"),
      std::invalid_argument)
      << "two wildcard whole-run poll specs overlap";
  EXPECT_THROW(parse_case(good + "overlay.size_scale=-1\n"),
               std::invalid_argument);
  // Comments and blank lines are tolerated.
  const HuntCase c = parse_case("# header comment\n\n" + good + "# trailer\n");
  EXPECT_EQ(serialize_case(c), good);
}

// Out-of-range run scalars fail at parse time with the offending key named,
// instead of aborting in fabric construction (odd k) or building thousands
// of calendars and pool threads (huge shards) — these cases are never run.
TEST(ScenarioIo, RejectsOutOfRangeRunScalars) {
  const std::string good = serialize_case(HuntCase{});
  const std::pair<std::string, std::string> bad[] = {
      {"fat_tree_k", "5"},       {"fat_tree_k", "18"},
      {"shards", "0"},           {"shards", "5000"},
      {"epoch_shift", "64"},     {"epoch_index_bits", "40"},
      {"background_load", "1.5"}, {"threshold_factor", "0"},
      // Values that do not fit the field's type fail instead of wrapping.
      {"fat_tree_k", "4294967300"}, {"max_repolls", "-1"},
      {"faults.poll.0.sw", "4294967299"},
  };
  for (const auto& [key, val] : bad) {
    try {
      parse_case(good + key + "=" + val + "\n");
      ADD_FAILURE() << key << "=" << val << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << key << "=" << val << ": " << e.what();
    }
  }
  // The bounds admit the widest committed layout: 8 shards at k=4.
  EXPECT_NO_THROW(parse_case(good + "shards=8\n"));
}

TEST(ScenarioIoTest, FingerprintTracksContent) {
  HuntCase a = full_case();
  HuntCase b = full_case();
  EXPECT_EQ(case_fingerprint(a), case_fingerprint(b));
  b.cfg.seed += 1;
  EXPECT_NE(case_fingerprint(a), case_fingerprint(b));
}

}  // namespace
}  // namespace hawkeye::eval
