// hawkeye — the repo's one command-line tool.
//
//   hawkeye run [--explain] [--tau X] (FILE | DIR | key=value ...)
//   hawkeye hunt [--seed N] [--budget N] ... [--corpus DIR] [--log FILE]
//   hawkeye calibrate [seeds-per-point]
//
// `run` diagnoses cases in the scenario_io format (eval/scenario_io.hpp):
// a case file, every .txt file in a directory, or key=value arguments
// joined under the `hawkeye-hunt-case v1` header — so
// `hawkeye run scenario=pfc-storm seed=3 fat_tree_k=8` runs one cell and
// `hawkeye run tests/hunt_corpus` replays the hunter's corpus. Each case
// prints one summary line: its eval::canonical_line (the golden-fixture
// bytes) plus the hunter's verdict class. A case with an expected.* block
// is checked against it, and such a file must also be in canonical form;
// any mismatch exits 1. Bad input (unreadable path, unknown key, malformed
// or out-of-range value) exits 2 before anything runs. `--explain` adds
// verbose provenance logging (stderr), a dump of the simulated testbed
// (PFC pauses per port, flow progress, episode reports) and the diagnosis
// record of each run.
//
// `hunt` is the adversarial misdiagnosis hunter (DESIGN.md §15): seeded
// search over scenario/workload/topology/fault configurations with
// diagnosis correctness as the objective, delta-debugging every failure to
// a minimal case file. Deterministic in (--seed, --budget); --threads
// changes wall-clock only.
//
// `calibrate` grid-searches diagnosis::ConfidenceDiscounts against the
// robustness sweeps (method in DESIGN.md §10): every crafted scenario
// under the collection-fault axis (uniform polling loss) plus the
// data-plane axes (PFC frame loss, victim-path link flaps), each run
// labelled correct (tp) or incorrect, and the three per-class discounts
// chosen to best separate correct from incorrect runs by confidence:
//   primary:   AUC (Mann-Whitney) of confidence as a correctness ranker
//   tie-break: Brier score (mean squared error of confidence against the
//              correct/incorrect outcome) — AUC is invariant under the
//              monotone rescaling a steeper discount applies, so the
//              ranking ties and Brier picks the best-CALIBRATED triple,
//              the one whose confidence best approximates P(correct)
// subject to the ordering invariant failed < stale < repoll (a snapshot
// that never arrived is worse evidence than one that arrived late, which
// is worse than one that merely needed a retry).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "diagnosis/diagnosis.hpp"
#include "eval/canonical.hpp"
#include "eval/hunter.hpp"
#include "eval/runner.hpp"
#include "eval/sweep.hpp"
#include "eval/testbed.hpp"
#include "sim/logger.hpp"

using namespace hawkeye;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: hawkeye run [--explain] [--tau X] (FILE | DIR | key=value ...)\n"
      "       hawkeye hunt [--seed N] [--budget N] [--batch N] [--threads N]\n"
      "                    [--tau X] [--k K ...] [--shards S ...] "
      "[--no-shrink]\n"
      "                    [--max-finds N] [--corpus DIR] [--log FILE]\n"
      "       hawkeye calibrate [seeds-per-point]\n");
  return 2;
}

// ---- run -------------------------------------------------------------------

struct Input {
  std::string label;  // file name, or "args" for key=value input
  std::string text;
  bool from_file = false;
};

bool read_file(const std::filesystem::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Expand a FILE or DIR argument into inputs; false (with a message) if it
/// names nothing readable.
bool add_path(const std::string& arg, std::vector<Input>& inputs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  if (fs::is_directory(arg)) {
    for (const auto& e : fs::directory_iterator(arg)) {
      if (e.is_regular_file() && e.path().extension() == ".txt") {
        files.push_back(e.path());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "hawkeye run: no .txt cases in %s\n", arg.c_str());
      return false;
    }
  } else {
    files.emplace_back(arg);
  }
  for (const fs::path& f : files) {
    Input in{f.filename().string(), "", true};
    if (!fs::is_regular_file(f) || !read_file(f, in.text)) {
      std::fprintf(stderr, "hawkeye run: cannot read %s\n",
                   f.string().c_str());
      return false;
    }
    inputs.push_back(std::move(in));
  }
  return true;
}

/// Everything a run reports beyond its summary line.
void explain(const eval::ReplayOutcome& out) {
  const eval::RunResult& r = out.result;
  std::printf("     %s\n", out.detail.c_str());
  std::printf("     scenario=%s init=%s peer=%d repolls=%u failed=%u "
              "stale=%u\n",
              r.scenario_name.c_str(),
              net::to_string(r.dx.initial_port).c_str(), r.dx.injecting_peer,
              r.repolls, r.failed_collections, r.stale_epochs);
  for (const auto& fl : r.dx.root_cause_flows) {
    std::printf("     root %s\n", fl.to_string().c_str());
  }
  std::printf("     collected:");
  for (const net::NodeId n : r.collected) std::printf(" %d", n);
  std::printf("\n     crc=%llu retx=%llu ratelim=%llu drain=%llu\n",
              (unsigned long long)r.crc_drops,
              (unsigned long long)r.retransmissions,
              (unsigned long long)r.rate_limited_pkts,
              (unsigned long long)r.host_drain_delayed);
  for (const auto& l : r.fleet_evidence.links) {
    std::printf("     link %d<->%d crc=%llu nom=%.0f act=%.0f slow=%llu "
                "oversub=%d\n",
                l.node_a, l.node_b, (unsigned long long)l.crc_errors,
                l.nominal_gbps, l.actual_gbps,
                (unsigned long long)l.slow_serializations, l.oversub_tier);
  }
  for (const auto& h : r.fleet_evidence.hosts) {
    std::printf("     host %d drain_delayed=%llu backlog=%lld\n", h.host,
                (unsigned long long)h.drain_delayed_pkts,
                (long long)h.max_drain_backlog_ns);
  }
  if (!r.dx.narrative.empty()) {
    std::printf("     narrative: %s\n", r.dx.narrative.c_str());
  }
}

/// The simulated testbed, seen through run_one's after_sim hook.
void dump_testbed(eval::Testbed& tb) {
  std::map<std::pair<int, int>, int> pauses;
  for (const auto& ev : tb.net.pfc_trace()) {
    if (ev.quanta > 0) ++pauses[{ev.node, ev.port}];
  }
  for (const auto& [k, c] : pauses) {
    std::printf("  PAUSE by node%d port%d x%d\n", k.first, k.second, c);
  }
  for (const net::NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      std::printf("  flow %s sent=%u acked=%u fin=%d last_ack=%.0fus\n",
                  st.tuple.to_string().c_str(), st.pkts_sent, st.pkts_acked,
                  (int)st.complete(), st.last_ack / 1e3);
    }
  }
  for (const auto id : tb.collector.episode_order()) {
    const collect::Episode* ep = tb.collector.episode(id);
    std::printf("  episode victim=%s at %.0fus switches=%zu\n",
                ep->victim.to_string().c_str(), ep->triggered_at / 1e3,
                ep->reports.size());
    for (const auto& [sw, rep] : ep->reports) {
      std::printf("    report sw%d at %.0fus status:", sw,
                  rep.collected_at / 1e3);
      for (const auto& ps : rep.port_status) {
        std::printf(" P%d%s(q=%lld)", ps.port, ps.paused_now ? "*" : "",
                    (long long)ps.queue_pkts);
      }
      std::printf("\n");
    }
  }
}

/// A numeric argument, decoded by the case-file decoders (eval::decode): a
/// malformed or out-of-range value, or one below `min`, exits 2 with one
/// line naming the argument.
template <typename T>
T number_arg(const char* cmd, const std::string& name, const char* text,
             T min) {
  T v{};
  std::string why = eval::decode(text, v);
  if (why.empty() && v < min) {
    std::ostringstream os;
    os << "want >= " << min;
    why = os.str();
  }
  if (!why.empty()) {
    std::fprintf(stderr, "hawkeye %s: %s %s: %s\n", cmd, name.c_str(), text,
                 why.c_str());
    std::exit(2);
  }
  return v;
}

int run(int argc, char** argv) {
  bool explain_runs = false;
  double tau = eval::HuntOptions{}.tau;
  std::vector<Input> inputs;
  std::string inline_lines;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--explain") {
      explain_runs = true;
    } else if (a == "--tau") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hawkeye run: --tau needs a number\n");
        return 2;
      }
      tau = number_arg("run", a, argv[++i], 0.0);
    } else if (a.rfind("--", 0) == 0) {
      return usage();
    } else if (a.find('=') != std::string::npos) {
      inline_lines += a + '\n';
    } else if (!add_path(a, inputs)) {
      return 2;
    }
  }
  if (!inline_lines.empty()) {
    inputs.push_back({"args", "hawkeye-hunt-case v1\n" + inline_lines, false});
  }
  if (inputs.empty()) return usage();

  // Parse everything first: bad input must fail before a single run.
  std::vector<eval::HuntCase> cases;
  for (const Input& in : inputs) {
    try {
      cases.push_back(eval::parse_case(in.text));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hawkeye run: %s: %s\n", in.label.c_str(),
                   e.what());
      return 2;
    }
  }

  if (explain_runs) sim::Logger::level() = sim::LogLevel::kDebug;
  int mismatches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Input& in = inputs[i];
    eval::HuntCase& hc = cases[i];
    const bool checked = !hc.expected_class.empty();
    // A committed fixture must already be in canonical form, or two copies
    // of "the same" corpus would diff forever.
    const bool canonical =
        !checked || !in.from_file || eval::serialize_case(hc) == in.text;
    hc.cfg.verbose = explain_runs;
    const eval::ReplayOutcome out = eval::replay_case(
        hc, tau,
        explain_runs ? std::function<void(eval::Testbed&)>(dump_testbed)
                     : nullptr);
    const bool ok = canonical && (!checked || out.matches_expected);
    std::printf("%-4s %s %s class=%s\n",
                !checked ? "-" : ok ? "ok" : "FAIL", in.label.c_str(),
                eval::canonical_line(hc.cfg.scenario, hc.cfg.seed,
                                     out.result).c_str(),
                std::string(eval::to_string(out.observed)).c_str());
    if (!canonical) {
      std::fprintf(stderr, "FAIL %s: not in canonical form (re-serialize)\n",
                   in.label.c_str());
    } else if (!ok) {
      std::fprintf(stderr, "FAIL %s: %s\n", in.label.c_str(),
                   out.detail.c_str());
    }
    if (explain_runs) explain(out);
    mismatches += ok ? 0 : 1;
  }
  std::printf("ran %zu case(s), %d mismatch(es)\n", cases.size(), mismatches);
  return mismatches == 0 ? 0 : 1;
}

// ---- hunt ------------------------------------------------------------------

int hunt(int argc, char** argv) {
  eval::HuntOptions opts;
  opts.ks.clear();
  opts.shard_choices.clear();
  std::string log_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hawkeye hunt: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    const auto num = [&](auto min) {
      return number_arg("hunt", a, next(), min);
    };
    if (a == "--seed") opts.seed = num(std::uint64_t{0});
    else if (a == "--budget") opts.budget = num(1);
    else if (a == "--batch") opts.batch = num(1);
    else if (a == "--threads") opts.threads = num(0);
    else if (a == "--tau") opts.tau = num(0.0);
    else if (a == "--k") opts.ks.push_back(num(1));
    else if (a == "--shards") opts.shard_choices.push_back(num(1));
    else if (a == "--no-shrink") opts.shrink = false;
    else if (a == "--max-finds") opts.max_finds = num(0);
    else if (a == "--corpus") opts.corpus_dir = next();
    else if (a == "--log") log_file = next();
    else return usage();
  }
  if (opts.ks.empty()) opts.ks = {4};
  if (opts.shard_choices.empty()) opts.shard_choices = {1};
  // Trials sample k and shards independently: every pair must be runnable.
  for (const int k : opts.ks) {
    for (const int s : opts.shard_choices) {
      eval::RunConfig cfg;
      cfg.fat_tree_k = k;
      cfg.shards = s;
      const std::string err = eval::validate(cfg);
      if (!err.empty()) {
        std::fprintf(stderr, "hawkeye hunt: --k %d --shards %d: %s\n", k, s,
                     err.c_str());
        return 2;
      }
    }
  }

  const eval::HuntReport rep = eval::run_hunt_campaign(opts);
  std::fputs(rep.log.c_str(), stdout);
  if (!log_file.empty()) {
    std::ofstream out(log_file, std::ios::binary);
    out << rep.log;
  }
  for (const eval::HuntFind& f : rep.finds) {
    std::printf("--- find trial=%d sig=%s shrink_evals=%d flows=%zu->%zu\n",
                f.trial, f.signature.c_str(), f.shrink_evals,
                f.flows_before, f.flows_after);
    std::fputs(eval::serialize_case(f.shrunk).c_str(), stdout);
  }
  return 0;
}

// ---- calibrate -------------------------------------------------------------

struct Sample {
  bool correct = false;
  double coverage = 1.0;
  std::uint32_t failed = 0, stale = 0, repolls = 0;
};

double auc(const std::vector<Sample>& samples,
           const diagnosis::ConfidenceDiscounts& d) {
  // Mann-Whitney U: P(conf(correct) > conf(incorrect)), ties count 0.5.
  double wins = 0;
  std::uint64_t pairs = 0;
  for (const Sample& pos : samples) {
    if (!pos.correct) continue;
    const double cp = diagnosis::collection_confidence(
        pos.coverage, pos.failed, pos.stale, pos.repolls, d);
    for (const Sample& neg : samples) {
      if (neg.correct) continue;
      const double cn = diagnosis::collection_confidence(
          neg.coverage, neg.failed, neg.stale, neg.repolls, d);
      ++pairs;
      if (cp > cn) wins += 1;
      else if (cp == cn) wins += 0.5;
    }
  }
  return pairs == 0 ? 0.5 : wins / static_cast<double>(pairs);
}

double brier(const std::vector<Sample>& samples,
             const diagnosis::ConfidenceDiscounts& d) {
  double sum = 0;
  for (const Sample& s : samples) {
    const double c = diagnosis::collection_confidence(s.coverage, s.failed,
                                                      s.stale, s.repolls, d);
    const double y = s.correct ? 1.0 : 0.0;
    sum += (c - y) * (c - y);
  }
  return samples.empty() ? 1.0 : sum / static_cast<double>(samples.size());
}

int calibrate(int argc, char** argv) {
  if (argc > 2) return usage();
  const int seeds =
      argc > 1 ? number_arg("calibrate", "seeds-per-point", argv[1], 1) : 5;
  const diagnosis::AnomalyType types[] = {
      diagnosis::AnomalyType::kMicroBurstIncast,
      diagnosis::AnomalyType::kPfcStorm,
      diagnosis::AnomalyType::kInLoopDeadlock,
      diagnosis::AnomalyType::kOutOfLoopDeadlockContention,
      diagnosis::AnomalyType::kOutOfLoopDeadlockInjection,
      diagnosis::AnomalyType::kNormalContention,
  };

  std::vector<fault::FaultPlan> plans;
  for (const double rate : {0.05, 0.10, 0.20, 0.30, 0.40}) {
    plans.push_back(fault::FaultPlan::uniform_poll_loss(rate, 1));
  }
  for (const double rate : {0.25, 0.50}) {
    plans.push_back(fault::FaultPlan::uniform_pfc_loss(rate, 1));
  }
  for (const sim::Time period : {sim::us(500), sim::us(250)}) {
    plans.push_back(fault::FaultPlan::victim_flap_train(period));
  }

  std::vector<Sample> samples;
  for (const fault::FaultPlan& plan : plans) {
    for (const auto type : types) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.faults = plan;
      for (const eval::RunResult& r :
           eval::run_sweep(eval::seed_sweep(cfg, seeds))) {
        Sample s;
        s.correct = r.tp;
        s.coverage = r.collection_coverage;
        s.failed = r.failed_collections;
        s.stale = r.stale_epochs;
        s.repolls = r.repolls;
        samples.push_back(s);
      }
    }
  }
  int npos = 0;
  for (const Sample& s : samples) npos += s.correct ? 1 : 0;
  std::printf("%zu runs (%d correct, %zu incorrect)\n", samples.size(), npos,
              samples.size() - static_cast<std::size_t>(npos));

  const double fgrid[] = {0.70, 0.75, 0.80, 0.85, 0.90};
  const double sgrid[] = {0.90, 0.93, 0.95, 0.97};
  const double rgrid[] = {0.95, 0.96, 0.97, 0.98, 0.99};
  diagnosis::ConfidenceDiscounts best;
  double best_auc = -1, best_brier = 2;
  for (const double f : fgrid) {
    for (const double s : sgrid) {
      if (s <= f) continue;  // ordering invariant: failed < stale < repoll
      for (const double r : rgrid) {
        if (r <= s) continue;
        const diagnosis::ConfidenceDiscounts d{f, s, r};
        const double a = auc(samples, d);
        const double b = brier(samples, d);
        if (a > best_auc + 1e-12 ||
            (a > best_auc - 1e-12 && b < best_brier)) {
          best_auc = a;
          best_brier = b;
          best = d;
        }
      }
    }
  }

  const diagnosis::ConfidenceDiscounts current{};
  std::printf("current defaults  f=%.2f s=%.2f r=%.2f  AUC=%.4f brier=%.4f\n",
              current.failed_collection, current.stale_epoch, current.repoll,
              auc(samples, current), brier(samples, current));
  std::printf("best on grid      f=%.2f s=%.2f r=%.2f  AUC=%.4f brier=%.4f\n",
              best.failed_collection, best.stale_epoch, best.repoll, best_auc,
              best_brier);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string sub = argv[1];
  // Each subcommand sees its own name as argv[0].
  if (sub == "run") return run(argc - 1, argv + 1);
  if (sub == "hunt") return hunt(argc - 1, argv + 1);
  if (sub == "calibrate") return calibrate(argc - 1, argv + 1);
  return usage();
}
