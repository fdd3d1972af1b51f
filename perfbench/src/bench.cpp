#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/registry.hpp"

namespace perfbench {

datagen::GeneratorParams generator_params(const WorkloadSpec& spec,
                                          std::uint64_t seed) {
  datagen::GeneratorParams p =
      datagen::params_for_scale(spec.scale_factor, seed);
  p.change_sets = spec.change_sets;
  // The default op mix weighs ≈1.36 elements per op (a comment counts 3),
  // so 11 elements per set gives the paper's ≈8 ops per change set.
  p.insert_elements = 11 * spec.change_sets;
  p.frac_removals = spec.frac_removals;
  return p;
}

double Samples::sum() const noexcept {
  double s = 0.0;
  for (const double x : xs_) s += x;
  return s;
}

double Samples::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

double Samples::p50() const {
  if (xs_.empty()) return 0.0;
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                 : (sorted[mid - 1] + sorted[mid]) / 2;
}

OracleAnswers nmf_oracle(const datagen::Dataset& ds) {
  OracleAnswers out;
  for (const harness::Query q : {harness::Query::kQ1, harness::Query::kQ2}) {
    const bool q1 = q == harness::Query::kQ1;
    std::vector<std::string>& answers = q1 ? out.q1 : out.q2;
    Samples& ms = q1 ? out.q1_update_ms : out.q2_update_ms;
    harness::EnginePtr engine = harness::make_engine("nmf-incremental", q);
    engine->load(ds.initial);
    answers.reserve(ds.changes.size() + 1);
    answers.push_back(engine->initial());
    for (const sm::ChangeSet& cs : ds.changes) {
      const auto t0 = Clock::now();
      answers.push_back(engine->update(cs));
      ms.add(1e3 * seconds_between(t0, Clock::now()));
    }
  }
  return out;
}

bool Checker::check(std::string actual, const std::string& expected,
                    const char* what, std::uint64_t epoch) {
  ++attempted_;
  if (attempted_ == corrupt_) actual += "#corrupted";
  if (actual == expected) return true;
  ++failed_;
  if (failed_ <= 5) {
    std::cerr << "perfbench: " << what << " epoch " << epoch << " answered '"
              << actual << "', oracle says '" << expected << "'\n";
  }
  return false;
}

void Checker::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (failed_ <= 5) std::cerr << "perfbench: failed op: " << why << "\n";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"state.apply_us_p50", "us"},
      {"state.apply_us_p95", "us"},
      {"state.apply_share", "ratio"},
      {"state.nnz", "count"},
      {"state.delta_entries_per_cs", "count"},
      {"q1.update_us_p50", "us"},
      {"q1.delta_scores_per_cs", "count"},
      {"q2.affected_us_p50", "us"},
      {"q2.affected_per_cs", "count"},
      {"q2.rescore_us_p50", "us"},
      {"q2.rescore_us_p95", "us"},
      {"q2.useful_rescore_ratio", "ratio"},
      {"topk.residual_us_p50", "us"},
      {"topk.blocks_total", "count"},
      {"topk.skip_ratio", "ratio"},
      {"topk.pool_hits", "count"},
      {"topk.bound_rebuilds", "count"},
      {"arena.hit_rate", "ratio"},
      {"arena.misses", "count"},
      {"arena.bytes_leased", "B"},
      {"shard.route_us_p50", "us"},
      {"shard.s0.apply_us_p50", "us"},
      {"shard.s1.apply_us_p50", "us"},
      {"shard.apply_skew", "ratio"},
      {"shard.merge_us_p50", "us"},
      {"daemon.publish_us_p50", "us"},
      {"daemon.answer_us_p50", "us"},
      {"daemon.read_us_p50", "us"},
      {"daemon.read_us_p99", "us"},
      {"daemon.backlog_max", "count"},
      {"loadgen.writer_late_ms_p99", "ms"},
      {"loadgen.reader_late_ms_p99", "ms"},
      {"ref.nmf_q1_update_ms_p50", "ms"},
      {"ref.nmf_q2_update_ms_p50", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"failed_frac", "ratio"},
  };
  return kMetrics;
}

CounterWindow::CounterWindow()
    : arena0_(grb::workspace_stats()), prune0_(queries::prune_counters()) {}

void CounterWindow::report(Result& r) const {
  const grb::WorkspaceStats a = grb::workspace_stats();
  const queries::PruneStats p = queries::prune_counters();
  const std::uint64_t leases = a.leases() - arena0_.leases();
  const std::uint64_t misses = a.misses - arena0_.misses;
  r.set("arena.hit_rate",
        leases == 0 ? 1.0
                    : static_cast<double>(leases - misses) /
                          static_cast<double>(leases),
        "ratio");
  r.set("arena.misses", static_cast<double>(misses), "count");
  r.set("arena.bytes_leased",
        static_cast<double>(a.bytes_leased - arena0_.bytes_leased), "B");
  const std::uint64_t total = p.blocks_total - prune0_.blocks_total;
  r.set("topk.blocks_total", static_cast<double>(total), "count");
  r.set("topk.skip_ratio",
        total == 0 ? 0.0
                   : static_cast<double>(p.blocks_skipped -
                                         prune0_.blocks_skipped) /
                         static_cast<double>(total),
        "ratio");
  r.set("topk.pool_hits",
        static_cast<double>(p.pool_hits - prune0_.pool_hits), "count");
  r.set("topk.bound_rebuilds",
        static_cast<double>(p.bound_rebuilds - prune0_.bound_rebuilds),
        "count");
}

namespace {

/// A "Vm...:  1234 kB" field of /proc/self/status, in kB (0 if absent).
double proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

void RssWindow::begin() {
  malloc_trim(0);
  baseline_kb_ = proc_status_kb("VmRSS");
  // "5" resets VmHWM to the current RSS (Linux >= 4.0). Where the kernel
  // refuses, the high-water mark also covers dataset generation.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double RssWindow::peak_mb() const {
  return std::max(0.0, proc_status_kb("VmHWM") - baseline_kb_) / 1024.0;
}

}  // namespace perfbench
