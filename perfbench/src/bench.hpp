// Shared pieces of the perfbench driver: command-line options, the three
// workload definitions, sample/percentile helpers, the NMF oracle and the
// result record every workload fills in.
//
// The driver touches the system under test only through its public entry
// points (harness::make_engine, grbd::Server + the grbd protocol codec,
// datagen::generate, and the public queries/grb/telemetry accessors). Every
// per-layer timing comes from spans this benchmark wraps around those calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "datagen/generator.hpp"
#include "grb/context.hpp"
#include "model/change.hpp"
#include "queries/top_k.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny graphs and streams, for the self-test.
  bool tiny = false;
  /// Corrupt the answer with this 1-based index before the oracle check
  /// (0 = off). The self-test uses it to prove the check is not vacuous.
  std::uint64_t corrupt = 0;
  /// Chrome trace output path (traced runs).
  std::string trace_out = "perfbench-trace.json";
};

/// One workload's dataset recipe.
struct WorkloadSpec {
  std::string name;
  unsigned scale_factor = 64;
  double frac_removals = 0.0;
  /// Change sets in the stream.
  std::size_t change_sets = 0;
};

/// Generator parameters of a workload: the paper's Table II sizes for the
/// scale factor, an explicit stream length, and ≈8 ops per change set.
datagen::GeneratorParams generator_params(const WorkloadSpec& spec,
                                          std::uint64_t seed);

/// Percentiles over a sample vector (nearest-rank on a sorted copy).
class Samples {
 public:
  void add(double v) { xs_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
  [[nodiscard]] double sum() const noexcept;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// Median (mean of the two middle samples for an even count).
  [[nodiscard]] double p50() const;
  /// Smallest sample; 0 when empty.
  [[nodiscard]] double min() const { return quantile(0.0); }
  /// The samples in the order they were added.
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return xs_;
  }

 private:
  std::vector<double> xs_;
};

/// For passes that each replay the same stream: sample k of the result is
/// `reduce` (a Samples member such as &Samples::p50) over the passes'
/// sample k, selected by `field`. A stall of a shared host hits different
/// change sets in different passes, so this keeps each change set's own
/// cost and drops most stalls; a cost the program pays at the same change
/// set every pass stays in.
template <typename Pass, typename Field, typename Reduce>
Samples per_index(const std::vector<Pass>& passes, Field field,
                  Reduce reduce) {
  std::size_t n = passes.empty() ? 0 : field(passes.front()).size();
  for (const Pass& p : passes) n = std::min(n, field(p).size());
  Samples out;
  for (std::size_t k = 0; k < n; ++k) {
    Samples at_k;
    for (const Pass& p : passes) at_k.add(field(p).values()[k]);
    out.add(std::invoke(reduce, at_k));
  }
  return out;
}

/// NMF Incremental answers for every epoch of a stream: [0] is the initial
/// evaluation, [k] the answer after change set k. NMF shares no code with
/// the grb engines, so agreement is an independent check. `update_ms`
/// receives the per-change-set update time of each query's engine.
struct OracleAnswers {
  std::vector<std::string> q1;
  std::vector<std::string> q2;
  Samples q1_update_ms;
  Samples q2_update_ms;
};
OracleAnswers nmf_oracle(const datagen::Dataset& ds);

/// Answer accounting: every answer the system gives is one attempted op,
/// and a mismatch, refusal or exception is one failed op.
class Checker {
 public:
  explicit Checker(std::uint64_t corrupt) : corrupt_(corrupt) {}

  /// Counts one answer; returns false (and records a failure) when it
  /// differs from `expected`.
  bool check(std::string actual, const std::string& expected,
             const char* what, std::uint64_t epoch);
  /// Counts one attempted op that failed without an answer.
  void fail(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t corrupt_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// What a workload run reports. Metrics are (name → value, unit).
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a consistency check (other than answer equality) failed.
  bool consistent = true;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
};

/// Every per-layer metric name with its unit, in report order. Traced runs
/// of every workload report all of them; a layer the workload does not run
/// reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Deltas of the program's own arena and top-k pruning counters between
/// construction and report(): arena.* and topk.* counter metrics.
class CounterWindow {
 public:
  CounterWindow();
  void report(Result& r) const;

 private:
  grb::WorkspaceStats arena0_;
  queries::PruneStats prune0_;
};

/// Resident-set accounting for the system under test: begin() drops freed
/// heap pages, notes the current RSS and resets the kernel's high-water
/// mark; peak_mb() is the high-water mark since then minus that baseline.
class RssWindow {
 public:
  void begin();
  [[nodiscard]] double peak_mb() const;

 private:
  double baseline_kb_ = 0.0;
};

Result run_serial(const Options& opt, const WorkloadSpec& spec);
Result run_daemon(const Options& opt, const WorkloadSpec& spec);

}  // namespace perfbench
