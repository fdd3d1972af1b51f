// paper-insert and removal-churn: the paper's serial "GraphBLAS Incremental"
// tool (registry key grb-incremental, one grb thread), one engine per query,
// driven change set by change set as in the TTC protocol.
//
// End-to-end run: one untimed warm-up pass, then timed passes over the whole
// stream until --seconds have passed (at least kMinPasses). Every pass
// starts from fresh engines, so each also yields one setup_s sample.
//
// Traced run: warm-up, then untraced passes (the overhead baseline; the
// first is the window for the arena/top-k counter deltas) alternating with
// traced passes until --seconds have passed. In a traced pass a replay
// GrbState with maintained Q1/Q2 scores takes each change set right after
// the engines do. The replay calls the same public layer functions the
// engine calls internally, so timing them splits the engine's update into
// state apply, query maintenance and (as the residual) top-k upkeep.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "grb/context.hpp"
#include "harness/registry.hpp"
#include "queries/grb_state.hpp"
#include "queries/q1.hpp"
#include "queries/q2.hpp"
#include "queries/top_k.hpp"
#include "support/telemetry/trace.hpp"

namespace perfbench {
namespace {

using harness::Query;
namespace telemetry = grbsm::telemetry;

/// Least timed passes and setup_s samples per end-to-end run; medians are
/// reported.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kSetupReps = 9;

struct Engines {
  harness::EnginePtr q1;
  harness::EnginePtr q2;
};

/// Per-change-set timings of the engines' update calls.
struct UpdateTimes {
  Samples q1_ms;
  Samples q2_ms;
  Samples both_ms;
};

/// Fresh Q1 + Q2 engines, loaded and initially evaluated; returns the setup
/// time in seconds. Initial answers are checked against the oracle.
double set_up(Engines& e, const datagen::Dataset& ds,
              const OracleAnswers& oracle, Checker& chk) {
  e = Engines{};
  const auto t0 = Clock::now();
  e.q1 = harness::make_engine(harness::ToolSpec{"", "grb-incremental", 1},
                              Query::kQ1);
  e.q1->load(ds.initial);
  std::string a1 = e.q1->initial();
  e.q2 = harness::make_engine(harness::ToolSpec{"", "grb-incremental", 1},
                              Query::kQ2);
  e.q2->load(ds.initial);
  std::string a2 = e.q2->initial();
  const double s = seconds_between(t0, Clock::now());
  chk.check(std::move(a1), oracle.q1[0], "Q1", 0);
  chk.check(std::move(a2), oracle.q2[0], "Q2", 0);
  return s;
}

/// Per-layer samples of the replay, pooled over the traced passes.
struct LayerSamples {
  Samples apply_us;
  Samples q1_us;
  Samples q2_affected_us;
  Samples q2_rescore_us;
  Samples residual_us;
  double delta_entries = 0.0;
  double q1_delta_scores = 0.0;
  double q2_affected = 0.0;
  double q2_delta_scores = 0.0;
  double apply_total_us = 0.0;
  double engine_total_us = 0.0;
};

/// Replay of the engine's layers on its own GrbState, timed per call.
struct Replay {
  queries::GrbState state;
  grb::Vector<std::uint64_t> q1_scores{0};
  grb::Vector<std::uint64_t> q2_scores{0};
  LayerSamples& out;

  Replay(const sm::SocialGraph& g, LayerSamples& samples)
      : state(queries::GrbState::from_graph(g)),
        q1_scores(queries::q1_batch_scores(state)),
        q2_scores(queries::q2_batch_scores(state)),
        out(samples) {}

  /// Applies change set `epoch` and times each layer call. `engine_us` is
  /// the two engines' update time for the same set (for the residual).
  void step(const sm::ChangeSet& cs, std::uint64_t epoch, double engine_us) {
    const auto t0 = Clock::now();
    queries::GrbDelta delta;
    {
      telemetry::SpanScope span("state.apply", epoch, nullptr);
      delta = state.apply_change_set(cs);
    }
    const auto t1 = Clock::now();
    grb::Vector<std::uint64_t> d1{0};
    {
      telemetry::SpanScope span("q1.update", epoch, nullptr);
      d1 = queries::q1_incremental_update(state, delta, q1_scores);
    }
    const auto t2 = Clock::now();
    std::size_t affected = 0;
    {
      telemetry::SpanScope span("q2.affected", epoch, nullptr);
      affected = queries::q2_affected_comments(state, delta).size();
    }
    const auto t3 = Clock::now();
    grb::Vector<std::uint64_t> d2{0};
    {
      telemetry::SpanScope span("q2.update", epoch, nullptr);
      d2 = queries::q2_incremental_update(state, delta, q2_scores);
    }
    const auto t4 = Clock::now();

    const double apply = 1e6 * seconds_between(t0, t1);
    const double q1 = 1e6 * seconds_between(t1, t2);
    const double aff = 1e6 * seconds_between(t2, t3);
    const double q2 = 1e6 * seconds_between(t3, t4);
    out.apply_us.add(apply);
    out.q1_us.add(q1);
    out.q2_affected_us.add(aff);
    out.q2_rescore_us.add(q2 - aff);
    // Each engine applies the set to its own state once.
    out.residual_us.add(engine_us - (2 * apply + q1 + q2));
    out.apply_total_us += 2 * apply;
    out.engine_total_us += engine_us;
    out.delta_entries += static_cast<double>(
        delta.delta_root_post.nvals() + delta.likes_count_plus.nvals() +
        delta.new_friends.nvals() + delta.likes_count_minus.nvals() +
        delta.removed_friends.nvals());
    out.q1_delta_scores += static_cast<double>(d1.nvals());
    out.q2_affected += static_cast<double>(affected);
    out.q2_delta_scores += static_cast<double>(d2.nvals());
  }

  /// The maintained score vectors equal a batch evaluation of the replay
  /// state — the per-layer numbers describe the work the engine did.
  [[nodiscard]] bool consistent() const {
    // Equal as score vectors: an absent entry is score 0, and incremental
    // maintenance keeps an explicit 0 where a removal emptied a score.
    const auto nonzero = [](const grb::Vector<std::uint64_t>& v) {
      std::vector<std::pair<grb::Index, std::uint64_t>> out;
      for (std::size_t k = 0; k < v.nvals(); ++k) {
        if (v.values()[k] != 0) out.emplace_back(v.indices()[k], v.values()[k]);
      }
      return out;
    };
    const auto same = [&](const grb::Vector<std::uint64_t>& a,
                          const grb::Vector<std::uint64_t>& b) {
      return a.size() == b.size() && nonzero(a) == nonzero(b);
    };
    return same(q1_scores, queries::q1_batch_scores(state)) &&
           same(q2_scores, queries::q2_batch_scores(state));
  }
};

/// One pass: fresh engines, then the whole stream. Appends to `times` and
/// `setup_s` when given; drives `replay` beside the engines when given.
void run_pass(const datagen::Dataset& ds, const OracleAnswers& oracle,
              Checker& chk, UpdateTimes* times, Samples* setup_s,
              Replay* replay) {
  Engines e;
  const double s = set_up(e, ds, oracle, chk);
  if (setup_s != nullptr) setup_s->add(s);
  for (std::size_t k = 0; k < ds.changes.size(); ++k) {
    const sm::ChangeSet& cs = ds.changes[k];
    const std::uint64_t epoch = k + 1;
    const auto t0 = Clock::now();
    std::string a1;
    {
      telemetry::SpanScope span("engine.q1.update", epoch, nullptr);
      a1 = e.q1->update(cs);
    }
    const auto t1 = Clock::now();
    std::string a2;
    {
      telemetry::SpanScope span("engine.q2.update", epoch, nullptr);
      a2 = e.q2->update(cs);
    }
    const auto t2 = Clock::now();
    chk.check(std::move(a1), oracle.q1[epoch], "Q1", epoch);
    chk.check(std::move(a2), oracle.q2[epoch], "Q2", epoch);
    const double q1_ms = 1e3 * seconds_between(t0, t1);
    const double q2_ms = 1e3 * seconds_between(t1, t2);
    if (times != nullptr) {
      times->q1_ms.add(q1_ms);
      times->q2_ms.add(q2_ms);
      times->both_ms.add(q1_ms + q2_ms);
    }
    if (replay != nullptr) replay->step(cs, epoch, 1e3 * (q1_ms + q2_ms));
  }
}

}  // namespace

Result run_serial(const Options& opt, const WorkloadSpec& spec) {
  const datagen::Dataset ds = datagen::generate(generator_params(spec, opt.seed));
  const OracleAnswers oracle = nmf_oracle(ds);
  grb::ThreadGuard one_thread(1);
  Checker chk(opt.corrupt);
  Result r;
  RssWindow rss;
  rss.begin();

  run_pass(ds, oracle, chk, nullptr, nullptr, nullptr);  // warm-up

  if (!opt.trace) {
    std::vector<UpdateTimes> passes;
    Samples setup_s;
    double peak_rss_mb = 0.0;
    const auto start = Clock::now();
    do {
      run_pass(ds, oracle, chk, &passes.emplace_back(), &setup_s, nullptr);
      // Read at a fixed amount of work: the arena and the heap keep some of
      // each pass, so the peak creeps up with the number of passes run.
      if (passes.size() == kMinPasses) peak_rss_mb = rss.peak_mb();
    } while (seconds_between(start, Clock::now()) < opt.seconds ||
             passes.size() < kMinPasses);
    while (setup_s.size() < kSetupReps) {
      Engines e;
      setup_s.add(set_up(e, ds, oracle, chk));
    }
    using T = UpdateTimes;
    // Per change set, the median over passes: the serial workloads' noise
    // is a slow drift of the host's speed, which medians average best.
    const auto at = [&](auto field) {
      return per_index(passes, field, &Samples::p50);
    };
    const Samples q1 = at([](const T& t) -> const Samples& { return t.q1_ms; });
    const Samples q2 = at([](const T& t) -> const Samples& { return t.q2_ms; });
    const Samples both =
        at([](const T& t) -> const Samples& { return t.both_ms; });
    r.set("setup_s", setup_s.p50(), "s");
    r.set("q1_update_ms_p50", q1.p50(), "ms");
    r.set("q1_update_ms_p95", q1.quantile(0.95), "ms");
    r.set("q2_update_ms_p50", q2.p50(), "ms");
    r.set("q2_update_ms_p95", q2.quantile(0.95), "ms");
    r.set("publish_lag_ms_p50", both.p50(), "ms");
    r.set("publish_lag_ms_p95", both.quantile(0.95), "ms");
    r.set("throughput_cs_per_s",
          static_cast<double>(both.size()) / (1e-3 * both.sum()), "cs/s");
    r.set("peak_rss_mb", peak_rss_mb, "MB");
    std::cerr << "perfbench: " << spec.name << ": " << passes.size()
              << " timed passes of " << ds.changes.size()
              << " change sets, " << setup_s.size() << " setups\n";
  } else {
    // Untraced and traced passes alternate until --seconds have passed.
    // The arena/top-k counter deltas cover the first untraced pass: one
    // whole stream, so they repeat exactly for a seed.
    UpdateTimes untraced;
    UpdateTimes traced;
    LayerSamples layers;
    double nnz = 0.0;
    const CounterWindow counters;
    bool first = true;
    const auto start = Clock::now();
    do {
      run_pass(ds, oracle, chk, &untraced, nullptr, nullptr);
      if (first) counters.report(r);
      first = false;

      Replay replay(ds.initial, layers);
      telemetry::set_mode(telemetry::TelemetryMode::kTracing);
      run_pass(ds, oracle, chk, &traced, nullptr, &replay);
      telemetry::set_mode(telemetry::TelemetryMode::kMetricsOnly);
      if (!replay.consistent()) {
        std::cerr << "perfbench: replay scores differ from batch evaluation\n";
        r.consistent = false;
      }
      nnz = static_cast<double>(replay.state.likes().nvals() +
                                replay.state.friends().nvals() +
                                replay.state.root_post().nvals());
    } while (seconds_between(start, Clock::now()) < opt.seconds);
    if (!telemetry::Tracer::instance().export_chrome_trace(opt.trace_out)) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
      r.consistent = false;
    }

    const auto n = static_cast<double>(std::max<std::size_t>(
        1, layers.apply_us.size()));
    r.set("state.apply_us_p50", layers.apply_us.p50(), "us");
    r.set("state.apply_us_p95", layers.apply_us.quantile(0.95), "us");
    r.set("state.apply_share", layers.apply_total_us / layers.engine_total_us,
          "ratio");
    r.set("state.nnz", nnz, "count");
    r.set("state.delta_entries_per_cs", layers.delta_entries / n, "count");
    r.set("q1.update_us_p50", layers.q1_us.p50(), "us");
    r.set("q1.delta_scores_per_cs", layers.q1_delta_scores / n, "count");
    r.set("q2.affected_us_p50", layers.q2_affected_us.p50(), "us");
    r.set("q2.affected_per_cs", layers.q2_affected / n, "count");
    r.set("q2.rescore_us_p50", layers.q2_rescore_us.p50(), "us");
    r.set("q2.rescore_us_p95", layers.q2_rescore_us.quantile(0.95), "us");
    r.set("q2.useful_rescore_ratio",
          layers.q2_affected == 0.0
              ? 0.0
              : layers.q2_delta_scores / layers.q2_affected,
          "ratio");
    r.set("topk.residual_us_p50", layers.residual_us.p50(), "us");
    r.set("trace.overhead_frac", traced.both_ms.sum() / untraced.both_ms.sum(),
          "ratio");
    r.set("ref.nmf_q1_update_ms_p50", oracle.q1_update_ms.p50(), "ms");
    r.set("ref.nmf_q2_update_ms_p50", oracle.q2_update_ms.p50(), "ms");
  }
  r.attempted = chk.attempted();
  r.failed = chk.failed();
  return r;
}

}  // namespace perfbench
