// daemon-mixed: an in-process grbd::Server (2 shards, pipeline depth 2)
// served over socketpairs to three client threads, all speaking the grbd
// wire protocol:
//
//   writer   kApply open loop at kWriteRate change sets/s (about a quarter
//            of the server's burst capacity at SF 64), then a burst phase
//            that enqueues the rest of the stream back to back;
//   watcher  pins every epoch k (Q1, then Q2) — the pin waits until k is
//            published, so its reply time is when a reader first sees the
//            change set's answers;
//   reader   paced kQuery at kReadRate/s, a Zipf mix of "latest" reads and
//            reads pinned a few epochs behind the newest one it has seen.
//
// Latencies are open-loop: each request is timed from when it was due, not
// from when the client got round to sending it. Every reply is checked
// against the NMF oracle at the epoch it reports.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "grb/context.hpp"
#include "queries/top_k.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace perfbench {
namespace {

namespace telemetry = grbsm::telemetry;
using grbd::MsgType;

constexpr std::size_t kShards = 2;
constexpr std::size_t kDepth = 2;
/// Open-loop write rate, change sets / s: about a quarter of the burst
/// capacity (≈250–300 cs/s on a 4-core x86 VM).
constexpr double kWriteRate = 60.0;
constexpr double kReadRate = 500.0;  // reads / s
constexpr std::size_t kSetupReps = 9;
/// Timed server lifetimes per end-to-end run, each over the same stream
/// prefix and schedule. Latencies are per-change-set minima over them
/// (per_index); throughput is the median of each lifetime's burst.
constexpr int kPasses = 5;

/// Change-set counts of one server lifetime's two phases, for a lifetime of
/// `seconds`: the open loop takes five sixths of it (≥200 samples at 4 s,
/// so p95 has ten beyond it); the burst sends 3× as many change sets, which
/// the server drains in about half the lifetime — long enough that a
/// second of host steal moves the burst throughput by a few percent.
struct Schedule {
  std::size_t open_n = 0;
  std::size_t burst_n = 0;
  [[nodiscard]] std::size_t total() const { return open_n + burst_n; }
};

Schedule schedule_for(double seconds) {
  Schedule s;
  s.open_n = std::max<std::size_t>(
      4, static_cast<std::size_t>(kWriteRate * seconds * 5 / 6));
  s.burst_n = s.open_n * 3;
  return s;
}

/// Socketpairs whose server ends are served by `srv` on one thread each.
/// Destruction shuts the client ends (the server side then sees EOF) and
/// joins the serving threads.
class ServedConnections {
 public:
  ServedConnections(grbd::Server& srv, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      int fds[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        close_all();
        throw std::runtime_error("socketpair failed");
      }
      client_.push_back(fds[0]);
      server_.push_back(fds[1]);
      threads_.emplace_back(
          [&srv, fd = fds[1]] { srv.serve_connection(fd, fd); });
    }
  }
  ~ServedConnections() { close_all(); }
  ServedConnections(const ServedConnections&) = delete;
  ServedConnections& operator=(const ServedConnections&) = delete;

  [[nodiscard]] int fd(std::size_t i) const { return client_[i]; }

 private:
  void close_all() {
    for (const int fd : client_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : threads_) t.join();
    for (const int fd : client_) ::close(fd);
    for (const int fd : server_) ::close(fd);
    threads_.clear();
    client_.clear();
    server_.clear();
  }

  std::vector<int> client_;
  std::vector<int> server_;
  std::vector<std::thread> threads_;
};

/// One request/reply round trip; throws on EOF or a framing error.
grbd::Frame call(int fd, MsgType type, const std::vector<std::uint8_t>& req) {
  if (!grbd::write_frame(fd, type, req)) {
    throw std::runtime_error("connection closed while sending");
  }
  std::optional<grbd::Frame> reply = grbd::read_frame(fd);
  if (!reply) throw std::runtime_error("connection closed before reply");
  return std::move(*reply);
}

/// A query reply: the epoch it was served from and the answer.
struct Reply {
  std::uint64_t epoch = 0;
  std::string answer;
};

/// kQuery; returns nullopt (with `error` set) on a kError reply.
std::optional<Reply> query(int fd, std::uint8_t which, std::uint64_t pin,
                           std::string& error) {
  grbd::PayloadWriter req;
  req.u8(which);
  req.u64(pin);
  const grbd::Frame f = call(fd, MsgType::kQuery, req.data());
  grbd::PayloadReader in(f.payload);
  if (f.type != MsgType::kAnswer) {
    error = "kQuery refused (type " +
            std::to_string(static_cast<unsigned>(f.type)) + ")";
    return std::nullopt;
  }
  Reply r;
  r.epoch = in.u64();
  r.answer = in.rest();
  return r;
}

/// What one client thread saw; checked against the oracle after the join.
struct Observed {
  struct Answer {
    std::uint8_t which = 0;  // kQueryQ1 / kQueryQ2
    std::uint64_t epoch = 0;
    std::string answer;
  };
  std::vector<Answer> answers;
  /// kApplied epochs, in send order (must be 1, 2, ...).
  std::vector<std::uint64_t> acks;
  std::vector<std::string> errors;
};

struct PassTimes {
  double setup_s = 0.0;
  Samples q1_ms;
  Samples q2_ms;
  Samples lag_ms;
  Samples read_us;
  Samples writer_late_ms;
  Samples reader_late_ms;
  double burst_s = 0.0;
  std::uint64_t backlog_max = 0;
};

/// Runs `body`, turning an escaping exception into a recorded error.
template <typename F>
void guarded(Observed& obs, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    obs.errors.push_back(e.what());
  }
}

/// One server lifetime: setup, the open-loop phase, the burst, shutdown.
void run_server_pass(const datagen::Dataset& ds, const OracleAnswers& oracle,
                     const Schedule& sched, Checker& chk, PassTimes& t) {
  grbd::ServerConfig cfg;
  cfg.shards = kShards;
  cfg.depth = kDepth;
  const auto s0 = Clock::now();
  grbd::Server srv(cfg);
  srv.load(ds.initial);
  t.setup_s = seconds_between(s0, Clock::now());

  ServedConnections conns(srv, 3);
  const std::size_t n = sched.total();
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    encoded.push_back(grbd::encode_change_set(ds.changes[k]));
  }

  Observed wobs, wtch, robs;
  std::atomic<std::uint64_t> seen{0};  // newest epoch the watcher saw
  std::atomic<bool> done{false};
  Clock::time_point burst_start{}, burst_end{};
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t k) {  // 1-based change set k
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>((k - 1) / kWriteRate));
  };

  std::thread writer([&] {
    guarded(wobs, [&] {
      for (std::size_t k = 1; k <= n; ++k) {
        if (k <= sched.open_n) {
          std::this_thread::sleep_until(due(k));
          t.writer_late_ms.add(1e3 * seconds_between(due(k), Clock::now()));
        } else if (k == sched.open_n + 1) {
          burst_start = Clock::now();
        }
        telemetry::SpanScope span("client.apply", k, nullptr);
        const grbd::Frame f =
            call(conns.fd(0), MsgType::kApply, encoded[k - 1]);
        if (f.type != MsgType::kApplied) {
          throw std::runtime_error("kApply refused");
        }
        grbd::PayloadReader in(f.payload);
        wobs.acks.push_back(in.u64());
        if (k <= sched.open_n) {  // in the burst the backlog is the burst
          const std::uint64_t published = seen.load();
          t.backlog_max = std::max<std::uint64_t>(
              t.backlog_max, k > published ? k - published : 0);
        }
      }
    });
  });

  std::thread watcher([&] {
    guarded(wtch, [&] {
      for (std::uint64_t k = 0; k <= n; ++k) {
        Clock::time_point at[2];
        for (const std::uint8_t which : {grbd::kQueryQ1, grbd::kQueryQ2}) {
          telemetry::SpanScope span("client.watch", k, nullptr);
          std::string err;
          const std::optional<Reply> r = query(conns.fd(1), which, k, err);
          if (!r) throw std::runtime_error(err + " at epoch " +
                                           std::to_string(k));
          at[which] = Clock::now();
          wtch.answers.push_back({which, r->epoch, r->answer});
        }
        seen.store(k);
        if (k >= 1 && k <= sched.open_n) {
          t.q1_ms.add(1e3 * seconds_between(due(k), at[0]));
          t.q2_ms.add(1e3 * seconds_between(due(k), at[1]));
          t.lag_ms.add(1e3 * seconds_between(due(k), std::max(at[0], at[1])));
        }
        if (k == n) burst_end = at[0];
      }
    });
    done.store(true);
  });

  std::thread reader([&] {
    guarded(robs, [&] {
      grbsm::support::Xoshiro256 rng(0x5eedULL + n);
      const grbsm::support::ZipfSampler offsets(32, 1.0);
      std::uint64_t newest = 0;
      for (std::size_t j = 0; !done.load(); ++j) {
        const auto d = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(j / kReadRate));
        std::this_thread::sleep_until(d);
        t.reader_late_ms.add(1e3 * seconds_between(d, Clock::now()));
        const std::uint8_t which = rng.chance(0.5) ? grbd::kQueryQ1
                                                   : grbd::kQueryQ2;
        const std::size_t back = offsets.sample(rng) - 1;  // 0 = latest
        const std::uint64_t pin =
            back == 0 ? grbd::kLatestEpoch
                      : newest - std::min<std::uint64_t>(newest, back);
        telemetry::SpanScope span("client.read", 0, nullptr);
        std::string err;
        const std::optional<Reply> r = query(conns.fd(2), which, pin, err);
        t.read_us.add(1e6 * seconds_between(d, Clock::now()));
        if (!r) {
          robs.errors.push_back(err);
          continue;
        }
        span.set_epoch(r->epoch);
        newest = std::max(newest, r->epoch);
        robs.answers.push_back({which, r->epoch, r->answer});
      }
    });
  });

  writer.join();
  watcher.join();
  done.store(true);
  reader.join();
  t.burst_s = seconds_between(burst_start, burst_end);

  for (const Observed* obs : {&wtch, &robs}) {
    for (const Observed::Answer& a : obs->answers) {
      const auto& expected = a.which == grbd::kQueryQ1 ? oracle.q1 : oracle.q2;
      if (a.epoch >= expected.size()) {
        chk.fail("answer from unknown epoch " + std::to_string(a.epoch));
        continue;
      }
      chk.check(a.answer, expected[a.epoch],
                a.which == grbd::kQueryQ1 ? "Q1" : "Q2", a.epoch);
    }
  }
  for (std::size_t i = 0; i < wobs.acks.size(); ++i) {
    chk.check(std::to_string(wobs.acks[i]), std::to_string(i + 1), "kApplied",
              i + 1);
  }
  for (const Observed* obs : {&wobs, &wtch, &robs}) {
    for (const std::string& e : obs->errors) chk.fail(e);
  }
  // Ops that never ran because a client stopped early are failures too.
  for (std::size_t k = wobs.acks.size(); k < n; ++k) chk.fail("kApply not sent");
  const std::size_t watched = wtch.answers.size();
  for (std::size_t i = watched; i < 2 * (n + 1); ++i) {
    chk.fail("epoch not observed");
  }
}

/// Registry histograms of the sharded pipeline and daemon layers.
std::vector<std::string> layer_histograms() {
  std::vector<std::string> names = {"epoch.route_us", "epoch.merge_us",
                                    "epoch.publish_us", "epoch.answer_us"};
  for (std::size_t s = 0; s < kShards; ++s) {
    names.push_back("epoch.shard" + std::to_string(s) + ".apply_us");
  }
  return names;
}

using Histograms = std::map<std::string, telemetry::HistogramSnapshot>;

/// Adds each layer histogram's growth between two registry snapshots.
void add_deltas(const telemetry::RegistrySnapshot& before,
                const telemetry::RegistrySnapshot& after, Histograms& into) {
  for (const std::string& name : layer_histograms()) {
    const telemetry::HistogramSnapshot* a = after.histogram(name);
    const telemetry::HistogramSnapshot* b = before.histogram(name);
    if (a == nullptr) continue;
    into[name] += b == nullptr ? *a : a->delta_since(*b);
  }
}

void report_layers(Histograms& h, Result& r) {
  r.set("shard.route_us_p50", h["epoch.route_us"].p50(), "us");
  double max_sum = 0.0, total = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const telemetry::HistogramSnapshot& a =
        h["epoch.shard" + std::to_string(s) + ".apply_us"];
    r.set("shard.s" + std::to_string(s) + ".apply_us_p50", a.p50(), "us");
    max_sum = std::max(max_sum, static_cast<double>(a.sum));
    total += static_cast<double>(a.sum);
  }
  r.set("shard.apply_skew",
        total == 0.0 ? 0.0 : max_sum / (total / kShards), "ratio");
  r.set("shard.merge_us_p50", h["epoch.merge_us"].p50(), "us");
  r.set("daemon.publish_us_p50", h["epoch.publish_us"].p50(), "us");
  r.set("daemon.answer_us_p50", h["epoch.answer_us"].p50(), "us");
}

}  // namespace

Result run_daemon(const Options& opt, const WorkloadSpec& base) {
  const Schedule sched =
      schedule_for(static_cast<double>(opt.seconds) / kPasses);
  WorkloadSpec spec = base;
  spec.change_sets = sched.total();
  const datagen::Dataset ds = datagen::generate(generator_params(spec, opt.seed));
  const OracleAnswers oracle = nmf_oracle(ds);
  // As grb_daemon runs it: one grb thread per kernel call, so the server's
  // parallelism is its shard workers and connection threads.
  grb::ThreadGuard one_thread(1);
  Checker chk(opt.corrupt);
  Result r;
  RssWindow rss;
  rss.begin();

  {
    PassTimes warm;
    run_server_pass(ds, oracle, sched, chk, warm);
  }

  if (!opt.trace) {
    std::vector<PassTimes> passes(kPasses);
    Samples setup_s;
    Samples burst_cs_per_s;
    for (PassTimes& t : passes) {
      run_server_pass(ds, oracle, sched, chk, t);
      setup_s.add(t.setup_s);
      burst_cs_per_s.add(static_cast<double>(sched.burst_n) / t.burst_s);
      std::cerr << "perfbench: pass: lag p50 " << t.lag_ms.p50() << " ms, p95 "
                << t.lag_ms.quantile(0.95) << " ms, burst "
                << burst_cs_per_s.values().back() << " cs/s\n";
    }
    while (setup_s.size() < kSetupReps) {
      grbd::ServerConfig cfg;
      cfg.shards = kShards;
      cfg.depth = kDepth;
      const auto s0 = Clock::now();
      grbd::Server srv(cfg);
      srv.load(ds.initial);
      setup_s.add(seconds_between(s0, Clock::now()));
      const grbd::SnapshotPtr snap = srv.store().latest();
      chk.check(snap->q1, oracle.q1[0], "Q1", 0);
      chk.check(snap->q2, oracle.q2[0], "Q2", 0);
    }
    using T = PassTimes;
    // Per change set, the minimum over lifetimes: host steal delays the
    // cross-thread wake-ups of an epoch in bursts of a second or so, which
    // the least-delayed lifetime mostly escapes; a cost the server pays for
    // that change set in every lifetime stays in.
    const auto at = [&](auto field) {
      return per_index(passes, field, &Samples::min);
    };
    const Samples q1 = at([](const T& t) -> const Samples& { return t.q1_ms; });
    const Samples q2 = at([](const T& t) -> const Samples& { return t.q2_ms; });
    const Samples lag =
        at([](const T& t) -> const Samples& { return t.lag_ms; });
    r.set("setup_s", setup_s.p50(), "s");
    r.set("q1_update_ms_p50", q1.p50(), "ms");
    r.set("q1_update_ms_p95", q1.quantile(0.95), "ms");
    r.set("q2_update_ms_p50", q2.p50(), "ms");
    r.set("q2_update_ms_p95", q2.quantile(0.95), "ms");
    r.set("publish_lag_ms_p50", lag.p50(), "ms");
    r.set("publish_lag_ms_p95", lag.quantile(0.95), "ms");
    r.set("throughput_cs_per_s", burst_cs_per_s.p50(), "cs/s");
    r.set("peak_rss_mb", rss.peak_mb(), "MB");
    std::cerr << "perfbench: daemon-mixed: " << kPasses << " passes of "
              << sched.open_n << " open-loop + " << sched.burst_n
              << " burst change sets\n";
  } else {
    // Untraced and traced lifetimes alternate until --seconds have passed.
    // Layer numbers come from the untraced ones: the registry histograms,
    // the client-side samples (pooled) and the arena/top-k counters.
    PassTimes untraced;
    Samples untraced_burst_s, traced_burst_s;
    Histograms layers;
    const CounterWindow counters;
    bool first = true;
    const auto start = Clock::now();
    do {
      const telemetry::RegistrySnapshot before =
          telemetry::Registry::instance().snapshot();
      run_server_pass(ds, oracle, sched, chk, untraced);
      add_deltas(before, telemetry::Registry::instance().snapshot(), layers);
      untraced_burst_s.add(untraced.burst_s);
      if (first) counters.report(r);
      first = false;

      PassTimes traced;
      telemetry::set_mode(telemetry::TelemetryMode::kTracing);
      run_server_pass(ds, oracle, sched, chk, traced);
      telemetry::set_mode(telemetry::TelemetryMode::kMetricsOnly);
      traced_burst_s.add(traced.burst_s);
    } while (seconds_between(start, Clock::now()) < opt.seconds);

    report_layers(layers, r);
    r.set("daemon.read_us_p50", untraced.read_us.p50(), "us");
    r.set("daemon.read_us_p99", untraced.read_us.quantile(0.99), "us");
    r.set("daemon.backlog_max", static_cast<double>(untraced.backlog_max),
          "count");
    r.set("loadgen.writer_late_ms_p99",
          untraced.writer_late_ms.quantile(0.99), "ms");
    r.set("loadgen.reader_late_ms_p99",
          untraced.reader_late_ms.quantile(0.99), "ms");
    r.set("ref.nmf_q1_update_ms_p50", oracle.q1_update_ms.p50(), "ms");
    r.set("ref.nmf_q2_update_ms_p50", oracle.q2_update_ms.p50(), "ms");
    r.set("trace.overhead_frac", traced_burst_s.sum() / untraced_burst_s.sum(),
          "ratio");
    if (!telemetry::Tracer::instance().export_chrome_trace(opt.trace_out)) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
      r.consistent = false;
    }
  }
  r.attempted = chk.attempted();
  r.failed = chk.failed();
  return r;
}

}  // namespace perfbench
