// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and forwards its command line:
//
//   perfbench --workload paper-insert|removal-churn|daemon-mixed
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt K] [--trace-out PATH]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (the end-to-end set with --trace 0, the per-layer set with
// --trace 1). The line before it records the build and run environment.
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "support/telemetry/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::WorkloadSpec;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// The three workloads. The daemon stream length follows from --seconds.
WorkloadSpec spec_for(const Options& opt) {
  const unsigned tiny_sf = 1;
  if (opt.workload == "paper-insert") {
    return {opt.workload, opt.tiny ? tiny_sf : 256u, 0.0,
            opt.tiny ? 20u : 250u};
  }
  if (opt.workload == "removal-churn") {
    return {opt.workload, opt.tiny ? tiny_sf : 64u, 0.4,
            opt.tiny ? 20u : 300u};
  }
  if (opt.workload == "daemon-mixed") {
    return {opt.workload, opt.tiny ? tiny_sf : 64u, 0.2, 0};
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stoi(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt") {
      opt.corrupt = std::stoull(value());
    } else if (a == "--trace-out") {
      opt.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (opt.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return opt;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_environment(const Options& opt) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  const bool openmp = true;
#else
  const bool openmp = false;
#endif
  const auto mode = grbsm::telemetry::mode();
  std::cout << "{\"perfbench_env\": {\"workload\": " << json_string(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"openmp\": " << (openmp ? "true" : "false")
            << ", \"omp_num_threads\": "
            << json_string(omp != nullptr ? omp : "unset")
            << ", \"compiler\": " << json_string(kCompiler)
            << ", \"telemetry_mode\": "
            << json_string(mode == grbsm::telemetry::TelemetryMode::kOff
                               ? "off"
                           : mode == grbsm::telemetry::TelemetryMode::kTracing
                               ? "tracing"
                               : "metrics-only")
            << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  WorkloadSpec spec;
  try {
    opt = parse(argc, argv);
    spec = spec_for(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (kSanitized || !kAssertsOff) {
    std::cerr << "perfbench: refusing to report from a "
              << (kSanitized ? "sanitizer" : "Debug") << " build\n";
    return 3;
  }
  print_environment(opt);

  perfbench::Result r;
  try {
    r = spec.name == "daemon-mixed" ? perfbench::run_daemon(opt, spec)
                                    : perfbench::run_serial(opt, spec);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << spec.name << " failed: " << e.what() << "\n";
    return 1;
  }

  if (opt.trace) {
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      // A layer this workload does not run reports 0.
      r.metrics.try_emplace(name, 0.0, unit);
    }
    r.set("failed_frac",
          static_cast<double>(r.failed) /
              static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
          "ratio");
  }
  bool correct = r.consistent && r.failed == 0 && r.attempted > 0;
  std::ostringstream metrics;
  metrics << std::setprecision(17);
  const char* sep = "";
  for (const auto& [name, vu] : r.metrics) {
    double v = vu.first;
    if (!std::isfinite(v)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      correct = false;
      v = 0.0;
    }
    metrics << sep << json_string(name) << ": {\"value\": " << v
            << ", \"unit\": " << json_string(vu.second) << "}";
    sep = ", ";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, r.attempted)
            << ", \"failed\": " << r.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
