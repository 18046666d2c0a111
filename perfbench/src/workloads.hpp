// The two benchmark workloads. Each builds its inputs from the seed, sets
// the program up from production defaults (timed several times for
// setup_s), measures, and checks every output against its oracle. The
// traced ip4_zipf_churn run also runs the mesh leg, a 4x4 MeshRouter torus
// on loopback UDP, for the mesh layer's metrics.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Printed on the summary line, not gated: latency_p90_us and
  /// latency_p99_us (tails too unsteady on a shared VM to bound) and, on
  /// ip4_zipf_churn (the one workload with churn), publish_p90_ms.
  Metrics info;
};

[[nodiscard]] RunResult run_ip4_zipf_churn(const RunArgs& args);
[[nodiscard]] RunResult run_secure_zoo(const RunArgs& args);

}  // namespace perfbench
