// dipbench — runs one DIP router benchmark workload and prints its metrics.
//
//   dipbench --workload <ip4_zipf_churn|secure_zoo> --seed N
//            --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (BENCHMARK.json lists both). Output: a host/build fingerprint line, a
// summary line, and as the last line one JSON object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// A wrong result (misrouted, dropped, unverifiable or lost packet, or an
// unbalanced mesh ledger) makes the exit status non-zero.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench_guard.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, RunArgs& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(v) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  (void)dip::bench::release_build_guard;
  RunArgs args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dipbench --workload <ip4_zipf_churn|secure_zoo> "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Set-up, the generator and the mesh leg's event loop run on the first
  // CPU; pool workers and the churn thread take the next ones.
  pin_thread(0, 0);
  RunResult r;
  try {
    if (args.workload == "ip4_zipf_churn") {
      r = run_ip4_zipf_churn(args);
    } else if (args.workload == "secure_zoo") {
      r = run_secure_zoo(args);
    } else {
      std::fprintf(stderr, "dipbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dipbench: %s\n", e.what());
    return 1;
  }
  for (auto& [name, metric] : r.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "dipbench: metric %s is not finite\n", name.c_str());
      r.correct = false;
      metric.value = 0;
    }
  }
  if (r.failed != 0 || r.attempted == 0) r.correct = false;
  std::printf("{\"fingerprint\": %s}\n", fingerprint_json().c_str());
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"fail_ratio\": %.9g",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                          : 1.0);
  for (const auto& [name, metric] : r.info) {
    std::printf(", \"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}\n");
  print_result(r);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
