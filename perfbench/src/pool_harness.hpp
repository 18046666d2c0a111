// PoolHarness — drives a production RouterPool from one generator thread
// (the pool's single dispatcher) and checks every completion.
//
// Load shapes:
//   * saturate(): closed loop. A fixed window of packet buffers circulates;
//     the generator submits whenever one is free, so the pool sets the pace.
//   * paced(): open loop at a fixed rate. Packet k is due at t0 + k/rate and
//     is submitted as soon as possible after that; latency is timed from the
//     due time to the pool's completion callback, so a stall counts against
//     every packet queued behind it.
//
// Bookkeeping stays off the router's data: the pool is FIFO per worker, so
// the generator pushes each packet's metadata onto its worker's side
// channel before submit() and the completion pops it in the same order.
// Buffers come back to the generator through a second per-worker channel
// (moved out of the completed Item), so the generator allocates nothing
// once running.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "dip/core/registry.hpp"
#include "dip/core/router_pool.hpp"
#include "workload_data.hpp"

namespace perfbench {

struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Raw figures: saturate() per sub-interval, paced() per latency window
  // (see window_quantiles). pooled() joins the slices of one phase.
  std::vector<double> interval_mpps, interval_cpu_us;
  std::vector<double> window_p50_us, window_p90_us, window_p99_us, window_lag_p99_us;
  // Summaries (summarize()): the best quartile over saturate()'s
  // sub-intervals (upper quartile of throughput, lower quartile of CPU
  // cost) and the lower quartile over paced()'s latency windows.
  // Interference from outside the program (CPU steal, a busy sibling
  // hyperthread on a shared VM) only ever costs time and comes in bursts,
  // so the better intervals measure the program, while a change to the
  // program moves every interval.
  double throughput_mpps = 0;
  double cpu_us_per_pkt = 0;
  double latency_p50_us = 0;
  double latency_p90_us = 0;
  double latency_p99_us = 0;
  double gen_lag_p99_us = 0;
  double peak_rss_mib = 0;
  // traced only
  double submit_ns = 0;
  double dispatcher_busy = 0;
  double worker_busy = 0;
  double queue_depth_mean = 0;
  double flow_cache_hit_ratio = 0;

  /// Fill the summaries from the raw figures.
  void summarize();
};

/// One phase run as several slices: counts and raw figures joined, then
/// summarized (the traced-only fields stay unset).
[[nodiscard]] PhaseStats pooled(const std::vector<PhaseStats>& slices);

/// One verification sample: the packet as the worker completed it.
struct Sample {
  std::uint32_t slot = 0;
  std::vector<std::uint8_t> bytes;
};

class PoolHarness {
 public:
  /// `check`: compare every completion against Slot::expect.
  explicit PoolHarness(const Schedule& schedule, bool check = true);
  ~PoolHarness();
  PoolHarness(const PoolHarness&) = delete;
  PoolHarness& operator=(const PoolHarness&) = delete;

  /// Build the RouterPool (the timed part of set-up). Production defaults:
  /// only RouterPoolConfig::workers is set.
  void start(const dip::core::OpRegistry* registry,
             const std::function<dip::core::RouterEnv(std::size_t)>& env_factory);
  /// Stop and destroy the pool (set-up is timed several times per run).
  void stop();

  PhaseStats saturate(double seconds, bool traced);
  PhaseStats paced(double seconds, double rate_pps, bool traced);

  /// Largest PIT size any worker saw in a traced phase.
  [[nodiscard]] std::uint64_t pit_high_water() const;
  /// Completions dropped as unsolicited NDN data (PIT miss).
  [[nodiscard]] std::uint64_t pit_misses() const;
  /// The last phase's verification samples, spread evenly over the whole
  /// phase (valid after it returns; the next phase starts afresh).
  [[nodiscard]] std::vector<const Sample*> samples() const;

 private:
  struct Meta {
    std::uint64_t due_ns = 0;
    std::uint32_t slot = 0;
    std::uint32_t window = 0;  ///< latency window + 1; 0 = not sampled
  };
  struct alignas(64) WorkerState {
    explicit WorkerState(std::size_t capacity) : meta(capacity), ret(capacity) {}
    Channel<Meta> meta;
    Channel<std::vector<std::uint8_t>> ret;
    std::atomic<std::uint64_t> failed{0};
    std::uint64_t pit_high_water = 0;
    std::uint64_t pit_misses = 0;
    std::uint64_t reported = 0;
    std::vector<std::uint32_t> latency_ns;
    std::vector<std::uint16_t> latency_window;
    std::size_t latency_n = 0;
    std::vector<Sample> samples;
    std::size_t sample_n = 0;       ///< samples held
    std::uint64_t sample_seen = 0;  ///< sample-flagged completions this phase
    std::uint64_t sample_stride = 1;
  };

  void on_complete(std::size_t worker, dip::core::RouterPool::Item& item,
                   dip::core::ProcessResult& result);
  /// Pull returned buffers back into the free list.
  void reclaim();
  /// Submit the next scheduled packet (a free buffer must exist).
  /// `window` is the latency window + 1, or 0 to leave it unsampled.
  void submit_next(std::uint64_t due_ns, std::uint32_t window, bool traced);
  [[nodiscard]] std::uint64_t failed_total() const;
  void drain();
  void reset_samples();
  /// Pin worker i to CPU index i + 1 (the generator holds index 0). Done
  /// per phase, outside the timed set-up.
  void pin_workers();

  const Schedule& schedule_;
  const bool check_;
  std::vector<std::unique_ptr<WorkerState>> ws_;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t buffers_out_ = 0;  ///< submitted, not yet reclaimed
  std::size_t cursor_ = 0;
  std::uint64_t origin_ns_ = 0;
  std::uint64_t round_now_ = 0;
  std::atomic<bool> traced_{false};
  // traced accumulators
  std::uint64_t submit_ns_sum_ = 0;
  std::uint64_t submits_timed_ = 0;
  double depth_sum_ = 0;
  std::uint64_t depth_samples_ = 0;
  std::vector<int> worker_tids_;
  std::unique_ptr<dip::core::RouterPool> pool_;  // last: stopped first
};

}  // namespace perfbench
