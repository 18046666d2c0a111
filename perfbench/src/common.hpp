// Shared measurement plumbing for the DIP router benchmark: clocks, CPU
// and memory readings from procfs/getrusage, order statistics, a seeded
// RNG, a tiny SPSC ring for the harness's own side channels, and the JSON
// metric sink dipbench prints.
//
// Nothing here calls into the router: these are the benchmark's own tools,
// kept apart so a change to src/ never changes how the harness measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks ----------------------------------------------------------------

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t t0) noexcept {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Process CPU time (all threads, user + system) from getrusage.
[[nodiscard]] std::uint64_t process_cpu_ns();
/// On-CPU time of one thread of this process (/proc/self/task/<tid>/schedstat).
[[nodiscard]] std::uint64_t task_cpu_ns(int tid);
/// Thread ids of this process (/proc/self/task).
[[nodiscard]] std::vector<int> task_ids();
/// Current resident set size in MiB (/proc/self/statm).
[[nodiscard]] double rss_mib();

/// Pin thread `tid` (0: the calling thread) to the `index`-th CPU this
/// process may run on, wrapping round. Each benchmark thread gets a CPU of
/// its own, so the scheduler's placement (a woken worker queued on the
/// generator's CPU, say) cannot differ from run to run.
void pin_thread(int tid, std::size_t index);

// ---- order statistics --------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1]; sorts `v` in place.
[[nodiscard]] inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Quantile q of each time window holding at least `min_samples` samples.
[[nodiscard]] inline std::vector<double> window_quantiles(
    std::vector<std::vector<double>>& windows, double q, std::size_t min_samples = 100) {
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (w.size() >= min_samples) per_window.push_back(quantile(w, q));
  }
  return per_window;
}

// ---- seeded randomness ---------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed ^ 0x6a09e667f3bcc909ull) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  double unit() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// ---- harness side channel ---------------------------------------------------------

/// Bounded single-producer/single-consumer ring. The harness uses its own
/// ring (not dip::core::SpscRing) so its plumbing cost stays fixed when the
/// router's ring changes.
template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) {
    std::size_t p = 2;
    while (p < capacity) p <<= 1;
    slots_.resize(p);
    mask_ = p - 1;
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool push(T&& v) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == slots_.size()) return false;
    slots_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

// ---- result sink -------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metrics in print order of insertion-independent name order (std::map).
using Metrics = std::map<std::string, Metric>;

/// Host + build fingerprint as one JSON object (CPU model, nproc, compiler,
/// build type, DIP_NATIVE, DIP_SIMD_CRYPTO).
[[nodiscard]] std::string fingerprint_json();

}  // namespace perfbench
