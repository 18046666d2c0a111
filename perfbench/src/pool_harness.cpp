#include "pool_harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

using dip::core::Action;
using dip::core::DropReason;
using dip::core::ProcessResult;
using dip::core::RouterPool;

namespace {

/// Buffers in circulation; also the side-channel capacity, so a push onto
/// either channel can never fail.
constexpr std::size_t kBuffers = 4096;
constexpr std::size_t kBufferBytes = 1536;
/// Closed-loop in-flight window (saturate()).
constexpr std::size_t kWindow = 512;
constexpr std::size_t kSamplesPerWorker = 1024;
/// Throughput and CPU cost are taken over this many equal sub-intervals.
constexpr std::size_t kIntervals = 16;
constexpr std::uint64_t kRssEveryNs = 10'000'000;
/// Latency percentiles are taken per window of this length (see
/// PhaseStats).
constexpr std::uint64_t kWindowNs = 250'000'000;

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::abort();
}

std::uint64_t to_ns(double seconds) { return static_cast<std::uint64_t>(seconds * 1e9); }

}  // namespace

void PhaseStats::summarize() {
  const auto lower_quartile = [](std::vector<double> v) { return quantile(v, 0.25); };
  throughput_mpps = quantile(interval_mpps, 0.75);
  cpu_us_per_pkt = lower_quartile(interval_cpu_us);
  latency_p50_us = lower_quartile(window_p50_us);
  latency_p90_us = lower_quartile(window_p90_us);
  latency_p99_us = lower_quartile(window_p99_us);
  gen_lag_p99_us = lower_quartile(window_lag_p99_us);
}

PhaseStats pooled(const std::vector<PhaseStats>& slices) {
  PhaseStats out;
  const auto join = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const PhaseStats& s : slices) {
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.peak_rss_mib = std::max(out.peak_rss_mib, s.peak_rss_mib);
    join(out.interval_mpps, s.interval_mpps);
    join(out.interval_cpu_us, s.interval_cpu_us);
    join(out.window_p50_us, s.window_p50_us);
    join(out.window_p90_us, s.window_p90_us);
    join(out.window_p99_us, s.window_p99_us);
    join(out.window_lag_p99_us, s.window_lag_p99_us);
  }
  out.summarize();
  return out;
}

PoolHarness::PoolHarness(const Schedule& schedule, bool check)
    : schedule_(schedule), check_(check) {
  bool any_verify = false;
  for (const Slot& s : schedule_.slots) any_verify |= (s.flags & kVerifySample) != 0;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    auto state = std::make_unique<WorkerState>(kBuffers);
    if (any_verify) {
      state->samples.resize(kSamplesPerWorker);
      for (Sample& s : state->samples) s.bytes.reserve(kBufferBytes);
    }
    ws_.push_back(std::move(state));
  }
  free_.reserve(kBuffers);
  for (std::size_t i = 0; i < kBuffers; ++i) {
    free_.emplace_back().reserve(kBufferBytes);
  }
}

PoolHarness::~PoolHarness() { stop(); }

void PoolHarness::stop() {
  if (pool_) pool_->stop();
  pool_.reset();
  worker_tids_.clear();
}

void PoolHarness::start(const dip::core::OpRegistry* registry,
                        const std::function<dip::core::RouterEnv(std::size_t)>& env_factory) {
  const std::vector<int> before = task_ids();
  dip::core::RouterPoolConfig cfg;
  cfg.workers = kWorkers;
  pool_ = std::make_unique<RouterPool>(
      registry, env_factory, cfg,
      [this](std::size_t w, RouterPool::Item& item, ProcessResult& result) {
        on_complete(w, item, result);
      });
  for (const int tid : task_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) worker_tids_.push_back(tid);
  }
  origin_ns_ = now_ns();
}

void PoolHarness::on_complete(std::size_t worker, RouterPool::Item& item,
                              ProcessResult& result) {
  WorkerState& s = *ws_[worker];
  Meta m;
  if (!s.meta.pop(m)) fatal("completion without metadata (pool not FIFO per worker?)");
  const Slot& slot = schedule_.slots[m.slot];
  if (check_) {
    const bool ok = result.action == Action::kForward && result.egress.size() == 1 &&
                    result.egress[0] == slot.expect;
    if (!ok) {
      s.failed.fetch_add(1, std::memory_order_relaxed);
      if (s.reported < 5) {
        ++s.reported;
        std::fprintf(stderr,
                     "perfbench: wrong result slot=%u kind=%u action=%u reason=%s "
                     "egress=%u/%zu expected=%u\n",
                     m.slot, static_cast<unsigned>(schedule_.templates[slot.tmpl].kind),
                     static_cast<unsigned>(result.action),
                     std::string(dip::core::to_string(result.reason)).c_str(),
                     result.egress.empty() ? 0u : result.egress[0], result.egress.size(),
                     slot.expect);
      }
    }
  }
  if (result.reason == DropReason::kPitMiss) ++s.pit_misses;
  if (traced_.load(std::memory_order_relaxed)) {
    s.pit_high_water = std::max<std::uint64_t>(s.pit_high_water,
                                               pool_->router(worker).env().pit.size());
  }
  if (m.window != 0 && s.latency_n < s.latency_ns.size()) {
    const std::uint64_t lat = now_ns() - m.due_ns;
    s.latency_ns[s.latency_n] = static_cast<std::uint32_t>(std::min<std::uint64_t>(lat, ~0u));
    s.latency_window[s.latency_n++] = static_cast<std::uint16_t>(m.window - 1);
  }
  // Keep every sample_stride-th flagged packet; when the buffer is full,
  // drop every other kept one and double the stride, so the kept samples
  // span the whole phase.
  if ((slot.flags & kVerifySample) != 0 && !s.samples.empty() &&
      s.sample_seen++ % s.sample_stride == 0) {
    if (s.sample_n == s.samples.size()) {
      for (std::size_t i = 1; i < s.sample_n / 2; ++i) std::swap(s.samples[i], s.samples[2 * i]);
      s.sample_n /= 2;
      s.sample_stride *= 2;
    }
    Sample& out = s.samples[s.sample_n++];
    out.slot = m.slot;
    out.bytes.assign(item.packet.begin(), item.packet.end());
  }
  if (!s.ret.push(std::move(item.packet))) fatal("buffer return channel full");
}

void PoolHarness::reclaim() {
  std::vector<std::uint8_t> buf;
  for (auto& s : ws_) {
    while (s->ret.pop(buf)) {
      free_.push_back(std::move(buf));
      --buffers_out_;
    }
  }
}

void PoolHarness::submit_next(std::uint64_t due_ns, std::uint32_t window, bool traced) {
  const auto idx = static_cast<std::uint32_t>(cursor_);
  const Slot& s = schedule_.slots[idx];
  if (idx % kRoundSlots == 0) round_now_ = now_ns() - origin_ns_;
  if (++cursor_ == schedule_.slots.size()) cursor_ = 0;

  std::vector<std::uint8_t> buf = std::move(free_.back());
  free_.pop_back();
  schedule_.materialize(s, buf);
  if (!ws_[s.shard]->meta.push(Meta{due_ns, idx, window})) {
    fatal("metadata channel full");
  }
  ++buffers_out_;
  std::size_t w = 0;
  if (traced) {
    const std::uint64_t t0 = now_ns();
    w = pool_->submit(std::move(buf), s.ingress, round_now_);
    submit_ns_sum_ += now_ns() - t0;
    ++submits_timed_;
    if (idx % kRoundSlots == 0) {
      for (std::size_t i = 0; i < ws_.size(); ++i) {
        depth_sum_ += static_cast<double>(pool_->queue_depth(i));
        ++depth_samples_;
      }
    }
  } else {
    w = pool_->submit(std::move(buf), s.ingress, round_now_);
  }
  if (w != s.shard) fatal("pool shard differs from RouterPool::shard_of");
}

std::uint64_t PoolHarness::failed_total() const {
  std::uint64_t n = 0;
  for (const auto& s : ws_) n += s->failed.load(std::memory_order_relaxed);
  return n;
}

void PoolHarness::drain() {
  pool_->drain();
  while (buffers_out_ != 0) reclaim();
}

void PoolHarness::reset_samples() {
  for (auto& s : ws_) {
    s->sample_n = 0;
    s->sample_seen = 0;
    s->sample_stride = 1;
  }
}

void PoolHarness::pin_workers() {
  for (std::size_t i = 0; i < worker_tids_.size(); ++i) pin_thread(worker_tids_[i], i + 1);
}

PhaseStats PoolHarness::saturate(double seconds, bool traced) {
  PhaseStats st;
  pin_workers();
  traced_.store(traced, std::memory_order_relaxed);
  reset_samples();
  const std::uint64_t failed0 = failed_total();
  std::uint64_t submitted = 0;
  std::uint64_t returned = 0;

  const std::uint64_t t0 = now_ns();
  const std::uint64_t warm = t0 + to_ns(std::min(0.5, 0.2 * seconds));
  const std::uint64_t interval = (t0 + to_ns(seconds) - warm) / kIntervals;
  std::uint64_t boundary = warm;
  std::uint64_t next_rss = t0;
  std::uint64_t last_ok = 0, last_t = 0, last_cpu = 0;
  std::uint64_t measure_t0 = 0;
  std::vector<std::uint64_t> worker_cpu0;
  dip::telemetry::CounterSnapshot c0;

  while (st.interval_mpps.size() < kIntervals) {
    const std::size_t before = buffers_out_;
    reclaim();
    returned += before - buffers_out_;
    int burst = 0;
    for (; burst < 32 && buffers_out_ < kWindow && !free_.empty(); ++burst) {
      submit_next(0, 0, traced);
      ++submitted;
    }
    // Window full: let a worker sharing this core run instead of spinning.
    if (burst == 0) std::this_thread::yield();
    const std::uint64_t t = now_ns();
    if (t >= next_rss) {
      st.peak_rss_mib = std::max(st.peak_rss_mib, rss_mib());
      next_rss = t + kRssEveryNs;
    }
    if (t < boundary) continue;
    const std::uint64_t ok = returned - (failed_total() - failed0);
    const std::uint64_t cpu = process_cpu_ns();
    if (measure_t0 == 0) {
      measure_t0 = t;
      for (const int tid : worker_tids_) worker_cpu0.push_back(task_cpu_ns(tid));
      c0 = pool_->counters();
      depth_sum_ = 0;
      depth_samples_ = 0;
      submit_ns_sum_ = 0;
      submits_timed_ = 0;
    } else {
      const double pkts = static_cast<double>(std::max<std::uint64_t>(1, ok - last_ok));
      st.interval_mpps.push_back(pkts * 1e3 / static_cast<double>(t - last_t));
      st.interval_cpu_us.push_back(static_cast<double>(cpu - last_cpu) / 1e3 / pkts);
    }
    last_ok = ok;
    last_t = t;
    last_cpu = cpu;
    boundary += interval;
  }
  const double wall = static_cast<double>(last_t - measure_t0);
  st.summarize();
  if (traced) {
    st.submit_ns = submits_timed_ ? static_cast<double>(submit_ns_sum_) /
                                        static_cast<double>(submits_timed_)
                                  : 0.0;
    // The generator spins when it has no free buffer, so its CPU time says
    // nothing; the dispatcher's share is the time spent inside submit().
    st.dispatcher_busy = static_cast<double>(submit_ns_sum_) / wall;
    double busy = 0;
    for (std::size_t i = 0; i < worker_tids_.size(); ++i) {
      busy += static_cast<double>(task_cpu_ns(worker_tids_[i]) - worker_cpu0[i]) / wall;
    }
    st.worker_busy = worker_tids_.empty() ? 0.0 : busy / static_cast<double>(worker_tids_.size());
    st.queue_depth_mean = depth_samples_ ? depth_sum_ / static_cast<double>(depth_samples_) : 0.0;
    const auto c1 = pool_->counters();
    const double hits = static_cast<double>(c1.flow_cache_hits - c0.flow_cache_hits);
    const double misses = static_cast<double>(c1.flow_cache_misses - c0.flow_cache_misses);
    st.flow_cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
  drain();
  traced_.store(false, std::memory_order_relaxed);
  st.attempted = submitted;
  st.failed = failed_total() - failed0;
  return st;
}

PhaseStats PoolHarness::paced(double seconds, double rate_pps, bool traced) {
  PhaseStats st;
  pin_workers();
  traced_.store(traced, std::memory_order_relaxed);
  reset_samples();
  const std::uint64_t failed0 = failed_total();

  // Latency samples: every `stride`-th packet, at most ~1M per phase.
  const double total = rate_pps * seconds;
  const auto stride = static_cast<std::uint64_t>(std::max(1.0, std::ceil(total / 1e6)));
  const auto cap = static_cast<std::size_t>(total / static_cast<double>(stride)) + 1024;
  for (auto& s : ws_) {
    if (s->latency_ns.size() < cap) {
      s->latency_ns.resize(cap);
      s->latency_window.resize(cap);
    }
    s->latency_n = 0;
  }
  const std::size_t windows =
      static_cast<std::size_t>(seconds * 1e9 / static_cast<double>(kWindowNs)) + 1;
  std::vector<std::vector<double>> lag_us(windows);
  for (auto& w : lag_us) w.reserve(cap / windows + 1024);

  const double period_ns = 1e9 / rate_pps;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t warm = t0 + to_ns(std::min(0.5, 0.2 * seconds));
  const std::uint64_t end = t0 + to_ns(seconds);
  std::uint64_t next_rss = t0;
  std::uint64_t k = 0;
  for (;;) {
    reclaim();
    const std::uint64_t t = now_ns();
    if (t >= end) break;
    if (t >= next_rss) {
      st.peak_rss_mib = std::max(st.peak_rss_mib, rss_mib());
      next_rss = t + kRssEveryNs;
    }
    const std::uint64_t due = t0 + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns);
    if (t < due || free_.empty()) {
      // Early or out of buffers: a worker the pool just woke is often
      // queued on this core (wake-affine placement); yield so it runs now
      // rather than after the scheduler's wakeup granularity.
      std::this_thread::yield();
      continue;
    }
    std::uint32_t window = 0;
    if (due >= warm && k % stride == 0) {
      const std::size_t w = (due - warm) / kWindowNs;
      lag_us[w].push_back(static_cast<double>(now_ns() - due) * 1e-3);
      window = static_cast<std::uint32_t>(w + 1);
    }
    submit_next(due, window, traced);
    ++k;
  }
  drain();
  traced_.store(false, std::memory_order_relaxed);

  std::vector<std::vector<double>> lat_us(windows);
  for (const auto& s : ws_) {
    for (std::size_t i = 0; i < s->latency_n; ++i) {
      lat_us[s->latency_window[i]].push_back(static_cast<double>(s->latency_ns[i]) * 1e-3);
    }
  }
  st.window_p50_us = window_quantiles(lat_us, 0.50);
  st.window_p90_us = window_quantiles(lat_us, 0.90);
  st.window_p99_us = window_quantiles(lat_us, 0.99);
  st.window_lag_p99_us = window_quantiles(lag_us, 0.99);
  st.summarize();
  st.attempted = k;
  st.failed = failed_total() - failed0;
  return st;
}

std::uint64_t PoolHarness::pit_high_water() const {
  std::uint64_t hw = 0;
  for (const auto& s : ws_) hw = std::max(hw, s->pit_high_water);
  return hw;
}

std::uint64_t PoolHarness::pit_misses() const {
  std::uint64_t n = 0;
  for (const auto& s : ws_) n += s->pit_misses;
  return n;
}

std::vector<const Sample*> PoolHarness::samples() const {
  std::vector<const Sample*> out;
  for (const auto& s : ws_) {
    for (std::size_t i = 0; i < s->sample_n; ++i) out.push_back(&s->samples[i]);
  }
  return out;
}

}  // namespace perfbench
