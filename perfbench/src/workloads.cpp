#include "workloads.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dip/core/header.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/ctrl/tables.hpp"
#include "dip/epic/epic.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "pool_harness.hpp"
#include "probes.hpp"
#include "workload_data.hpp"

namespace perfbench {

using namespace dip;

namespace {

// setup_s is the median of at least kMinSetups builds, more (up to
// kMaxSetups) while they total under kSetupBudgetS.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 400;
constexpr double kSetupBudgetS = 1.0;
// Paced offered rates: about a quarter (secure_zoo: a third) of each
// workload's saturation rate on a 4-core VM at the time the benchmark was
// defined (about 1.7 Mpps and 0.26 Mpps), so that host interference
// halving the capacity for a while (seen on that VM) still does not push
// the router into queueing.
constexpr double kIp4Rate = 400'000;
constexpr double kZooRate = 80'000;

// Share of --seconds each phase gets (the rest covers set-up and checks).
constexpr double kSaturateShare = 0.6;
constexpr double kPacedShare = 0.3;
constexpr double kTracedShare = 0.2;  // each leg of a traced run
// The untraced run alternates this many saturation and paced slices.
constexpr int kSlices = 4;

double p90(std::vector<double> v) { return quantile(v, 0.9); }

/// The untraced run's two phases, each cut into kSlices slices taken in
/// turn and then pooled, so a burst of host interference lasting seconds
/// lands on part of both phases' samples rather than on all of one.
template <typename Saturate, typename Paced>
std::pair<PhaseStats, PhaseStats> interleaved(double seconds, Saturate&& saturate,
                                              Paced&& paced) {
  std::vector<PhaseStats> sat, pace;
  for (int i = 0; i < kSlices; ++i) {
    sat.push_back(saturate(kSaturateShare * seconds / kSlices));
    pace.push_back(paced(kPacedShare * seconds / kSlices));
  }
  return {pooled(sat), pooled(pace)};
}

/// Median seconds of repeated `build()` calls (each returns its own time
/// and leaves its instance in place for the run).
template <typename Build>
double median_setup(Build&& build) {
  std::vector<double> secs;
  double total = 0;
  while (secs.size() < kMinSetups || (total < kSetupBudgetS && secs.size() < kMaxSetups)) {
    secs.push_back(build());
    total += secs.back();
  }
  return median(secs);
}

void add_e2e(RunResult& r, double setup_s, const PhaseStats& sat, const PhaseStats& paced) {
  Metrics& m = r.metrics;
  m["setup_s"] = {setup_s, "s"};
  m["throughput_mpps"] = {sat.throughput_mpps, "Mpps"};
  m["latency_p50_us"] = {paced.latency_p50_us, "us"};
  m["cpu_us_per_pkt"] = {sat.cpu_us_per_pkt, "us"};
  m["peak_rss_mb"] = {std::max(sat.peak_rss_mib, paced.peak_rss_mib), "MiB"};
  r.info["latency_p90_us"] = {paced.latency_p90_us, "us"};
  r.info["latency_p99_us"] = {paced.latency_p99_us, "us"};
}

/// Per-layer metrics a traced pool run measures itself: the untraced and
/// traced saturation legs, the paced leg, and the control journal.
void add_pool_run_layers(Metrics& m, const PhaseStats& plain, const PhaseStats& traced,
                         const PhaseStats& paced, const PoolHarness& h,
                         const ctrl::JournalStats& js) {
  m["core.pool.submit_ns"] = {traced.submit_ns, "ns"};
  m["core.pool.dispatcher_busy_ratio"] = {traced.dispatcher_busy, "ratio"};
  m["core.pool.worker_busy_ratio"] = {traced.worker_busy, "ratio"};
  m["core.pool.queue_depth_mean"] = {traced.queue_depth_mean, "pkts"};
  m["core.flow_cache_hit_ratio"] = {traced.flow_cache_hit_ratio, "ratio"};
  m["ctrl.flush_ms"] = {js.flushes ? static_cast<double>(js.total_flush_ns) /
                                         static_cast<double>(js.flushes) / 1e6
                                   : 0.0,
                        "ms"};
  m["ctrl.coalesced_ratio"] = {js.ops_enqueued ? static_cast<double>(js.ops_coalesced) /
                                                     static_cast<double>(js.ops_enqueued)
                                               : 0.0,
                               "ratio"};
  m["pit.entries_high_water"] = {static_cast<double>(h.pit_high_water()), "entries"};
  m["pit.unsolicited_drops"] = {static_cast<double>(h.pit_misses()), "count"};
  m["harness.trace_overhead_ratio"] = {traced.throughput_mpps / plain.throughput_mpps, "ratio"};
  m["harness.gen_lag_p99_us"] = {paced.gen_lag_p99_us, "us"};
}

void tally(RunResult& r, const PhaseStats& p) {
  r.attempted += p.attempted;
  r.failed += p.failed;
}

// ---- ip4_zipf_churn -------------------------------------------------------------

/// The control thread: every 100 ms, flap ~100 of the disjoint /24s (about
/// 1k route changes/s, some coalescing within a tick) and publish.
class Churn {
 public:
  Churn(ctrl::RouteJournal& journal, const std::vector<fib::Prefix<32>>& flaps,
        std::uint64_t seed)
      : journal_(journal), flaps_(flaps), installed_(flaps.size(), false), rng_(seed ^ 0xF1A9) {
    publish_ms_.reserve(4096);
    thread_ = std::thread([this] { loop(); });
  }
  ~Churn() { stop(); }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  void stop() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] const std::vector<double>& publish_ms() const { return publish_ms_; }

 private:
  void loop() {
    pin_thread(0, kWorkers + 1);
    auto next = std::chrono::steady_clock::now();
    while (running_.load()) {
      next += std::chrono::milliseconds(100);
      std::this_thread::sleep_until(next);
      const std::uint64_t t0 = now_ns();
      for (int k = 0; k < 100; ++k) {
        const std::size_t i = rng_.below(flaps_.size());
        if (installed_[i]) {
          journal_.remove_route32(flaps_[i]);
        } else {
          journal_.add_route32(flaps_[i], static_cast<fib::NextHop>(200 + i % 50));
        }
        installed_[i] = !installed_[i];
      }
      journal_.flush();
      publish_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }

  ctrl::RouteJournal& journal_;
  const std::vector<fib::Prefix<32>>& flaps_;
  std::vector<bool> installed_;
  Rng rng_;
  std::vector<double> publish_ms_;
  std::atomic<bool> running_{true};
  std::thread thread_;  // last: joined before the members it uses go
};

/// A pool workload's program under test: registry and control tables
/// with their journal; the pool itself lives in the harness.
struct PoolNode {
  std::shared_ptr<core::OpRegistry> registry;
  std::shared_ptr<ctrl::ControlTables> tables;
  std::unique_ptr<ctrl::RouteJournal> journal;

  /// One worker's environment: make_basic_env's defaults (flow cache, PIT,
  /// node secret) reading routes through the control tables.
  [[nodiscard]] core::RouterEnv worker_env(std::optional<FaceId> default_egress) const {
    core::RouterEnv env = netsim::make_basic_env(kNodeId);
    env.control = tables;
    env.ctrl_reader = tables->register_reader();
    env.default_egress = default_egress;
    return env;
  }

  /// Registry, tables seeded from `seed_env`'s static tables, then the pool.
  void build(const core::RouterEnv& seed_env, std::optional<FaceId> default_egress,
             PoolHarness& harness) {
    registry = netsim::make_default_registry();
    tables = std::make_shared<ctrl::ControlTables>();
    journal = std::make_unique<ctrl::RouteJournal>(tables);
    journal->seed(seed_env.fib32.get(), seed_env.fib128.get(), seed_env.xid_table.get());
    harness.start(registry.get(),
                  [this, default_egress](std::size_t) { return worker_env(default_egress); });
  }
};

/// Set a pool workload up (timed; see median_setup): `install` fills the
/// static tables of a make_basic_env environment that seeds the journal.
template <typename Install>
double build_pool_node(std::unique_ptr<PoolNode>& node, PoolHarness& harness,
                       std::optional<FaceId> default_egress, Install&& install) {
  harness.stop();
  node.reset();
  auto fresh = std::make_unique<PoolNode>();
  const std::uint64_t t0 = now_ns();
  core::RouterEnv seed_env = netsim::make_basic_env(kNodeId);
  install(seed_env);
  fresh->build(seed_env, default_egress, harness);
  const double secs = seconds_since(t0);
  node = std::move(fresh);
  return secs;
}

// ---- mesh leg (traced ip4_zipf_churn runs) ---------------------------------------

constexpr std::size_t kMeshWindow = 64;  ///< probes in flight
constexpr std::uint64_t kStallNs = 100'000'000;

/// Drives DIP-32 Zipf flow churn through a MeshNet from this thread (the
/// mesh's one event loop) as a closed loop: probes carry a sequence number
/// and a seeded fill pattern, and every local delivery is checked against
/// the slot's destination.
class MeshLoad {
 public:
  MeshLoad(mesh::MeshNet& net, const Schedule& sched) : net_(net), sched_(sched) {
    buf_.reserve(2048);
    net_.set_delivery([this](std::size_t node, std::span<const std::uint8_t> pkt,
                             std::uint64_t) { on_delivery(node, pkt); });
    header_bytes_ = field_offset(sched_.templates[0].bytes, core::OpKey::kMatch32);
    std::vector<std::uint8_t> copy = sched_.templates[0].bytes;
    core::HeaderView view;
    if (core::HeaderView::bind_into(copy, view)) header_bytes_ = view.header_size();
  }

  /// Keep kMeshWindow probes in flight for `seconds`, timing every loop
  /// round that does work.
  void run(double seconds) {
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    last_delivery_ns_ = now_ns();
    for (;;) {
      while (inflight_ < kMeshWindow) inject_next();
      const std::uint64_t t0 = now_ns();
      if (net_.loop().run_ready() != 0) {
        loop_ns_ += now_ns() - t0;
        ++loop_rounds_;
      }
      const std::uint64_t t = now_ns();
      if (t >= end) return;
      if (t - last_delivery_ns_ > kStallNs) {
        // Nothing arrives for the window: give up on it (counted as failed,
        // since it never reaches delivered_ok).
        inflight_ = 0;
        last_delivery_ns_ = t;
      }
    }
  }

  /// Mean ns of the loop rounds that did work.
  [[nodiscard]] double loop_round_ns() const {
    return loop_rounds_ ? static_cast<double>(loop_ns_) / static_cast<double>(loop_rounds_) : 0.0;
  }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered_ok() const { return ok_; }

 private:
  static constexpr std::size_t kWords = 2;  ///< sequence number, slot

  static std::uint64_t fill_word(std::uint64_t seq, std::size_t i) {
    Rng r(seq * 0x100 + i);
    return r.next();
  }

  void inject_next() {
    const std::size_t idx = cursor_;
    if (++cursor_ == sched_.slots.size()) cursor_ = 0;
    const Slot& s = sched_.slots[idx];
    sched_.materialize(s, buf_);
    std::uint8_t* p = buf_.data() + header_bytes_;
    const std::uint64_t words[kWords] = {sent_, idx};
    std::memcpy(p, words, sizeof(words));
    for (std::size_t off = sizeof(words); off + 8 <= buf_.size() - header_bytes_; off += 8) {
      const std::uint64_t w = fill_word(sent_, off);
      std::memcpy(p + off, &w, 8);
    }
    net_.router(s.ingress).inject(buf_, net_.local_face_of(s.ingress));
    ++sent_;
    ++inflight_;
  }

  void on_delivery(std::size_t node, std::span<const std::uint8_t> pkt) {
    if (inflight_ > 0) --inflight_;
    last_delivery_ns_ = now_ns();
    bool ok = pkt.size() == kMeshFrameBytes && pkt.size() > header_bytes_ + 8 * kWords;
    if (ok) {
      const std::uint8_t* p = pkt.data() + header_bytes_;
      std::uint64_t words[kWords] = {};
      std::memcpy(words, p, sizeof(words));
      const std::size_t idx = static_cast<std::size_t>(words[1]);
      ok = idx < sched_.slots.size() && sched_.slots[idx].expect == node;
      for (std::size_t off = sizeof(words); ok && off + 8 <= pkt.size() - header_bytes_;
           off += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + off, 8);
        ok = w == fill_word(words[0], off);
      }
    }
    if (ok) {
      ++ok_;
    } else if (bad_++ < 5) {
      std::fprintf(stderr, "perfbench: mesh delivery at node %zu failed check\n", node);
    }
  }

  mesh::MeshNet& net_;
  const Schedule& sched_;
  std::vector<std::uint8_t> buf_;
  std::size_t header_bytes_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t sent_ = 0, ok_ = 0, bad_ = 0, inflight_ = 0;
  std::uint64_t last_delivery_ns_ = 0;
  std::uint64_t loop_ns_ = 0, loop_rounds_ = 0;
};

/// The mesh layer's loop and ledger metrics: a 4x4 torus of MeshRouters on
/// loopback UDP (discovery and SPF routes, clean links) carrying DIP-32
/// Zipf flow churn injected at its routers. Every probe must arrive intact
/// at its destination, and the wire ledger must balance after quiesce.
void run_mesh_leg(std::uint64_t seed, double seconds, RunResult& res) {
  const Schedule sched = make_mesh_schedule(seed);
  mesh::MeshConfig cfg;
  cfg.fault_seed = seed;
  mesh::MeshNet net(cfg);
  net.build_torus(kMeshRows, kMeshCols);
  if (!net.discover(5'000'000'000)) throw std::runtime_error("mesh discovery incomplete");
  for (std::size_t i = 0; i < net.size(); ++i) {
    (void)mesh::publish_routes(net.router(i), net.local_face_of(i));
  }
  MeshLoad load(net, sched);
  load.run(seconds);
  if (!net.quiesce(5'000'000'000) || !net.ledger_balanced()) {
    std::fprintf(stderr, "perfbench: mesh ledger does not balance after quiesce (imbalance %lld)\n",
                 static_cast<long long>(net.aggregate_ledger().imbalance()));
    res.correct = false;
  }
  res.attempted += load.sent();
  res.failed += load.sent() - load.delivered_ok();
  const mesh::WireLedger ledger = net.aggregate_ledger();
  Metrics& m = res.metrics;
  m["mesh.loop_round_ns"] = {load.loop_round_ns(), "ns"};
  m["mesh.hops_per_pkt"] = {load.sent() ? static_cast<double>(ledger.transmitted) /
                                                static_cast<double>(load.sent())
                                          : 0.0,
                            "hops"};
  m["mesh.eagain_drops"] = {static_cast<double>(ledger.dropped), "count"};
}

}  // namespace

RunResult run_ip4_zipf_churn(const RunArgs& args) {
  RunResult res;
  const Ip4Data data = make_ip4_data(args.seed);
  std::unique_ptr<PoolNode> node;
  PoolHarness h(data.schedule);
  const auto build = [&] {
    return build_pool_node(node, h, std::nullopt, [&](core::RouterEnv& env) {
      for (const auto& route : data.routes) env.fib32->insert(route.prefix, route.nh);
    });
  };
  const double setup_s = args.trace ? build() : median_setup(build);
  Churn churn(*node->journal, data.flaps, args.seed);
  const double s = args.seconds;
  if (!args.trace) {
    const auto [sat, paced] =
        interleaved(s, [&](double secs) { return h.saturate(secs, false); },
                    [&](double secs) { return h.paced(secs, kIp4Rate, false); });
    churn.stop();
    tally(res, sat);
    tally(res, paced);
    add_e2e(res, setup_s, sat, paced);
    res.info["publish_p90_ms"] = {p90(churn.publish_ms()), "ms"};
  } else {
    const PhaseStats plain = h.saturate(kTracedShare * s, false);
    const PhaseStats traced = h.saturate(kTracedShare * s, true);
    const PhaseStats paced = h.paced(kTracedShare * s, kIp4Rate, true);
    churn.stop();
    for (const auto* p : {&plain, &traced, &paced}) tally(res, *p);
    add_pool_run_layers(res.metrics, plain, traced, paced, h, node->journal->stats());
    run_layer_probes(data.schedule, args.seed, node->registry.get(),
                     [&] { return node->worker_env(std::nullopt); },
                     *node->tables->fib32.read(), res.metrics);
    run_mesh_leg(args.seed, kTracedShare * s, res);
  }
  return res;
}

// ---- secure_zoo ---------------------------------------------------------------------

namespace {

/// Destination-side checks on the last phase's sampled OPT/EPIC packets,
/// off the timed path: every one must verify against its session.
std::uint64_t verify_samples(const ZooData& zoo, const PoolHarness& h) {
  std::uint64_t bad = 0;
  for (const Sample* s : h.samples()) {
    const Template& t = zoo.schedule.templates[zoo.schedule.slots[s->slot].tmpl];
    std::vector<std::uint8_t> copy = s->bytes;
    core::HeaderView view;
    bool ok = core::HeaderView::bind_into(copy, view).has_value();
    if (ok && t.kind == Kind::kEpic) {
      ok = epic::verify_packet(zoo.sessions[t.session], view.locations(), view.payload()) ==
           epic::VerifyResult::kOk;
    } else if (ok) {
      // OPT and NDN+OPT both carry the OPT block at the start of the
      // locations (NDN+OPT's name code rides behind it).
      ok = opt::verify_packet(zoo.sessions[t.session], view.locations(), view.payload()) ==
           opt::VerifyResult::kOk;
    }
    if (!ok) ++bad;
  }
  if (bad != 0) std::fprintf(stderr, "perfbench: %llu sampled packets failed verification\n",
                             static_cast<unsigned long long>(bad));
  return bad;
}

}  // namespace

RunResult run_secure_zoo(const RunArgs& args) {
  RunResult res;
  const ZooData zoo = make_zoo_data(args.seed);
  std::unique_ptr<PoolNode> node;
  PoolHarness h(zoo.schedule);
  const auto build = [&] {
    return build_pool_node(node, h, kUplink,
                           [&](core::RouterEnv& env) { install_zoo_routes(zoo, env); });
  };
  const double setup_s = args.trace ? build() : median_setup(build);
  // Each phase (or slice) keeps its own samples: check them as it returns.
  const auto verified = [&](PhaseStats p) {
    res.failed += verify_samples(zoo, h);
    return p;
  };
  const double s = args.seconds;
  if (!args.trace) {
    const auto [sat, paced] =
        interleaved(s, [&](double secs) { return verified(h.saturate(secs, false)); },
                    [&](double secs) { return verified(h.paced(secs, kZooRate, false)); });
    tally(res, sat);
    tally(res, paced);
    add_e2e(res, setup_s, sat, paced);
  } else {
    const PhaseStats plain = verified(h.saturate(kTracedShare * s, false));
    const PhaseStats traced = verified(h.saturate(kTracedShare * s, true));
    const PhaseStats paced = verified(h.paced(kTracedShare * s, kZooRate, true));
    for (const auto* p : {&plain, &traced, &paced}) tally(res, *p);
    add_pool_run_layers(res.metrics, plain, traced, paced, h, node->journal->stats());
    run_layer_probes(zoo.schedule, args.seed, node->registry.get(),
                     [&] { return node->worker_env(kUplink); }, *node->tables->fib32.read(),
                     res.metrics);
    // No mesh runs here: no event-loop rounds, mesh hops or EAGAIN drops
    // (the framing and socket probes above still price this workload's
    // frames).
    res.metrics["mesh.loop_round_ns"] = {0.0, "ns"};
    res.metrics["mesh.hops_per_pkt"] = {0.0, "hops"};
    res.metrics["mesh.eagain_drops"] = {0.0, "count"};
  }
  return res;
}

}  // namespace perfbench
