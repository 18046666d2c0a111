// Chaos-layer clean-path overhead (PR 3 acceptance: < 2% at batch 32).
//
// Two cost centres were added for fault injection and graceful degradation,
// and both must be ~free when nothing is failing:
//   * netsim::Network::send now consults LinkParams::faults — measured with
//     no plan, an all-zero (inactive) plan, and a live low-rate plan;
//   * Router lenient validation (quarantine instead of a malformed drop) —
//     measured as strict vs lenient process_batch over 32 clean DIP-32
//     packets.
//
// JSON output (--benchmark_out) is committed as BENCH_chaos.json; the
// lenient/strict items_per_second ratio is the <2% check.
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.hpp"
#include "dip/netsim/topology.hpp"

namespace dip::bench {
namespace {

constexpr std::size_t kBatch = 32;

std::vector<std::uint8_t> clean_packet(std::uint32_t i) {
  return core::make_dip32_header(fib::ipv4_from_u32(0x0A000000u + (i % 64)),
                                 fib::parse_ipv4("172.16.0.1").value())
      ->serialize();
}

// ---- Network::send with and without a fault plan --------------------------

void run_network_send(benchmark::State& state, const netsim::FaultPlan& plan) {
  netsim::Network net(42);
  netsim::HostNode sender;
  netsim::HostNode receiver;
  net.add_node(sender);
  net.add_node(receiver);
  netsim::LinkParams link;
  link.faults = plan;
  const auto face = net.connect(sender, receiver, link).first;
  const auto packet = clean_packet(7);

  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) sender.send(face, packet);
    net.run();  // drain deliveries so the event queue stays small
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
  state.counters["delivered"] = static_cast<double>(net.stats().delivered);
  state.counters["faults"] = static_cast<double>(net.fault_events());
}

void BM_NetworkSend_NoPlan(benchmark::State& state) {
  run_network_send(state, netsim::FaultPlan{});
}

void BM_NetworkSend_InactivePlan(benchmark::State& state) {
  // All rates zero: plan.active() is false, so this must match NoPlan.
  netsim::FaultPlan plan;
  plan.corrupt_max_bytes = 8;  // knobs without rates do not activate the plan
  run_network_send(state, plan);
}

void BM_NetworkSend_LowRatePlan(benchmark::State& state) {
  // A live plan at realistic chaos-test rates: the per-packet cost is the
  // PRNG draws, not the (rare) fault handling.
  netsim::FaultPlan plan;
  plan.drop_rate = 0.01;
  plan.duplicate_rate = 0.01;
  plan.corrupt_rate = 0.01;
  plan.reorder_rate = 0.01;
  run_network_send(state, plan);
}

BENCHMARK(BM_NetworkSend_NoPlan);
BENCHMARK(BM_NetworkSend_InactivePlan);
BENCHMARK(BM_NetworkSend_LowRatePlan);

// ---- Router validation modes on the clean batch path ----------------------

void run_router_batch(benchmark::State& state, core::ValidationMode mode) {
  core::RouterEnv env = bench_env();
  core::Router router(std::move(env), shared_registry().get());
  router.set_validation(mode);

  std::vector<std::vector<std::uint8_t>> templates(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    templates[i] = clean_packet(static_cast<std::uint32_t>(i));
  }
  std::vector<std::vector<std::uint8_t>> bufs = templates;
  std::vector<core::PacketRef> refs(kBatch);
  std::vector<core::ProcessResult> results(kBatch);

  for (auto _ : state) {
    for (std::size_t b = 0; b < kBatch; ++b) {
      std::memcpy(bufs[b].data(), templates[b].data(), templates[b].size());
      refs[b] = core::PacketRef(bufs[b]);
    }
    router.process_batch(refs, 0, 0, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}

void BM_RouterBatch32_Strict(benchmark::State& state) {
  run_router_batch(state, core::ValidationMode::kStrict);
}

void BM_RouterBatch32_Lenient(benchmark::State& state) {
  run_router_batch(state, core::ValidationMode::kLenient);
}

BENCHMARK(BM_RouterBatch32_Strict);
BENCHMARK(BM_RouterBatch32_Lenient);

}  // namespace
}  // namespace dip::bench

BENCHMARK_MAIN();
