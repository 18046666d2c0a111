// Generator self-test: the packet streams are pure functions of the seed,
// and the pool harness's buffer recycling keeps the generator thread's own
// allocations out of the steady state.
//
// Built and registered by perfbench/CMakeLists.txt:
//   ctest --test-dir .bench_build/perfbench
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "pool_harness.hpp"
#include "workload_data.hpp"

namespace {

// Counts heap allocations made by the thread that armed the counter.
thread_local bool g_counting = false;
std::atomic<std::uint64_t> g_allocs{0};

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

int main() {
  using namespace perfbench;
  constexpr std::size_t kPackets = 50000;

  {
    const auto a = make_ip4_data(1).schedule.digest(kPackets);
    const auto b = make_ip4_data(1).schedule.digest(kPackets);
    const auto c = make_ip4_data(2).schedule.digest(kPackets);
    check(a == b, "ip4_zipf_churn: same seed, same packet stream");
    check(a != c, "ip4_zipf_churn: another seed, another packet stream");
  }
  {
    const auto a = make_zoo_data(1).schedule.digest(kPackets);
    const auto b = make_zoo_data(1).schedule.digest(kPackets);
    const auto c = make_zoo_data(2).schedule.digest(kPackets);
    check(a == b, "secure_zoo: same seed, same packet stream");
    check(a != c, "secure_zoo: another seed, another packet stream");
  }
  {
    const auto a = make_mesh_schedule(1).digest(kPackets);
    const auto b = make_mesh_schedule(1).digest(kPackets);
    const auto c = make_mesh_schedule(2).digest(kPackets);
    check(a == b, "mesh leg: same seed, same packet stream");
    check(a != c, "mesh leg: another seed, another packet stream");
  }

  // Steady state: after a warm-up phase, a closed-loop phase must not
  // allocate on the generator (dispatcher) thread. The router's own
  // allocations happen on the worker threads and are not counted.
  {
    const ZooData zoo = make_zoo_data(3);
    const auto registry = dip::netsim::make_default_registry();
    PoolHarness h(zoo.schedule);
    h.start(registry.get(), [&zoo](std::size_t) {
      dip::core::RouterEnv env = dip::netsim::make_basic_env(kNodeId);
      install_zoo_routes(zoo, env);
      env.default_egress = kUplink;
      return env;
    });
    const PhaseStats warm = h.saturate(0.3, false);
    // Allocations the phase itself makes once (its rate vector) are
    // bounded; per-packet allocation would scale with the packet count.
    g_counting = true;
    const PhaseStats steady = h.saturate(0.6, false);
    g_counting = false;
    const std::uint64_t allocs = g_allocs.load();
    std::printf("generator allocations over %llu packets: %llu\n",
                static_cast<unsigned long long>(steady.attempted),
                static_cast<unsigned long long>(allocs));
    check(warm.failed == 0 && steady.failed == 0, "secure_zoo: every completion correct");
    check(steady.attempted > 10000 && allocs < 64,
          "generator allocations do not grow with packets (buffers recycle)");
  }
  return g_failures == 0 ? 0 : 1;
}
