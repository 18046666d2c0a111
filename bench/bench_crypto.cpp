// A13 — crypto substrate primitives: the raw costs everything OPT/EPIC/
// F_pass/F_cc pay per invocation. Aes128 picks its kernel at runtime; the
// run context records which one ("aes_kernel"), and the AesKernel* legs
// time the portable and AES-NI kernels side by side.
#include <benchmark/benchmark.h>

#include "bench_guard.hpp"

#include "dip/crypto/aes.hpp"
#include "dip/crypto/drkey.hpp"
#include "dip/crypto/even_mansour.hpp"
#include "dip/crypto/random.hpp"
#include "dip/crypto/siphash.hpp"

namespace dip::bench {
namespace {

using namespace dip::crypto;

void BM_Aes128Block(benchmark::State& state) {
  Xoshiro256 rng(1);
  const Aes128 aes(rng.block());
  Block block = rng.block();
  for (auto _ : state) {
    aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Block);

void BM_Aes128Decrypt(benchmark::State& state) {
  Xoshiro256 rng(2);
  const Aes128 aes(rng.block());
  Block block = rng.block();
  for (auto _ : state) {
    aes.decrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Decrypt);

void BM_Em2Block(benchmark::State& state) {
  Xoshiro256 rng(3);
  const EvenMansour2 em(rng.block());
  Block block = rng.block();
  for (auto _ : state) {
    em.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Em2Block);

void BM_Aes128KeySchedule(benchmark::State& state) {
  Xoshiro256 rng(4);
  Block key = rng.block();
  for (auto _ : state) {
    key[0] = static_cast<std::uint8_t>(key[0] + 1);  // defeat caching
    Aes128 aes(key);
    benchmark::DoNotOptimize(aes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Aes128KeySchedule);

// Per-kernel legs: arg 0 = portable, 1 = AES-NI (skipped without AES-NI).
struct KernelLeg {
  void (*expand_key)(const Block&, Aes128::RoundKeys&) noexcept;
  void (*encrypt_blocks)(const Aes128::RoundKeys&, Block*, std::size_t) noexcept;
};

bool pick_kernel(benchmark::State& state, KernelLeg& leg) {
  if (state.range(0) == 0) {
    leg = {detail::expand_key_portable, detail::encrypt_blocks_portable};
    return true;
  }
  if (!hardware_aes()) {
    state.SkipWithError("CPU has no AES-NI");
    return false;
  }
  leg = {detail::expand_key_aesni, detail::encrypt_blocks_aesni};
  return true;
}

void BM_AesKernelKeySchedule(benchmark::State& state) {
  KernelLeg leg{};
  if (!pick_kernel(state, leg)) return;
  Xoshiro256 rng(8);
  Block key = rng.block();
  Aes128::RoundKeys rk;
  for (auto _ : state) {
    key[0] = static_cast<std::uint8_t>(key[0] + 1);
    leg.expand_key(key, rk);
    benchmark::DoNotOptimize(rk);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AesKernelKeySchedule)->ArgName("aesni")->Arg(0)->Arg(1);

void BM_AesKernelBlock(benchmark::State& state) {
  KernelLeg leg{};
  if (!pick_kernel(state, leg)) return;
  Xoshiro256 rng(9);
  Aes128::RoundKeys rk;
  leg.expand_key(rng.block(), rk);
  Block block = rng.block();
  for (auto _ : state) {
    leg.encrypt_blocks(rk, &block, 1);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesKernelBlock)->ArgName("aesni")->Arg(0)->Arg(1);

void BM_DrKeyDerive(benchmark::State& state) {
  // The F_parm hot path: per-packet dynamic-key derivation.
  Xoshiro256 rng(5);
  const DrKey drkey(rng.block());
  SessionId session = rng.block();
  for (auto _ : state) {
    session[0] = static_cast<std::uint8_t>(session[0] + 1);
    benchmark::DoNotOptimize(drkey.derive(session));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DrKeyDerive);

void BM_SipHash(benchmark::State& state) {
  Xoshiro256 rng(6);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(siphash24(process_sip_key(), data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SipHash)->Arg(8)->Arg(32)->Arg(256);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Xoshiro);

}  // namespace
}  // namespace dip::bench

int main(int argc, char** argv) {
  benchmark::AddCustomContext("aes_kernel",
                              dip::crypto::hardware_aes() ? "aesni" : "portable");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
