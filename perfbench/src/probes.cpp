#include "probes.hpp"

#include <array>
#include <cstring>

#include "dip/core/flow_cache.hpp"
#include "dip/core/header.hpp"
#include "dip/core/router.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/crypto/aes.hpp"
#include "dip/crypto/drkey.hpp"
#include "dip/crypto/even_mansour.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/fib/synth.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/socket.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/telemetry/stats.hpp"

namespace perfbench {

using namespace dip;

namespace {

constexpr int kReps = 5;

struct BatchProbe {
  double ns_per_pkt = 0;      ///< Router::process_batch, bursts of 32
  double stats_overhead = 0;  ///< stats-on / stats-off - 1
  double miss_share = 0;      ///< flow-cache misses / match probes
};

/// Keep `v` alive and observable (the timed work must not be elided).
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

/// Median over kReps of (ns for one call of `body`) / ops.
template <typename F>
double per_op_ns(std::size_t ops, F&& body) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    v.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(ops));
  }
  return median(v);
}

std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}

std::vector<std::vector<std::uint8_t>> materialize(const Schedule& s, std::size_t first,
                                                   std::size_t n) {
  std::vector<std::vector<std::uint8_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.materialize(s.slots[(first + i) % s.slots.size()], out[i]);
  }
  return out;
}

// ---- core ---------------------------------------------------------------------

double probe_bind(const Schedule& sched) {
  auto pkts = materialize(sched, 0, 4096);
  core::HeaderView view;
  std::size_t bound = 0;
  const double ns = per_op_ns(pkts.size() * 16, [&] {
    for (int r = 0; r < 16; ++r) {
      for (auto& p : pkts) bound += core::HeaderView::bind_into(p, view).has_value();
    }
  });
  keep(bound);
  return ns;
}

/// ns per packet of Router::process_batch over bursts of 32 consecutive
/// slots, walking a long stretch of the schedule so the flow cache sees the
/// workload's reuse distance rather than a replayed handful of packets.
double batch_pass(core::Router& router, const Schedule& sched, std::size_t first,
                  std::size_t packets) {
  constexpr std::size_t kBurst = 32;
  std::array<std::vector<std::uint8_t>, kBurst> bufs;
  for (auto& b : bufs) b.reserve(1536);
  std::array<core::PacketRef, kBurst> refs;
  std::array<core::ProcessResult, kBurst> results;
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < packets; i += kBurst) {
    for (std::size_t k = 0; k < kBurst; ++k) {
      sched.materialize(sched.slots[(first + i + k) % sched.slots.size()], bufs[k]);
      refs[k] = core::PacketRef(bufs[k]);
    }
    const FaceId ingress = sched.slots[(first + i) % sched.slots.size()].ingress;
    const std::uint64_t t0 = now_ns();
    router.process_batch(refs, ingress, i, results);
    ns += now_ns() - t0;
  }
  return static_cast<double>(ns) / static_cast<double>(packets);
}

BatchProbe probe_batch(const Schedule& sched, const core::OpRegistry* registry,
                       const std::function<core::RouterEnv()>& make_env) {
  constexpr std::size_t kPass = 1u << 16;
  core::Router plain(make_env(), registry);
  core::Router with_stats(make_env(), registry);
  with_stats.env().stats = telemetry::make_router_stats();
  plain.env().ctrl_resume();
  with_stats.env().ctrl_resume();
  (void)batch_pass(plain, sched, 0, kPass);  // warm caches, PIT, flow cache
  (void)batch_pass(with_stats, sched, 0, kPass);
  const auto c0 = plain.env().counters.snapshot();
  std::vector<double> off, on;
  for (int r = 0; r < kReps; ++r) {
    const std::size_t first = (1 + static_cast<std::size_t>(r)) * kPass;
    off.push_back(batch_pass(plain, sched, first, kPass));
    on.push_back(batch_pass(with_stats, sched, first, kPass));
  }
  const auto c1 = plain.env().counters.snapshot();
  BatchProbe p;
  p.ns_per_pkt = median(off);
  p.stats_overhead = median(on) / p.ns_per_pkt - 1.0;
  const double hits = static_cast<double>(c1.flow_cache_hits - c0.flow_cache_hits);
  const double misses = static_cast<double>(c1.flow_cache_misses - c0.flow_cache_misses);
  p.miss_share = hits + misses > 0 ? misses / (hits + misses) : 0.0;
  plain.env().ctrl_park();
  with_stats.env().ctrl_park();
  return p;
}

double probe_shard(const Schedule& sched) {
  const auto pkts = materialize(sched, 0, 4096);
  std::size_t acc = 0;
  const double ns = per_op_ns(pkts.size() * 16, [&] {
    for (int r = 0; r < 16; ++r) {
      for (const auto& p : pkts) acc += core::RouterPool::shard_of(p, 2);
    }
  });
  keep(acc);
  return ns;
}

/// SpscRing<RouterPool::Item> push then pop_bulk of the workload's packet
/// vectors, 32 at a time (one thread: the handoff's own instruction cost).
double probe_ring(const Schedule& sched) {
  constexpr std::size_t kBurst = 32;
  core::SpscRing<core::RouterPool::Item> ring(1024);
  auto pkts = materialize(sched, 0, kBurst);
  std::array<core::RouterPool::Item, kBurst> items;
  for (std::size_t i = 0; i < kBurst; ++i) items[i].packet = std::move(pkts[i]);
  constexpr std::size_t kRounds = 20000;
  const double ns = per_op_ns(kRounds * kBurst, [&] {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (auto& it : items) (void)ring.try_push(std::move(it));
      (void)ring.pop_bulk(items);
    }
  });
  keep(items);
  return ns;
}

// ---- fib ----------------------------------------------------------------------

/// The keys the workload's packets send to the IPv4 FIB: DIP-32
/// destinations that miss a default-size flow cache, plus NDN interest
/// name codes (F_FIB is not cached).
std::vector<fib::Ipv4Addr> fib_miss_stream(const Schedule& sched) {
  std::vector<std::uint32_t> off32(sched.templates.size()), offname(sched.templates.size());
  for (std::size_t t = 0; t < sched.templates.size(); ++t) {
    off32[t] = field_offset(sched.templates[t].bytes, core::OpKey::kMatch32);
    offname[t] = field_offset(sched.templates[t].bytes, core::OpKey::kFib);
  }
  core::FlowCache cache;
  std::vector<fib::Ipv4Addr> out;
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < sched.slots.size() && out.size() < (1u << 16); ++i) {
    const Slot& s = sched.slots[i];
    sched.materialize(s, buf);
    if (off32[s.tmpl] != 0) {
      const std::span<const std::uint8_t> key(buf.data() + off32[s.tmpl], 4);
      if (cache.find(key, 1) != nullptr) continue;
      cache.insert(key, 1, {});
      out.push_back(fib::ipv4_from_u32(be32(key.data())));
    } else if (offname[s.tmpl] != 0) {
      out.push_back(fib::ipv4_from_u32(be32(buf.data() + offname[s.tmpl])));
    }
  }
  return out;
}

void probe_fib(const Schedule& sched, std::uint64_t seed, const fib::Ipv4Lpm& fib32,
               Metrics& out) {
  const auto keys = fib_miss_stream(sched);
  std::uint64_t acc = 0;
  const double ns32 = keys.empty() ? 0.0 : per_op_ns(keys.size(), [&] {
    for (const auto& k : keys) acc += fib32.lookup(k).value_or(0);
  });
  double depth = 0;
  for (const auto& k : keys) depth += static_cast<double>(fib32.lookup_depth(k));
  out["fib.lookup32_ns"] = {ns32, "ns"};
  out["fib.lookup32_depth_mean"] = {keys.empty() ? 0.0 : depth / static_cast<double>(keys.size()),
                                    "nodes"};
  out["fib.bytes_per_prefix32"] = {
      fib32.size() ? static_cast<double>(fib32.memory_bytes()) / static_cast<double>(fib32.size())
                   : 0.0,
      "B"};

  // IPv6: a synthesized DFZ-shaped table in the production default engine.
  core::RouterEnv env = netsim::make_basic_env(kNodeId);
  const auto routes = fib::synth::ipv6_table(20000, seed);
  for (const auto& r : routes) env.fib128->insert(r.prefix, r.nh);
  const auto probes = fib::synth::probes(routes, 16384, seed + 1);
  const double ns128 = per_op_ns(probes.size(), [&] {
    for (const auto& a : probes) acc += env.fib128->lookup(a).value_or(0);
  });
  keep(acc);
  out["fib.lookup128_ns"] = {ns128, "ns"};
}

// ---- crypto ----------------------------------------------------------------------

void probe_crypto(std::uint64_t seed, Metrics& out) {
  Rng rng(seed ^ 0xC0FFEE);
  const auto block = [&rng] {
    crypto::Block b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return b;
  };
  constexpr std::size_t kKeys = 256;
  std::vector<crypto::Block> keys(kKeys);
  for (auto& k : keys) k = block();
  std::array<std::uint8_t, 52> coverage{};  // the OPT F_MAC target (416 bits)
  for (auto& x : coverage) x = static_cast<std::uint8_t>(rng.next());

  constexpr std::size_t kBlocks = 200000;
  crypto::Block b = block();
  const crypto::Aes128 aes(keys[0]);
  out["crypto.aes_block_ns"] = {per_op_ns(kBlocks, [&] {
                                  for (std::size_t i = 0; i < kBlocks; ++i) aes.encrypt(b);
                                }),
                                "ns"};
  const crypto::EvenMansour2 em(keys[1]);
  out["crypto.em2_block_ns"] = {per_op_ns(kBlocks, [&] {
                                  for (std::size_t i = 0; i < kBlocks; ++i) em.encrypt(b);
                                }),
                                "ns"};
  keep(b);

  constexpr std::size_t kOps = 20000;
  crypto::Block sink{};
  out["crypto.two_em_mac_ns"] = {
      per_op_ns(kOps,
                [&] {
                  for (std::size_t i = 0; i < kOps; ++i) {
                    // Per-packet key, as F_MAC constructs it.
                    const crypto::Block tag = crypto::Em2Mac(keys[i % kKeys]).compute(coverage);
                    sink[i % 16] ^= tag[0];
                  }
                }),
      "ns"};
  out["crypto.drkey_setup_ns"] = {per_op_ns(kOps,
                                            [&] {
                                              for (std::size_t i = 0; i < kOps; ++i) {
                                                const crypto::DrKey d(keys[i % kKeys]);
                                                keep(d);
                                              }
                                            }),
                                  "ns"};
  const crypto::DrKey drkey(keys[2]);
  out["crypto.drkey_derive_ns"] = {per_op_ns(kOps,
                                             [&] {
                                               for (std::size_t i = 0; i < kOps; ++i) {
                                                 const crypto::Block k =
                                                     drkey.derive(keys[i % kKeys]);
                                                 sink[i % 16] ^= k[0];
                                               }
                                             }),
                                   "ns"};
  keep(sink);
}

// ---- op modules -------------------------------------------------------------------------

/// One packet bound for direct module execution.
struct Bound {
  std::vector<std::uint8_t> bytes;
  core::HeaderView view;
  core::OpScratch scratch;
  core::ProcessResult result;
};

/// ns per OpModule::execute of the FN with `key`, over `packets` (rebuilt
/// from `make` before every repetition). Modules listed in `before` run
/// first, untimed, to set up scratch (F_parm before F_MAC, ...).
double module_ns(const core::OpRegistry* registry, core::RouterEnv& env,
                 const std::vector<std::vector<std::uint8_t>>& packets,
                 std::initializer_list<core::OpKey> before, core::OpKey key,
                 const std::function<void()>& reset_env = {}) {
  std::vector<Bound> work(packets.size());
  const auto ctx_for = [&env](Bound& b, core::OpKey k) {
    core::OpContext ctx;
    for (const core::FnTriple& fn : b.view.fns()) {
      if (!fn.host_tagged() && fn.key() == k) {
        ctx.fn = fn;
        ctx.field = fn.range();
      }
    }
    ctx.locations = b.view.locations();
    ctx.payload = b.view.payload();
    ctx.ingress = kFirstPort;
    ctx.env = &env;
    ctx.result = &b.result;
    ctx.scratch = &b.scratch;
    return ctx;
  };
  std::vector<double> v;
  std::size_t ok = 0;
  for (int r = 0; r < kReps; ++r) {
    if (reset_env) reset_env();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      work[i].bytes = packets[i];
      work[i].scratch = {};
      work[i].result.reset();
      (void)core::HeaderView::bind_into(work[i].bytes, work[i].view);
      for (const core::OpKey k : before) {
        core::OpContext ctx = ctx_for(work[i], k);
        ok += registry->find(k)->execute(ctx).has_value();
      }
    }
    std::vector<core::OpContext> ctxs;
    ctxs.reserve(work.size());
    for (auto& b : work) ctxs.push_back(ctx_for(b, key));
    core::OpModule* module = registry->find(key);
    const std::uint64_t t0 = now_ns();
    for (auto& ctx : ctxs) ok += module->execute(ctx).has_value();
    v.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(packets.size()));
  }
  keep(ok);
  return median(v);
}

void probe_modules(std::uint64_t seed, const core::OpRegistry* registry, Metrics& out) {
  const ZooData zoo = make_zoo_data(seed);
  const auto& T = zoo.schedule.templates;
  std::vector<std::vector<std::uint8_t>> opt, epic, xia, interests, datas;
  std::vector<std::uint8_t> ndn_i, ndn_d;
  std::uint32_t off_i = 0, off_d = 0;
  for (const Template& t : T) {
    switch (t.kind) {
      case Kind::kOpt: opt.push_back(t.bytes); break;
      case Kind::kEpic: epic.push_back(t.bytes); break;
      case Kind::kXia: xia.push_back(t.bytes); break;
      case Kind::kNdnInterest:
        if (ndn_i.empty()) {
          ndn_i = t.bytes;
          off_i = t.patch_off;
        }
        break;
      case Kind::kNdnData:
        if (ndn_d.empty()) {
          ndn_d = t.bytes;
          off_d = t.patch_off;
        }
        break;
      default: break;
    }
  }
  for (std::size_t n = 0; n < 1024; ++n) {
    interests.push_back(ndn_i);
    datas.push_back(ndn_d);
    const std::uint32_t code = zoo.names[n];
    for (int b = 0; b < 4; ++b) {
      interests.back()[off_i + b] = static_cast<std::uint8_t>(code >> (24 - 8 * b));
      datas.back()[off_d + b] = static_cast<std::uint8_t>(code >> (24 - 8 * b));
    }
  }

  core::RouterEnv env = netsim::make_basic_env(kNodeId);
  install_zoo_routes(zoo, env);
  using core::OpKey;
  out["opt.parm_ns"] = {module_ns(registry, env, opt, {}, OpKey::kParm), "ns"};
  out["opt.mac_ns"] = {module_ns(registry, env, opt, {OpKey::kParm}, OpKey::kMac), "ns"};
  out["opt.mark_ns"] = {
      module_ns(registry, env, opt, {OpKey::kParm, OpKey::kMac}, OpKey::kMark), "ns"};
  out["epic.hvf_ns"] = {module_ns(registry, env, epic, {}, OpKey::kHvf), "ns"};
  out["xia.dag_ns"] = {module_ns(registry, env, xia, {}, OpKey::kDag), "ns"};
  // F_FIB records a PIT entry per interest; a fresh PIT per repetition
  // keeps every execution on the insert path. F_PIT then consumes them.
  const auto fresh_pit = [&env] { env.pit = pit::Pit(); };
  out["ndn.fib_ns"] = {module_ns(registry, env, interests, {}, OpKey::kFib, fresh_pit), "ns"};
  const auto refill_pit = [&] {
    env.pit = pit::Pit();
    for (const std::uint32_t code : std::span(zoo.names).first(interests.size())) {
      (void)env.pit.record_interest(code, kFirstPort, 0);
    }
  };
  out["pit.pit_op_ns"] = {module_ns(registry, env, datas, {}, OpKey::kPit, refill_pit), "ns"};
}

// ---- mesh framing and sockets ----------------------------------------------------------------

void probe_mesh_io(const Schedule& sched, Metrics& out) {
  const auto pkts = materialize(sched, 0, 1024);
  std::vector<std::vector<std::uint8_t>> frames(pkts.size());
  std::size_t acc = 0;
  out["mesh.encode_ns"] = {per_op_ns(pkts.size(),
                                     [&] {
                                       for (std::size_t i = 0; i < pkts.size(); ++i) {
                                         frames[i] = mesh::encode_frame(
                                             mesh::FrameType::kData, 1, i, pkts[i]);
                                       }
                                     }),
                           "ns"};
  out["mesh.decode_ns"] = {per_op_ns(frames.size(),
                                     [&] {
                                       for (const auto& f : frames) {
                                         acc += mesh::decode_frame(f).has_value();
                                       }
                                     }),
                           "ns"};

  // A loopback UdpSocket pair carrying the same frames, 64 per round so the
  // receive buffer never overflows.
  mesh::UdpSocket tx;
  mesh::UdpSocket rx;
  std::vector<std::uint8_t> buf(mesh::FrameHeader::kWireSize + mesh::FrameHeader::kMaxPayload);
  constexpr std::size_t kChunk = 64;
  std::vector<double> send_ns, recv_ns;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t s_ns = 0, r_ns = 0, n = 0;
    for (std::size_t first = 0; first + kChunk <= frames.size(); first += kChunk) {
      std::uint64_t t0 = now_ns();
      for (std::size_t i = first; i < first + kChunk; ++i) {
        acc += tx.send_to(rx.local_endpoint(), frames[i]) == mesh::IoStatus::kOk;
      }
      s_ns += now_ns() - t0;
      t0 = now_ns();
      for (std::size_t i = 0; i < kChunk; ++i) {
        acc += rx.recv_from(buf).status == mesh::IoStatus::kOk;
      }
      r_ns += now_ns() - t0;
      n += kChunk;
    }
    send_ns.push_back(static_cast<double>(s_ns) / static_cast<double>(n));
    recv_ns.push_back(static_cast<double>(r_ns) / static_cast<double>(n));
  }
  keep(acc);
  out["mesh.sendto_ns"] = {median(send_ns), "ns"};
  out["mesh.recvfrom_ns"] = {median(recv_ns), "ns"};
}

/// Router-side FN executions per packet, by key, over the schedule's start.
std::array<double, 32> fn_mix(const Schedule& sched) {
  std::array<double, 32> mix{};
  std::vector<std::array<double, 32>> per_template(sched.templates.size());
  for (std::size_t t = 0; t < sched.templates.size(); ++t) {
    std::vector<std::uint8_t> copy = sched.templates[t].bytes;
    core::HeaderView view;
    if (!core::HeaderView::bind_into(copy, view)) continue;
    for (const core::FnTriple& fn : view.fns()) {
      if (!fn.host_tagged()) per_template[t][static_cast<std::size_t>(fn.key()) % 32] += 1;
    }
  }
  const std::size_t n = std::min<std::size_t>(sched.slots.size(), 1u << 16);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& m = per_template[sched.slots[i].tmpl];
    for (std::size_t k = 0; k < 32; ++k) mix[k] += m[k] / static_cast<double>(n);
  }
  return mix;
}

}  // namespace

void run_layer_probes(const Schedule& schedule, std::uint64_t seed,
                      const core::OpRegistry* registry,
                      const std::function<core::RouterEnv()>& make_env,
                      const fib::Ipv4Lpm& fib32, Metrics& out) {
  out["core.bind_ns"] = {probe_bind(schedule), "ns"};
  out["core.pool.shard_of_ns"] = {probe_shard(schedule), "ns"};
  out["core.ring.handoff_ns"] = {probe_ring(schedule), "ns"};
  const BatchProbe batch = probe_batch(schedule, registry, make_env);
  out["core.batch_ns_per_pkt"] = {batch.ns_per_pkt, "ns"};
  out["telemetry.stats_overhead_ratio"] = {batch.stats_overhead, "ratio"};
  probe_fib(schedule, seed, fib32, out);
  probe_crypto(seed, out);
  probe_modules(seed, registry, out);
  probe_mesh_io(schedule, out);

  // Reconciliation: process_batch per packet minus the parts measured in
  // isolation (bind + module costs at the stream's FN mix, with match FNs
  // charged their flow-cache miss share of a FIB lookup).
  using core::OpKey;
  const auto mix = fn_mix(schedule);
  const auto at = [&mix](OpKey k) { return mix[static_cast<std::size_t>(k) % 32]; };
  const double parts =
      out["core.bind_ns"].value +
      at(OpKey::kMatch32) * batch.miss_share * out["fib.lookup32_ns"].value +
      at(OpKey::kMatch128) * batch.miss_share * out["fib.lookup128_ns"].value +
      at(OpKey::kParm) * out["opt.parm_ns"].value + at(OpKey::kMac) * out["opt.mac_ns"].value +
      at(OpKey::kMark) * out["opt.mark_ns"].value + at(OpKey::kHvf) * out["epic.hvf_ns"].value +
      at(OpKey::kFib) * out["ndn.fib_ns"].value + at(OpKey::kPit) * out["pit.pit_op_ns"].value +
      at(OpKey::kDag) * out["xia.dag_ns"].value;
  out["core.residual_ns"] = {batch.ns_per_pkt - parts, "ns"};
}

}  // namespace perfbench
