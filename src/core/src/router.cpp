#include "dip/core/router.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "dip/crypto/mac.hpp"

// Read-intent prefetch hint; no-op off GCC/Clang.
#if defined(__GNUC__) || defined(__clang__)
#define DIP_PREFETCH_R(p) __builtin_prefetch((p), 0, 3)
#else
#define DIP_PREFETCH_R(p) ((void)0)
#endif

namespace dip::core {

namespace {

// The shared per-FN steps every dispatch shape calls: the module call, the
// §2.4 budget charge and unsupported-FN rule, and the flow-cached match.

/// Build the OpContext for `fn` and execute `module`; a module error drops
/// the packet as kMalformed and returns false.
bool execute(RouterEnv& env, OpModule& module, const FnTriple& fn, HeaderView& view,
             FaceId ingress, SimTime now, OpScratch& scratch, ProcessResult& result) {
  OpContext ctx;
  ctx.locations = view.locations();
  ctx.field = fn.range();
  ctx.fn = fn;
  ctx.payload = view.payload();
  ctx.ingress = ingress;
  ctx.now = now;
  ctx.env = &env;
  ctx.result = &result;
  ctx.scratch = &scratch;
  if (const auto st = module.execute(ctx); !st) {
    result.drop(DropReason::kMalformed);
    return false;
  }
  return true;
}

/// §2.4 hard per-packet processing limit: charge `cost`, or drop the packet
/// as kBudgetExhausted (false) when it has less left.
bool charge(std::uint32_t& budget, std::uint32_t cost, ProcessResult& result) {
  if (cost > budget) {
    result.drop(DropReason::kBudgetExhausted);
    return false;
  }
  budget -= cost;
  return true;
}

/// §2.4 heterogeneous configuration, for `count` packets whose FN `key`
/// this node cannot honor: true when the FN is path-critical (the caller
/// fails them with the ICMP-like notification), else the FN is skipped as
/// optional.
bool unsupported_fatal(RouterEnv& env, OpKey key, std::size_t count) {
  const auto info = fn_info(key);
  if (info && info->requires_full_path) return true;
  env.counters.fn_skipped_optional += count;
  return false;
}

void count_executed(RouterEnv& env, OpKey key, std::uint64_t n) {
  env.counters.fn_executed += n;
  env.counters.fn_by_key[static_cast<std::size_t>(key) % env.counters.fn_by_key.size()] += n;
}

/// The flow cache's view of one match key, resolved once per wave group
/// (per FN on the per-packet path). `width` is the cacheable slice length
/// in bytes, 0 when nothing is cacheable (no cache, not a match key, or no
/// FIB); `f32` is the v4 FIB a miss prefetches into.
struct MatchCtx {
  FlowCache* cache = nullptr;
  const fib::Ipv4Lpm* f32 = nullptr;
  std::size_t width = 0;
  std::uint64_t generation = 0;
};

MatchCtx match_ctx(RouterEnv& env, OpKey key) {
  MatchCtx m;
  m.cache = env.flow_cache.get();
  if (m.cache == nullptr) return m;
  if (key == OpKey::kMatch32) {
    m.f32 = env.fib32_view();
    if (m.f32 != nullptr) {
      m.width = 4;
      m.generation = m.f32->generation();
    }
  } else if (key == OpKey::kMatch128) {
    if (const fib::Ipv6Lpm* f128 = env.fib128_view()) {
      m.width = 16;
      m.generation = f128->generation();
    }
  }
  return m;
}

/// The cache key of match FN `fn` — its sliced field — or null when the
/// slice is not the canonical byte-aligned width and must take the plain
/// module path.
const std::uint8_t* match_slice(const MatchCtx& m, const HeaderView& view,
                                const FnTriple& fn) {
  const bytes::BitRange range = fn.range();
  if (m.width == 0 || !range.byte_aligned() || range.bit_length / 8 != m.width) {
    return nullptr;
  }
  return view.locations().data() + range.bit_offset / 8;
}

/// Flow-cache counter deltas, flushed once per group.
struct MatchTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  void flush(RouterEnv& env) const {
    if (hits != 0) env.counters.flow_cache_hits += hits;
    if (misses != 0) env.counters.flow_cache_misses += misses;
  }
};

/// One flow-cached match FN, budget already charged: probe `slice` (hash
/// `hash`); on a miss run the module and memoize a forward or no-route
/// verdict. A hit is exactly what the module would compute under this FIB
/// generation. Returns false when processing must stop.
inline bool match_item(RouterEnv& env, const MatchCtx& m, const std::uint8_t* slice,
                       std::uint64_t hash, OpModule& module, const FnTriple& fn,
                       HeaderView& view, FaceId ingress, SimTime now,
                       OpScratch& scratch, ProcessResult& result, MatchTally& tally) {
  const std::span<const std::uint8_t> key{slice, m.width};
  if (const FlowCache::Verdict* v = m.cache->find_hashed(key, hash, m.generation)) {
    ++tally.hits;
    if (v->no_route) {
      result.drop(DropReason::kNoRoute);
      return false;
    }
    result.egress.assign(1, v->egress);
    return result.action == Action::kForward;
  }
  ++tally.misses;
  if (m.f32 != nullptr) {
    // Pull the FIB's first dependent load (DIR-24-8 base slab) while the
    // module sets up its walk.
    fib::Ipv4Addr addr{};
    std::memcpy(addr.bytes.data(), slice, 4);
    m.f32->prefetch(addr);
  }
  const bool egress_was_empty = result.egress.empty();
  if (!execute(env, module, fn, view, ingress, now, scratch, result)) return false;
  if (result.action == Action::kForward && egress_was_empty &&
      result.egress.size() == 1) {
    m.cache->insert(key, m.generation, {result.egress[0], false});
  } else if (result.action == Action::kDrop && result.reason == DropReason::kNoRoute) {
    m.cache->insert(key, m.generation, {0, true});
  }
  return result.action == Action::kForward;
}

/// The trace record of one packet's verdict, timing fields zero (`view` is
/// null when bind failed).
telemetry::TraceRecord trace_record(const HeaderView* view, FaceId ingress,
                                    SimTime now, const ProcessResult& result) {
  static_assert(telemetry::TraceRecord::kMaxFns == HeaderView::kMaxFns);
  telemetry::TraceRecord rec;
  rec.sim_now = now;
  rec.ingress = ingress;
  if (view != nullptr) {
    const auto fns = view->fns();
    rec.fn_count = static_cast<std::uint8_t>(fns.size());
    for (std::size_t i = 0; i < fns.size(); ++i) {
      rec.fns[i] = {fns[i].field_loc, fns[i].field_len, fns[i].op};
    }
  }
  rec.action = static_cast<std::uint8_t>(result.action);
  rec.reason = static_cast<std::uint8_t>(result.reason);
  rec.egress_count = static_cast<std::uint8_t>(
      result.egress.size() < 255 ? result.egress.size() : 255);
  return rec;
}

}  // namespace

ProcessResult Router::process(std::span<std::uint8_t> packet, FaceId ingress,
                              SimTime now) {
  const PacketRef ref(packet);
  ProcessResult result;
  process_batch({&ref, 1}, ingress, now, {&result, 1});
  return result;
}

void Router::process_batch(std::span<const PacketRef> packets, FaceId ingress,
                           SimTime now, std::span<ProcessResult> results) {
  assert(results.size() >= packets.size());
  ++env_.counters.batches;
  if (registry_ != nullptr && registry_->epoch() != module_epoch_) {
    refresh_module_table();
  }

  const std::size_t n = packets.size();
  views_.resize(n);
  bound_.resize(n);  // every slot is written by phase 1 below

  // Phase timing is burst-sampled: the three histograms cost four clock
  // reads per *sampled* burst, nothing on the rest.
  telemetry::RouterStats* stats = env_.stats.get();
  const bool burst_timed = stats != nullptr && stats->burst_sampler.tick();
  std::uint64_t t_phase = burst_timed ? telemetry::now_ns() : 0;

  if (stats != nullptr) stats->burst_packets += n;

  // Waves pay per-burst setup (classification, group lists) that a batch
  // of one cannot amortize, so singletons keep the per-packet engine; work
  // items index packets in 16 bits, bounding the burst at 64k.
  const bool waves_allowed = n >= 2 && n <= 0xFFFF;

  // Phase 1a: bind every header in place (bind_into writes the batch
  // scratch slot directly — no by-value HeaderView copy). Headers are
  // prefetched one packet ahead: the basic header and FN triples of packet
  // i+1 land in L1 while packet i decodes.
  const bool lenient = validation_ == ValidationMode::kLenient;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && !packets[i + 1].bytes.empty()) {
      DIP_PREFETCH_R(packets[i + 1].bytes.data());
      if (packets[i + 1].bytes.size() > 64) {
        DIP_PREFETCH_R(packets[i + 1].bytes.data() + 64);
      }
    }
    results[i].reset();
    bound_[i] = 0;
    if (auto st = HeaderView::bind_into(packets[i].bytes, views_[i]); !st) {
      if (lenient) {
        quarantine(ingress, now, results[i]);
      } else {
        results[i].drop(DropReason::kMalformed);
      }
      continue;
    }
    bound_[i] = 1;
  }
  if (burst_timed) {
    const std::uint64_t t = telemetry::now_ns();
    stats->phase_bind.record(t - t_phase);
    t_phase = t;
  }

  // Phase 1b: structural checks + hop-limit decrement for every bound
  // packet. Uniform-program detection rides along: line-rate traffic is
  // overwhelmingly homogeneous (every packet carries the same FN triples;
  // only the field *contents* differ flow to flow), and spotting that here
  // lets dispatch_burst classify the program once for the whole burst.
  // `exemplar` is the first bound packet; `uniform` stays true while every
  // later bound packet matches its program.
  Tally tally;
  std::size_t exemplar = n;
  bool uniform = waves_allowed;
  for (std::size_t i = 0; i < n; ++i) {
    if (!bound_[i]) {
      ++tally.dropped;
      continue;
    }
    HeaderView& view = views_[i];
    if (view.fns().size() > env_.limits.max_fn_per_packet) {
      results[i].drop(DropReason::kBudgetExhausted);
    } else if (!view.decrement_hop_limit()) {
      results[i].drop(DropReason::kHopLimitExceeded);
    } else {
      if (uniform && exemplar == n) {
        exemplar = i;
      } else if (uniform) {
        const HeaderView& ex = views_[exemplar];
        uniform = view.basic().parallel == ex.basic().parallel &&
                  std::ranges::equal(view.fns(), ex.fns());
      }
      continue;
    }
    bound_[i] = 0;
    ++tally.dropped;
  }
  if (burst_timed) {
    const std::uint64_t t = telemetry::now_ns();
    stats->phase_validate.record(t - t_phase);
    t_phase = t;
  }

  if (stats != nullptr) stats->burst_bound += n - tally.dropped;

  // Phase 2: dispatch FNs. Eligible packets go through position-major
  // waves (module-major within a wave); the rest take the per-packet
  // path. See dispatch_burst for the eligibility contract.
  dispatch_burst(packets, ingress, now, results, stats, waves_allowed, exemplar,
                 uniform, tally);
  if (stats != nullptr) {
    stats->arena_high_water.record(arena_.high_water());
    stats->arena_capacity.record(arena_.capacity());
  }
  if (burst_timed) {
    stats->phase_dispatch.record(telemetry::now_ns() - t_phase);
  }

  env_.counters.processed += packets.size();
  if (tally.forwarded != 0) env_.counters.forwarded += tally.forwarded;
  if (tally.dropped != 0) env_.counters.dropped += tally.dropped;
  if (tally.errors != 0) env_.counters.errors += tally.errors;

  // Burst boundary: no snapshot pointers survive past here, so announce a
  // quiescent state to the control plane (no-op without one).
  env_.ctrl_quiesce();
}

void Router::dispatch_burst(std::span<const PacketRef> packets, FaceId ingress,
                            SimTime now, std::span<ProcessResult> results,
                            telemetry::RouterStats* stats, bool waves_allowed,
                            std::size_t exemplar, bool uniform, Tally& tally) {
  const std::size_t n = packets.size();
  arena_.reset();

  // Per-packet phase-2 state, arena-backed (rewound wholesale next burst).
  constexpr std::uint8_t kDead = 0, kWave = 1, kLegacy = 2;
  std::uint8_t* alive = arena_.alloc<std::uint8_t>(n);
  std::uint8_t* smp = arena_.alloc<std::uint8_t>(n);
  const Wave w{ingress, now, arena_.alloc<FnRunState>(n), alive, smp, results};

  // Deterministic sampling: one tick per bound packet in arrival order —
  // the identical tick sequence the per-packet engine produced, so a
  // replayed stream samples the same packets whatever the dispatch shape.
  if (stats == nullptr) {
    std::memset(smp, 0, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      smp[i] = bound_[i] != 0 && stats->packet_sampler.tick() ? 1 : 0;
    }
  }

  // ---- uniform-burst fast plan -------------------------------------------
  // Phase 1 already proved every bound packet carries the identical FN
  // program (see phase 1b in process_batch), so classify the program
  // once: each wave is a single same-key group already in arrival order,
  // and the per-packet classification and counting sort below are skipped
  // entirely. Mixed bursts fall through to the general plan.
  if (uniform && exemplar != n && !views_[exemplar].basic().parallel) {
    const auto fns = views_[exemplar].fns();
    if (std::ranges::count_if(fns, [&](const FnTriple& fn) { return stateful(fn); }) <= 1) {
      dispatch_burst_uniform(n, w, stats, exemplar, tally);
      return;
    }
  }

  // ---- classification ---------------------------------------------------
  // A packet rides the wave path iff it has no parallel bit (the §2.2
  // relax path and its counters stay per-packet) and at most one stateful
  // router-side FN. All stateful FNs across the burst must sit at the same
  // FN position: waves preserve arrival order within one position, so that
  // is exactly the condition under which cross-packet state (PIT, DPS
  // buckets, CC estimators) observes the per-packet order.
  std::uint8_t* mode = arena_.alloc<std::uint8_t>(n);
  std::uint8_t* sfn = arena_.alloc<std::uint8_t>(n);  // stateful-FN count (capped at 2)
  bool stateful_ok = true;
  std::size_t stateful_pos = static_cast<std::size_t>(-1);
  std::size_t max_fns = 0;
  std::size_t wave_n = 0;
  std::size_t legacy_n = 0;

  for (std::size_t i = 0; i < n; ++i) {
    sfn[i] = 0;
    if (!bound_[i]) {
      mode[i] = kDead;
      continue;
    }
    if (!waves_allowed) {
      mode[i] = kLegacy;
      ++legacy_n;
      continue;
    }
    const auto fns = views_[i].fns();
    std::uint8_t count = 0;
    std::uint8_t pos = 0;
    for (std::size_t f = 0; f < fns.size(); ++f) {
      if (!stateful(fns[f])) continue;
      if (count == 0) pos = static_cast<std::uint8_t>(f);
      if (count < 2) ++count;
    }
    sfn[i] = count;
    if (views_[i].basic().parallel) {
      mode[i] = kLegacy;
      ++legacy_n;
      if (count != 0) stateful_ok = false;
      continue;
    }
    if (count > 1) {
      mode[i] = kLegacy;
      ++legacy_n;
      stateful_ok = false;
      continue;
    }
    if (count == 1) {
      if (stateful_pos == static_cast<std::size_t>(-1)) {
        stateful_pos = pos;
      } else if (stateful_pos != pos) {
        stateful_ok = false;
      }
    }
    mode[i] = kWave;
    ++wave_n;
    if (fns.size() > max_fns) max_fns = fns.size();
  }

  // Stateful FNs must execute in arrival order across the *whole* burst:
  // if any stateful packet fell off the wave path, or they disagree on
  // position, demote every stateful packet so one engine owns their order.
  if (!stateful_ok) {
    for (std::size_t i = 0; i < n; ++i) {
      if (mode[i] == kWave && sfn[i] != 0) {
        mode[i] = kLegacy;
        --wave_n;
        ++legacy_n;
      }
    }
  }

  if (stats != nullptr) {
    stats->burst_wave += wave_n;
    stats->burst_legacy += legacy_n;
  }

  // ---- wave (module-major) dispatch -------------------------------------
  if (wave_n != 0) {
    std::uint64_t t_wave = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w.alive[i] = mode[i] == kWave ? 1 : 0;
      if (w.alive[i]) {
        new (&w.states[i]) FnRunState{env_.limits.per_packet_budget, {}};
        if (smp[i] && t_wave == 0) t_wave = telemetry::now_ns();
      }
    }

    // Group buckets: one per dense commuting key, plus the shared stateful
    // bucket (kept in arrival order), the host-tag bucket, and a generic
    // bucket for keys without a dense-table module (run_fn's per-FN path).
    constexpr std::size_t kStatefulBucket = kModuleTableSize;
    constexpr std::size_t kHostBucket = kModuleTableSize + 1;
    constexpr std::size_t kMiscBucket = kModuleTableSize + 2;
    constexpr std::size_t kBuckets = kModuleTableSize + 3;

    std::uint16_t* order = arena_.alloc<std::uint16_t>(n);
    std::uint8_t* bucket_of = arena_.alloc<std::uint8_t>(n);

    // Wave i executes FN position i of every still-alive wave packet, so
    // per-packet sequencing (early exit, budget, scratch chaining) is
    // exactly the per-packet engine's; only cross-packet interleaving at
    // one position changes, and grouping made that safe.
    for (std::size_t pos = 0; pos < max_fns; ++pos) {
      std::array<std::uint16_t, kBuckets> counts{};
      std::size_t wave_items = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!w.alive[i]) continue;
        const auto fns = views_[i].fns();
        if (pos >= fns.size()) continue;
        const FnTriple& fn = fns[pos];
        const auto key_idx = static_cast<std::size_t>(fn.key());
        std::size_t b;
        if (fn.host_tagged()) {
          b = kHostBucket;
        } else if (stateful(fn)) {
          b = kStatefulBucket;
        } else if (key_idx < kModuleTableSize && module_table_[key_idx] != nullptr) {
          b = key_idx;
        } else {
          b = kMiscBucket;
        }
        bucket_of[i] = static_cast<std::uint8_t>(b);
        ++counts[b];
        ++wave_items;
      }
      if (wave_items == 0) continue;

      // Stable counting sort: groups are contiguous in `order`, each in
      // arrival order.
      std::array<std::uint16_t, kBuckets> start{};
      std::uint16_t acc = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        start[b] = acc;
        acc = static_cast<std::uint16_t>(acc + counts[b]);
      }
      std::array<std::uint16_t, kBuckets> fill = start;
      for (std::size_t i = 0; i < n; ++i) {
        if (!w.alive[i] || pos >= views_[i].fns().size()) continue;
        order[fill[bucket_of[i]]++] = static_cast<std::uint16_t>(i);
      }

      for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::size_t cnt = counts[b];
        if (cnt == 0) continue;
        const std::uint16_t* items = order + start[b];
        if (b == kHostBucket) {
          // Algorithm 1 line 5, for the whole group at once.
          env_.counters.fn_skipped_host += cnt;
        } else if (b == kStatefulBucket || b == kMiscBucket) {
          wave_run_items(w, pos, items, cnt);
        } else {
          wave_group(static_cast<OpKey>(b), module_table_[b], w, pos, items, cnt);
        }
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (mode[i] != kWave) continue;
      finish_packet(i, ingress, now, smp[i] != 0, t_wave, results[i], tally);
    }
  }

  // ---- per-packet dispatch -----------------------------------------------
  // Runs after the waves; safe because by construction either the wave set
  // or the per-packet set holds all the burst's stateful FNs, never both,
  // and commuting FNs are order-free across packets.
  for (std::size_t i = 0; i < n; ++i) {
    if (mode[i] != kLegacy) continue;
    const std::uint64_t t_dispatch = smp[i] ? telemetry::now_ns() : 0;
    dispatch(views_[i], ingress, now, smp[i] != 0, results[i]);
    finish_packet(i, ingress, now, smp[i] != 0, t_dispatch, results[i], tally);
  }
}

void Router::dispatch_burst_uniform(std::size_t n, const Wave& w,
                                    telemetry::RouterStats* stats,
                                    std::size_t exemplar, Tally& tally) {
  // The whole burst is one wave group per FN position: `live` lists the
  // still-running packets in arrival order and is compacted in place after
  // each wave, so group order is always arrival order (the stateful-FN
  // ordering contract holds trivially).
  std::uint16_t* live = arena_.alloc<std::uint16_t>(n);
  std::size_t live_n = 0;
  std::uint64_t t_wave = 0;
  for (std::size_t i = 0; i < n; ++i) {
    w.alive[i] = bound_[i];
    if (!bound_[i]) continue;
    new (&w.states[i]) FnRunState{env_.limits.per_packet_budget, {}};
    live[live_n++] = static_cast<std::uint16_t>(i);
    if (w.sampled[i] && t_wave == 0) t_wave = telemetry::now_ns();
  }
  if (stats != nullptr) stats->burst_wave += live_n;

  const auto fns = views_[exemplar].fns();
  for (std::size_t pos = 0; pos < fns.size() && live_n != 0; ++pos) {
    const FnTriple& fn = fns[pos];
    if (fn.host_tagged()) {
      // Algorithm 1 line 5, for the whole burst at once.
      env_.counters.fn_skipped_host += live_n;
      continue;
    }
    wave_group(fn.key(), find_module(fn.key()), w, pos, live, live_n);
    std::size_t k = 0;
    for (std::size_t j = 0; j < live_n; ++j) {
      if (w.alive[live[j]]) live[k++] = live[j];
    }
    live_n = k;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!bound_[i]) continue;
    finish_packet(i, w.ingress, w.now, w.sampled[i] != 0, t_wave, w.results[i], tally);
  }
}

void Router::wave_group(OpKey key, OpModule* module, const Wave& w, std::size_t pos,
                        const std::uint16_t* items, std::size_t count) {
  if (module == nullptr || !env_.supports(key)) {
    if (unsupported_fatal(env_, key, count)) {
      for (std::size_t k = 0; k < count; ++k) {
        w.results[items[k]].fail_unsupported(key);
        w.alive[items[k]] = 0;
      }
    }
    return;
  }
  switch (key) {
    case OpKey::kMatch32:
    case OpKey::kMatch128:
      if (env_.flow_cache != nullptr) {
        wave_match(key, *module, w, pos, items, count);
        return;
      }
      break;
    case OpKey::kParm:
      wave_parm(*module, w, pos, items, count);
      return;
    case OpKey::kMac:
      if (env_.mac_kind == crypto::MacKind::kEm2) {
        wave_mac(*module, w, pos, items, count);
        return;
      }
      break;
    default:
      break;
  }
  wave_run_items(w, pos, items, count);
}

void Router::wave_run_items(const Wave& w, std::size_t pos, const std::uint16_t* items,
                            std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) wave_run_item(w, pos, items[k]);
}

void Router::wave_run_item(const Wave& w, std::size_t pos, std::size_t p) {
  if (!run_fn(views_[p].fns()[pos], views_[p], w.ingress, w.now, w.sampled[p] != 0,
              w.states[p], w.results[p])) {
    w.alive[p] = 0;
  }
}

inline bool Router::wave_admit(const Wave& w, std::size_t pos, std::size_t p,
                               bool batchable, std::uint32_t cost) {
  if (w.sampled[p] || !batchable) {
    // Sampled packets keep run_fn's timing; the rest keep its exact
    // per-FN semantics (error paths, uncacheable slices).
    wave_run_item(w, pos, p);
    return false;
  }
  if (!charge(w.states[p].budget, cost, w.results[p])) {
    w.alive[p] = 0;
    return false;
  }
  return true;
}

void Router::wave_match(OpKey key, OpModule& module, const Wave& w, std::size_t pos,
                        const std::uint16_t* items, std::size_t count) {
  const MatchCtx m = match_ctx(env_, key);
  const std::uint32_t cost = module.cost();

  // Pass A: hash every cacheable slice and prefetch its cache slot so the
  // pass-B probes hit warm lines.
  const std::uint8_t** slices = arena_.alloc<const std::uint8_t*>(count);
  std::uint64_t* hashes = arena_.alloc<std::uint64_t>(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    slices[k] = match_slice(m, views_[p], views_[p].fns()[pos]);
    if (slices[k] == nullptr) continue;
    hashes[k] = FlowCache::hash({slices[k], m.width});
    m.cache->prefetch(hashes[k]);
  }

  // Pass B, in arrival order (a miss's insert must be visible to the next
  // identical flow, exactly as the per-packet engine fills the cache).
  // Counter deltas stay local and flush once per group: the relaxed
  // fetch_adds were the single largest per-packet cost on this path.
  std::uint64_t executed = 0;
  MatchTally tally;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    if (!wave_admit(w, pos, p, slices[k] != nullptr, cost)) continue;
    ++executed;
    if (!match_item(env_, m, slices[k], hashes[k], module, views_[p].fns()[pos],
                    views_[p], w.ingress, w.now, w.states[p].scratch, w.results[p],
                    tally)) {
      w.alive[p] = 0;
    }
  }
  count_executed(env_, key, executed);
  tally.flush(env_);
}

void Router::wave_parm(OpModule& module, const Wave& w, std::size_t pos,
                       const std::uint16_t* items, std::size_t count) {
  // One AES key schedule for the whole group: K_i = AES_{node_secret}(sid_i)
  // is multi-block under the env's memoised schedule (env_.drkey()).
  // ParmOp's malformed-field errors take run_fn's path.
  const std::uint32_t cost = module.cost();
  crypto::SessionId* sids = arena_.alloc<crypto::SessionId>(count);
  crypto::Block* keys = arena_.alloc<crypto::Block>(count);
  std::uint16_t* lanes = arena_.alloc<std::uint16_t>(count);
  std::size_t lane_n = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    const bytes::BitRange range = views_[p].fns()[pos].range();
    if (!wave_admit(w, pos, p, range.bit_length == 128 && range.byte_aligned(), cost)) {
      continue;
    }
    sids[lane_n] = crypto::block_from(
        views_[p].locations().subspan(range.bit_offset / 8, 16));
    lanes[lane_n] = static_cast<std::uint16_t>(p);
    ++lane_n;
  }
  if (lane_n != 0) {
    env_.drkey().derive_blocks(sids, keys, lane_n);
    for (std::size_t k = 0; k < lane_n; ++k) {
      w.states[lanes[k]].scratch.dynamic_key = keys[k];
    }
  }
  count_executed(env_, OpKey::kParm, lane_n);
}

void Router::wave_mac(OpModule& module, const Wave& w, std::size_t pos,
                      const std::uint16_t* items, std::size_t count) {
  // Batch 2EM CMAC: every packet's tag chains in lockstep through the
  // shared P1/P2 permutations (two_em_mac_blocks), instead of one serial
  // CMAC per packet. kEm2 only — the dispatcher routes kAesCmac nodes to
  // the per-item path. A missing F_parm key (kState error) or an
  // unaligned/empty coverage takes run_fn's path.
  const std::uint32_t cost = module.cost();
  crypto::MacBatchItem* batch = arena_.alloc<crypto::MacBatchItem>(count);
  std::size_t batch_n = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    OpScratch& scratch = w.states[p].scratch;
    const bytes::BitRange range = views_[p].fns()[pos].range();
    const bool batchable = scratch.dynamic_key.has_value() && range.byte_aligned() &&
                           range.bit_length != 0;
    if (!wave_admit(w, pos, p, batchable, cost)) continue;
    scratch.mac.emplace();
    new (&batch[batch_n]) crypto::MacBatchItem{
        *scratch.dynamic_key,
        std::span<const std::uint8_t>(
            views_[p].locations().data() + range.bit_offset / 8,
            range.bit_length / 8),
        &*scratch.mac};
    ++batch_n;
  }
  if (batch_n != 0) crypto::two_em_mac_blocks({batch, batch_n});
  count_executed(env_, OpKey::kMac, batch_n);
}

void Router::finish_packet(std::size_t i, FaceId ingress, SimTime now, bool sampled,
                           std::uint64_t t_start, ProcessResult& result, Tally& tally) {
  // No match FN decided an egress: fall back to the wired default port
  // (the paper's one-hop eval setup), else drop.
  if (result.action == Action::kForward && result.egress.empty()) {
    if (env_.default_egress) {
      result.egress.push_back(*env_.default_egress);
    } else {
      result.drop(DropReason::kNoRoute);
    }
  }
  if (sampled) record_trace(views_[i], ingress, now, t_start, result);
  switch (result.action) {
    case Action::kForward: ++tally.forwarded; break;
    case Action::kDrop: ++tally.dropped; break;
    case Action::kError: ++tally.errors; break;
  }
}

void Router::record_trace(const HeaderView& view, FaceId ingress, SimTime now,
                          std::uint64_t t_start, const ProcessResult& result) {
  telemetry::TraceRecord rec = trace_record(&view, ingress, now, result);
  rec.start_ns = t_start;
  rec.duration_ns = static_cast<std::uint32_t>(telemetry::now_ns() - t_start);
  env_.stats->trace.push(rec);
}

void Router::quarantine(FaceId ingress, SimTime now, ProcessResult& result) {
  result.drop(DropReason::kCorruptQuarantine);
  ++env_.counters.quarantined;
  // Forced trace record — quarantines bypass the sampler so the TraceRing
  // holds evidence for every corrupt packet (bounded by ring overwrite).
  if (env_.stats != nullptr) {
    env_.stats->trace.push(trace_record(nullptr, ingress, now, result));
  }
}

void Router::dispatch(HeaderView& view, FaceId ingress, SimTime now, bool sampled,
                      ProcessResult& result) {
  // §2.2 modular parallelism: the sender asserts the FNs are independent;
  // the router verifies (order-independent keys, disjoint fields) before
  // relaxing the schedule, and falls back to sequential order otherwise.
  // Any schedule is legal for independent FNs; running back to front is
  // the cheapest observably different one — it keeps the relaxation
  // honest (a dependence bug shows up as a verdict difference in the
  // batch-equivalence property test).
  bool reversed = false;
  if (view.basic().parallel) {
    reversed = relax_eligible(view);
    if (reversed) {
      ++env_.counters.parallel_relaxed;
    } else {
      ++env_.counters.parallel_fallback;
    }
  }
  FnRunState state{env_.limits.per_packet_budget, {}};
  const auto fns = view.fns();
  for (std::size_t k = 0; k < fns.size(); ++k) {
    const FnTriple& fn = fns[reversed ? fns.size() - 1 - k : k];
    if (!run_fn(fn, view, ingress, now, sampled, state, result)) return;
  }
}

bool Router::relax_eligible(const HeaderView& view) noexcept {
  const auto fns = view.fns();
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (fns[i].host_tagged()) continue;  // skipped by routers in any order
    const auto info = fn_info(fns[i].key());
    if (!info || !info->order_independent) return false;
    const std::uint32_t a_lo = fns[i].field_loc;
    const std::uint32_t a_hi = a_lo + fns[i].field_len;
    for (std::size_t j = i + 1; j < fns.size(); ++j) {
      if (fns[j].host_tagged()) continue;
      const std::uint32_t b_lo = fns[j].field_loc;
      const std::uint32_t b_hi = b_lo + fns[j].field_len;
      if (a_lo < b_hi && b_lo < a_hi) return false;  // overlapping slices
    }
  }
  return true;
}

OpModule* Router::find_module(OpKey key) const noexcept {
  const auto idx = static_cast<std::size_t>(key);
  if (idx < kModuleTableSize) return module_table_[idx];
  return registry_ != nullptr ? registry_->find(key) : nullptr;
}

bool Router::stateful(const FnTriple& fn) const noexcept {
  return !fn.host_tagged() && find_module(fn.key()) != nullptr &&
         !op_burst_commutes(fn.key());
}

void Router::refresh_module_table() {
  for (std::size_t k = 0; k < kModuleTableSize; ++k) {
    module_table_[k] = registry_->find(static_cast<OpKey>(k));
  }
  module_epoch_ = registry_->epoch();
}

bool Router::run_fn(const FnTriple& fn, HeaderView& view, FaceId ingress, SimTime now,
                    bool sampled, FnRunState& state, ProcessResult& result) {
  // Algorithm 1, line 5: host-tagged operations are skipped by routers.
  if (fn.host_tagged()) {
    ++env_.counters.fn_skipped_host;
    return true;
  }
  const OpKey key = fn.key();
  OpModule* module = find_module(key);
  if (module == nullptr || !env_.supports(key)) {
    if (!unsupported_fatal(env_, key, 1)) return true;
    result.fail_unsupported(key);
    return false;
  }
  if (!charge(state.budget, module->cost(), result)) return false;
  count_executed(env_, key, 1);

  // Per-FN latency, recorded only for packets the stats sampler picked
  // (`sampled` is always false with stats disabled).
  const std::uint64_t t0 = sampled ? telemetry::now_ns() : 0;
  bool ok;
  const MatchCtx m = match_ctx(env_, key);
  if (const std::uint8_t* slice = match_slice(m, view, fn)) {
    MatchTally tally;
    ok = match_item(env_, m, slice, FlowCache::hash({slice, m.width}), *module, fn,
                    view, ingress, now, state.scratch, result, tally);
    tally.flush(env_);
  } else {
    ok = execute(env_, *module, fn, view, ingress, now, state.scratch, result) &&
         result.action == Action::kForward;
  }
  if (sampled) {
    env_.stats->fn_ns[static_cast<std::size_t>(key) % env_.counters.fn_by_key.size()]
        .record(telemetry::now_ns() - t0);
  }
  return ok;
}

}  // namespace dip::core
