// CustodyStore — the bounded store-and-forward buffer behind F_custody.
//
// One store per custody-capable node, hung off RouterEnv (type-erased
// shared_ptr; core stays dtn-free). Committed entries hold the forwarded
// packet bytes and the egress they left through, so a retry timer can
// retransmit them verbatim until the next custodian ACKs.
//
// Capacity discipline (the disruption-tolerance contract):
//   * byte- and bundle-capped; commits that would exceed either cap first
//     evict *exhausted* entries (retry budget spent) oldest-first — a
//     deterministic order — and are REFUSED if live custody would have to
//     be dropped. A refused bundle was never committed, so "100% of
//     committed bundles recover" survives store pressure: the previous
//     custodian keeps retrying until space frees up.
//   * release() on a custody ACK; duplicate ACKs (chaos links duplicate
//     packets) are counted and ignored.
//   * retry bookkeeping (attempts, timer ids) lives in the entry; the
//     owning CustodyAgent runs the timers on its substrate's event loop.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dip/telemetry/exposition.hpp"

namespace dip::dtn {

struct CustodyStoreStats {
  std::uint64_t commits = 0;
  std::uint64_t duplicate_commits = 0;  ///< re-offered fragments already held
  std::uint64_t refused_full = 0;       ///< admission refused at capacity
  std::uint64_t released = 0;           ///< ACKed and erased
  std::uint64_t evicted = 0;            ///< exhausted entries evicted/abandoned
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicate_acks = 0;
  std::size_t bytes_high_water = 0;
  std::size_t bundles_high_water = 0;
};

class CustodyStore {
 public:
  struct Limits {
    std::size_t max_bundles = 128;
    std::size_t max_bytes = 256 * 1024;
    std::uint32_t max_retries = 16;  ///< retransmissions before exhaustion
  };

  struct Entry {
    std::uint64_t key = 0;  ///< frag_key(bundle_id, index)
    std::vector<std::uint8_t> packet;  ///< forwarded bytes, retransmitted verbatim
    std::uint32_t egress = 0;          ///< face the packet left through
    std::uint32_t attempts = 0;        ///< retransmissions so far
    std::uint64_t committed_at = 0;
    std::uint64_t timer_id = 0;  ///< owner-managed retry timer handle
  };

  CustodyStore() : CustodyStore(Limits{}) {}
  explicit CustodyStore(Limits limits) : limits_(limits) {}

  /// Take custody of `packet`. Returns the live entry, or nullptr when the
  /// store refused admission (caps) — the caller must then NOT accept
  /// custody semantics (no ACK upstream). Re-committing a held key is a
  /// duplicate: counted, existing entry returned, `duplicate` set.
  Entry* commit(std::uint64_t key, std::span<const std::uint8_t> packet,
                std::uint32_t egress, std::uint64_t now, bool* duplicate = nullptr);

  [[nodiscard]] Entry* find(std::uint64_t key);

  /// ACK received: erase the entry. False (and a duplicate_acks count) when
  /// the key is unknown — already released by an earlier copy of the ACK.
  bool release(std::uint64_t key);

  /// One more retransmission charged against `key`'s budget. Returns false
  /// when the entry is exhausted (attempts >= max_retries) — the owner
  /// stops arming timers; the entry stays evictable-under-pressure.
  bool charge_retransmission(std::uint64_t key);

  /// Drop an entry without an ACK (owner gave up). Counted as evicted.
  bool abandon(std::uint64_t key);

  [[nodiscard]] std::size_t bundles() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const Limits& limits() const noexcept { return limits_; }
  [[nodiscard]] const CustodyStoreStats& stats() const noexcept { return stats_; }

  /// `dip_dtn_*` series for this store (catalogue in docs/DTN.md), labelled
  /// node="<node>".
  void write_stats(telemetry::StatsWriter& w, std::uint32_t node) const;

 private:
  /// Evict exhausted entries (oldest commit first) until the caps admit
  /// `incoming` more bytes + one more bundle, or nothing exhausted remains.
  void make_room(std::size_t incoming);

  Limits limits_;
  std::map<std::uint64_t, Entry> entries_;  ///< ordered: deterministic sweeps
  std::size_t bytes_ = 0;
  CustodyStoreStats stats_;
};

}  // namespace dip::dtn
