// Pending Interest Table (PIT) — the stateful half of NDN forwarding.
//
// F_PIT (Table 1, key 5): on an interest, record the arrival face under the
// content name; on data, consume the entry and return the recorded faces
// (match hit) or report a miss so the router can discard the packet (§3).
//
// Keys are 64-bit name codes (the data plane carries a 32-bit compressed
// name, § 4.1; 64 bits leaves headroom for wider name fields). Entries
// expire after an interest lifetime; expiry is amortized via a lazy min-heap
// that is rebuilt from the live table whenever stale items (consumed or
// refreshed entries) outnumber live ones, so it stays O(live entries).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dip/bytes/time.hpp"

namespace dip::pit {

/// Ingress/egress face identifier (matches fib::NextHop width).
using FaceId = std::uint32_t;

/// Result of recording an interest.
enum class InterestResult : std::uint8_t {
  kCreated,     ///< new PIT entry; forward the interest upstream
  kAggregated,  ///< entry existed; interest suppressed (face recorded)
  kDuplicate,   ///< same face already pending; possible loop — drop
};

class Pit {
 public:
  struct Config {
    SimDuration entry_lifetime = 4 * kSecond;  ///< NDN default interest lifetime
    std::size_t max_entries = 1 << 20;         ///< state-exhaustion guard (§2.4)
  };

  Pit() : Pit(Config{}) {}
  explicit Pit(const Config& config) : config_(config) {}

  /// Record an interest for `name_code` arriving on `face` at `now`.
  /// Returns kCreated/kAggregated/kDuplicate, or nullopt if the table is
  /// full (caller should drop — the §2.4 hard state limit).
  std::optional<InterestResult> record_interest(std::uint64_t name_code, FaceId face,
                                                SimTime now);

  /// Consume the entry for arriving data. Returns the faces to forward the
  /// data to, or an empty vector on PIT miss (router discards the packet).
  std::vector<FaceId> match_data(std::uint64_t name_code, SimTime now);

  /// True iff an unexpired entry exists (non-consuming).
  [[nodiscard]] bool has_entry(std::uint64_t name_code, SimTime now) const;

  /// Drop all entries that expired at or before `now`; returns how many.
  std::size_t expire(SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Items in the lazy expiry heap, stale ones included. After every
  /// record_interest it is at most 2 * size() + kHeapSlack.
  [[nodiscard]] std::size_t heap_size() const noexcept { return expiry_heap_.size(); }
  static constexpr std::size_t kHeapSlack = 64;

 private:
  struct Entry {
    std::vector<FaceId> in_faces;
    SimTime expiry = 0;
  };

  struct HeapItem {
    SimTime expiry;
    std::uint64_t name_code;
    friend bool operator>(const HeapItem& a, const HeapItem& b) noexcept {
      return a.expiry > b.expiry;
    }
  };

  /// Push `name_code`'s current expiry, or rebuild the heap from entries_
  /// when stale items would outnumber live ones (amortized O(1)).
  void track_expiry(SimTime expiry, std::uint64_t name_code);

  Config config_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<HeapItem> expiry_heap_;  ///< min-heap on expiry (std::greater)
};

}  // namespace dip::pit
