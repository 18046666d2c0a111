#include "dip/pit/pit.hpp"

#include <algorithm>
#include <functional>

namespace dip::pit {

std::optional<InterestResult> Pit::record_interest(std::uint64_t name_code, FaceId face,
                                                   SimTime now) {
  auto it = entries_.find(name_code);
  if (it != entries_.end() && it->second.expiry <= now) {
    // Stale entry: treat as absent.
    entries_.erase(it);
    it = entries_.end();
  }

  if (it == entries_.end()) {
    if (entries_.size() >= config_.max_entries) {
      // §2.4: hard per-node state limit; refuse rather than grow unbounded.
      expire(now);
      if (entries_.size() >= config_.max_entries) return std::nullopt;
    }
    Entry entry;
    entry.in_faces.push_back(face);
    entry.expiry = now + config_.entry_lifetime;
    entries_.emplace(name_code, std::move(entry));
    track_expiry(now + config_.entry_lifetime, name_code);
    return InterestResult::kCreated;
  }

  Entry& entry = it->second;
  if (std::find(entry.in_faces.begin(), entry.in_faces.end(), face) !=
      entry.in_faces.end()) {
    return InterestResult::kDuplicate;
  }
  entry.in_faces.push_back(face);
  // Refresh lifetime: any aggregated interest keeps the entry alive.
  entry.expiry = now + config_.entry_lifetime;
  track_expiry(entry.expiry, name_code);
  return InterestResult::kAggregated;
}

std::vector<FaceId> Pit::match_data(std::uint64_t name_code, SimTime now) {
  auto it = entries_.find(name_code);
  if (it == entries_.end() || it->second.expiry <= now) {
    if (it != entries_.end()) entries_.erase(it);
    return {};
  }
  std::vector<FaceId> faces = std::move(it->second.in_faces);
  entries_.erase(it);
  return faces;
}

bool Pit::has_entry(std::uint64_t name_code, SimTime now) const {
  const auto it = entries_.find(name_code);
  return it != entries_.end() && it->second.expiry > now;
}

void Pit::track_expiry(SimTime expiry, std::uint64_t name_code) {
  if (expiry_heap_.size() + 1 > 2 * entries_.size() + kHeapSlack) {
    // Consumed and refreshed entries leave stale items that only expire()
    // (run when the table is full) would pop: rebuild from the live table,
    // which already holds `name_code` at its current expiry.
    expiry_heap_.clear();
    for (const auto& [name, entry] : entries_) expiry_heap_.push_back({entry.expiry, name});
    std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    return;
  }
  expiry_heap_.push_back({expiry, name_code});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
}

std::size_t Pit::expire(SimTime now) {
  std::size_t removed = 0;
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    const HeapItem item = expiry_heap_.back();
    expiry_heap_.pop_back();
    const auto it = entries_.find(item.name_code);
    // Lazy deletion: the heap may hold stale items for refreshed or
    // already-consumed entries; only honor an exact expiry match.
    if (it != entries_.end() && it->second.expiry == item.expiry &&
        it->second.expiry <= now) {
      entries_.erase(it);
      ++removed;
    }
  }
  return removed;
}

}  // namespace dip::pit
