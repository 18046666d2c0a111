// CustodyAgent — one node's custody work (docs/DTN.md), written once for
// every substrate. The wrappers (dtn::CustodyRouterNode in netsim,
// dtn::MeshCustodyFleet on the UDP mesh) supply only primitives: send
// stored bytes on a face, a timer, the clock, and how an ACK leaves (back
// out the ingress face in netsim, a deferred routed inject on the mesh).
//
// The agent owns the node's CustodyStore, RetxScheduler and ACK/drop
// counters and runs as the node's NodeRuntime::ForwardVeto. When the
// F_custody op rewrote a requested tag to name this node, the agent admits
// the fragment (commit, ACK the previous custodian, arm a paced retry),
// refuses it when the store is full of live custody (dropped and NOT
// ACKed, so the previous custodian keeps it and retries), or re-ACKs a
// duplicate without forwarding a second copy. A verified ACK releases the
// fragment and cancels its retry timer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dip/core/env.hpp"
#include "dip/core/header.hpp"
#include "dip/dtn/custody.hpp"
#include "dip/dtn/retx_sched.hpp"
#include "dip/dtn/store.hpp"
#include "dip/host/retry.hpp"

namespace dip::dtn {

/// The custody plane of one packet: parsed header, tag, fragment info.
struct CustodyView {
  core::DipHeader header;
  CustodyTag tag;
  FragInfo frag;
  std::size_t tag_at = 0;  ///< tag offset within header.locations

  [[nodiscard]] std::span<const std::uint8_t> tag_field() const {
    return std::span<const std::uint8_t>(header.locations).subspan(tag_at, kCustodyTagBytes);
  }
  [[nodiscard]] std::uint64_t key() const noexcept {
    return frag_key(tag.bundle_id, frag.index);
  }
};

/// Parse `packet`'s custody plane; nullopt without a complete F_custody field.
[[nodiscard]] std::optional<CustodyView> parse_custody_view(
    std::span<const std::uint8_t> packet);

class CustodyAgent {
 public:
  struct Config {
    CustodyStore::Limits limits{};
    host::RetryPolicy retry{};  ///< custody retransmission schedule
    RetxScheduler::Config retx{};
  };

  struct Substrate {
    /// Replay stored bytes out `face` (a custody retransmission).
    std::function<void(core::FaceId face, std::span<const std::uint8_t> packet)> send;
    /// Run `fn` after `delay`; returns an id for `cancel` (0 if none).
    std::function<std::uint64_t(SimDuration delay, std::function<void()> fn)> schedule;
    /// Empty when timers cannot be cancelled: a stale timer then finds its
    /// entry released or superseded and does nothing.
    std::function<void(std::uint64_t timer)> cancel;
    std::function<SimTime()> now;
    /// How an ACK leaves; `ingress` is where the acknowledged fragment came in.
    std::function<void(core::FaceId ingress, std::vector<std::uint8_t> ack)> send_ack;
  };

  /// Installs the store into `env.custody_store`; reads node id, custody
  /// key, MAC kind and accept_custody from `env` (which must outlive it).
  CustodyAgent(core::RouterEnv& env, Config config, Substrate substrate);

  CustodyAgent(const CustodyAgent&) = delete;  // timers capture `this`
  CustodyAgent& operator=(const CustodyAgent&) = delete;

  /// The forward veto: false when `packet` must not leave on `egress`.
  /// Pass `custody_hop` = false when `egress` is local delivery, whose
  /// receiver ACKs for itself.
  bool on_forward(core::FaceId ingress, core::FaceId egress,
                  std::span<const std::uint8_t> packet, bool custody_hop = true);

  /// A custody ACK addressed to this node. False (nothing released) when
  /// the tag MAC does not verify — a forged release would strand the bundle.
  bool on_ack(const CustodyView& view);

  /// ACK `accepted` (the tag naming this node) to its previous custodian,
  /// unless that is this node (the fragment was injected here).
  void ack(const CustodyTag& accepted, const FragInfo& frag, core::FaceId ingress);

  [[nodiscard]] const CustodyStore& store() const noexcept { return *store_; }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }
  /// Refused admissions plus duplicate copies not forwarded.
  [[nodiscard]] std::uint64_t custody_drops() const noexcept { return custody_drops_; }

 private:
  void arm_retry(std::uint64_t key);
  void on_retry(std::uint64_t key, std::uint32_t expected_attempts);

  core::RouterEnv& env_;
  Config config_;
  Substrate substrate_;
  std::shared_ptr<CustodyStore> store_;
  RetxScheduler retx_;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t custody_drops_ = 0;
};

}  // namespace dip::dtn
