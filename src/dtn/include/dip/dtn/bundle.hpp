// Host-side bundle transfer: BundleSender / BundleReceiver.
//
// The host half of docs/DTN.md. A bundle is an application payload cut into
// fragments; each fragment travels as one dip32+custody packet
// (make_dip32_custody_header) whose payload is the fragment bytes. The
// sender is the bundle's *initial custodian*: every fragment is driven by a
// host::ReliableSender until the first custody-capable router ACKs — from
// then on recovery is the custodians' job, hop by hop, and the sender can
// forget the fragment. The receiver verifies the chain MAC, ACKs the last
// custodian (completing the final custody transfer), deduplicates, and
// reassembles.
//
// Reassembly policy mirrors the router's ValidationMode split:
//   * strict  — a fragment whose `total` disagrees with the bundle's
//     established geometry poisons the whole bundle (it can never assemble
//     coherently; fail loudly);
//   * lenient — the conflicting fragment alone is quarantined (counted,
//     ignored, NOT ACKed) and the bundle keeps assembling from well-formed
//     fragments — the custodian retries, and a clean copy completes it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dip/dtn/custody.hpp"
#include "dip/host/retry.hpp"

namespace dip::dtn {

class BundleSender {
 public:
  struct Config {
    /// Source address; the receiver's final custody ACK is addressed to
    /// mesh::addr_of(node_id), so pick self = mesh::addr_of(node_id) (and
    /// route mesh::prefix_of(node_id) back to this host) for end-to-end ACKs.
    fib::Ipv4Addr self{};
    fib::Ipv4Addr dst{};
    std::uint32_t node_id = 0;  ///< seeds the custody chain as first custodian
    crypto::Block custody_key{};
    crypto::MacKind mac = crypto::MacKind::kEm2;
    std::size_t frag_payload = 512;  ///< payload bytes per fragment
    std::uint8_t hop_limit = 64;
    host::RetryPolicy retry{};
  };

  /// `node` must outlive the sender and be attached to a network. Hook the
  /// node's receiver to on_packet (directly or via a demux that also feeds
  /// other consumers).
  BundleSender(netsim::HostNode& node, netsim::FaceId face, Config config)
      : node_(node), face_(face), config_(config) {}

  /// Fragment `payload` and launch every fragment under retry. Returns the
  /// bundle id.
  std::uint32_t send(std::span<const std::uint8_t> payload);

  /// Feed an incoming packet; returns true when it was a custody ACK for one
  /// of our in-flight fragments (consumed), false otherwise.
  bool on_packet(std::span<const std::uint8_t> packet);

  /// Fragments still awaiting their first custody transfer.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_.size(); }
  /// Fragments the network has taken custody of.
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  /// Fragments whose retry budget ran out before any custody ACK.
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept;

 private:
  struct Flight {
    std::unique_ptr<host::ReliableSender> sender;
    host::ReliableSender::Epoch epoch = 0;
    std::vector<std::uint8_t> payload;
    FragInfo frag;
  };

  netsim::HostNode& node_;
  netsim::FaceId face_;
  Config config_;
  std::map<std::uint64_t, Flight> in_flight_;  ///< frag_key -> flight
  /// Retired senders are kept alive: their armed loop timers capture the
  /// sender object and must find it valid when they fire.
  std::vector<std::unique_ptr<host::ReliableSender>> retired_;
  std::uint32_t next_bundle_ = 1;
  std::uint64_t committed_ = 0;
  std::uint64_t failures_ = 0;
};

class BundleReceiver {
 public:
  struct Config {
    fib::Ipv4Addr self{};
    crypto::Block custody_key{};
    crypto::MacKind mac = crypto::MacKind::kEm2;
    bool strict = true;  ///< geometry-conflict policy (header comment)
  };

  /// Called once per completed bundle with the reassembled payload.
  using BundleHandler =
      std::function<void(std::uint32_t bundle_id, std::vector<std::uint8_t> payload)>;

  BundleReceiver(netsim::HostNode& node, netsim::FaceId face, Config config,
                 BundleHandler handler)
      : node_(node), face_(face), config_(config), handler_(std::move(handler)) {}

  /// Feed an incoming packet; returns true when it was a custody-tagged
  /// fragment addressed to us (consumed — ACKed/deduped/assembled).
  bool on_packet(std::span<const std::uint8_t> packet);

  [[nodiscard]] std::uint64_t bundles_completed() const noexcept { return completed_.size(); }
  [[nodiscard]] std::uint64_t fragments_received() const noexcept { return fragments_; }
  [[nodiscard]] std::uint64_t duplicate_fragments() const noexcept { return duplicates_; }
  /// Bad MAC, malformed geometry, or (lenient) conflicting fragments.
  [[nodiscard]] std::uint64_t rejected_fragments() const noexcept { return rejected_; }
  /// Strict mode: bundles abandoned on a geometry conflict.
  [[nodiscard]] std::uint64_t poisoned_bundles() const noexcept { return poisoned_; }

 private:
  struct Pending {
    std::uint16_t total = 0;
    std::map<std::uint16_t, std::vector<std::uint8_t>> frags;
    bool poisoned = false;
  };

  void send_ack(const CustodyTag& tag, const FragInfo& frag);

  netsim::HostNode& node_;
  netsim::FaceId face_;
  Config config_;
  BundleHandler handler_;
  std::map<std::uint32_t, Pending> pending_;
  std::set<std::uint32_t> completed_;
  std::uint64_t fragments_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t poisoned_ = 0;
};

}  // namespace dip::dtn
