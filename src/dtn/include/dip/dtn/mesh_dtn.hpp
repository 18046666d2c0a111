// MeshCustodyFleet — the custody overlay over a scale-out UDP mesh: the
// torus-soak counterpart of CustodyRouterNode. Every MeshRouter in a MeshNet
// gets its own CustodyAgent (dtn/agent.hpp) as its ForwardTap veto, so
// admission and refusal follow the same rule as in netsim. The fleet
// supplies the mesh primitives — retries replay stored bytes through
// MeshRouter::transmit (the ledgered egress path) off MeshEventLoop timers,
// and an ACK leaves as a deferred inject that SPF routes carry to the
// previous custodian — and terminates bundles at their destination router
// via the MeshNet delivery handler (dedup, ACK, reassembly; ACKs addressed
// to the router release its store). Pass make_registry() into
// MeshConfig.registry before building the mesh.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dip/dtn/agent.hpp"
#include "dip/mesh/mesh_net.hpp"

namespace dip::dtn {

class MeshCustodyFleet {
 public:
  struct Config : CustodyAgent::Config {
    crypto::Block custody_key{};
    std::size_t frag_payload = 256;  ///< payload bytes per fragment
  };

  /// The default module stack plus the custody modules — hand this to
  /// MeshConfig.registry before constructing the MeshNet.
  [[nodiscard]] static std::shared_ptr<core::OpRegistry> make_registry();

  /// Attaches to every router already in `mesh` (build the topology first)
  /// and installs itself as the mesh delivery handler.
  MeshCustodyFleet(mesh::MeshNet& mesh, Config config);
  explicit MeshCustodyFleet(mesh::MeshNet& mesh)
      : MeshCustodyFleet(mesh, Config{}) {}

  /// Fragment `payload` and inject it at router `src` addressed to router
  /// `dst` (mesh::addr_of identities). The source router is the initial
  /// custodian: its store holds every fragment until the next custodian (or
  /// the destination) ACKs. A fragment the source's store refuses is
  /// offered again on the retry schedule until it commits or the store's
  /// retry budget is spent. Returns the bundle id.
  std::uint32_t send(std::size_t src, std::size_t dst,
                     std::span<const std::uint8_t> payload);

  // ---- receiver-side status ---------------------------------------------
  [[nodiscard]] bool bundle_complete(std::uint32_t bundle) const {
    return rx_complete_.count(bundle) != 0;
  }
  [[nodiscard]] std::size_t bundles_sent() const noexcept { return bundle_times_.size(); }
  [[nodiscard]] std::size_t bundles_completed() const noexcept { return rx_complete_.size(); }
  [[nodiscard]] std::uint64_t fragments_delivered() const noexcept { return fragments_delivered_; }
  [[nodiscard]] std::uint64_t duplicate_fragments() const noexcept { return duplicates_; }
  /// Summed over every router's agent.
  [[nodiscard]] std::uint64_t acks_sent() const noexcept;
  [[nodiscard]] std::uint64_t custody_drops() const noexcept;

  /// (send time, completion time) in loop-clock ns; completion 0 until the
  /// last fragment assembled. Recovery latency = completed - sent.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> bundle_times(
      std::uint32_t bundle) const;

  // ---- custody-store status ---------------------------------------------
  [[nodiscard]] const CustodyStore& store(std::size_t i) const { return agents_.at(i)->store(); }
  /// True when every store drained — each committed fragment was ACKed by
  /// the next custodian or the destination (the 100%-recovery audit).
  [[nodiscard]] bool stores_empty() const;
  [[nodiscard]] CustodyStoreStats aggregate_store_stats() const;
  /// Store high-water across the fleet, in bytes.
  [[nodiscard]] std::size_t store_bytes_high_water() const;

  /// Fleet-aggregate dip_dtn_* series plus each node's store series.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  struct RxBundle {
    std::uint16_t total = 0;
    std::uint16_t got = 0;  ///< distinct fragments (rx_frags_ dedups)
  };

  [[nodiscard]] std::uint32_t node_id(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(i + 1);  // MeshNet's id = index + 1
  }

  void on_delivery(std::size_t i, std::span<const std::uint8_t> packet,
                   std::uint64_t now);
  /// Inject a fragment at router `src`; offer it again later if the
  /// source store refused it.
  void offer(std::size_t src, mesh::PacketBytes packet, std::uint32_t attempt);

  mesh::MeshNet& mesh_;
  Config config_;
  std::vector<std::unique_ptr<CustodyAgent>> agents_;  ///< one per router
  std::map<std::uint32_t, RxBundle> rx_pending_;
  std::set<std::uint32_t> rx_complete_;
  std::set<std::uint64_t> rx_frags_;  ///< delivered fragment keys (dedup)
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> bundle_times_;
  std::uint32_t next_bundle_ = 1;
  std::uint64_t fragments_delivered_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace dip::dtn
