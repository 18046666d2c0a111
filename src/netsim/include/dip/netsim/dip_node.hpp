// Simulated node types: DIP router, host, and the default module stack.
#pragma once

#include <functional>
#include <memory>

#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"
#include "dip/netsim/network.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::netsim {

/// An OpRegistry with every operation module this repo implements (the
/// "pre-written modules" of §4.1): IP match/source, NDN FIB/PIT, OPT
/// parm/MAC/mark, XIA DAG/intent, F_pass, F_int.
[[nodiscard]] std::shared_ptr<core::OpRegistry> make_default_registry();

/// A DIP-capable router node: core::Router plumbed into the simulator.
class DipRouterNode final : public Node {
 public:
  DipRouterNode(core::RouterEnv env, std::shared_ptr<const core::OpRegistry> registry)
      : registry_(std::move(registry)), router_(std::move(env), registry_.get()) {}

  void on_packet(FaceId face, PacketBytes packet, SimTime now) override;

  /// Burst ingress: process every packet through Router::process_batch and
  /// then apply the verdicts. Equivalent to on_packet per element, but runs
  /// the two-phase batch fast path.
  void on_burst(FaceId face, std::vector<PacketBytes> packets, SimTime now);

  [[nodiscard]] core::Router& router() noexcept { return router_; }
  [[nodiscard]] core::RouterEnv& env() noexcept { return router_.env(); }

  /// Per-drop-reason counters (observability for tests/examples).
  [[nodiscard]] std::uint64_t drops(core::DropReason reason) const {
    return drop_counts_[static_cast<std::size_t>(reason)];
  }

  /// Render this node's stats: router counters and (when RouterEnv::stats
  /// is installed) latency histograms, all labelled node="<node_id>", plus
  /// dip_node_drops_total{reason=...} from the verdict ledger. Catalogue in
  /// docs/OBSERVABILITY.md.
  void write_stats(telemetry::StatsWriter& w) const;

  /// write_stats as a StatsRegistry section named "node <node_id>".
  void register_stats(telemetry::StatsRegistry& registry) const;

  /// One-call text exposition of write_stats().
  [[nodiscard]] std::string dump_stats() const;

 private:
  /// Apply one verdict: forward/replicate, count a drop, or emit the error
  /// notification. Shared by the single-packet and burst paths.
  void apply_verdict(FaceId face, PacketBytes& packet, const core::ProcessResult& result);
  void emit_error(const PacketBytes& original, core::OpKey offending, FaceId ingress);
  void respond_from_cache(const PacketBytes& interest, FaceId ingress);

  std::shared_ptr<const core::OpRegistry> registry_;
  core::Router router_;
  std::array<std::uint64_t, 16> drop_counts_{};
  // Burst scratch reused across on_burst calls.
  std::vector<core::PacketRef> burst_refs_;
  std::vector<core::ProcessResult> burst_results_;
};

/// A host endpoint: delivers received packets to a callback and can send.
class HostNode final : public Node {
 public:
  using Receiver = std::function<void(FaceId, PacketBytes, SimTime)>;

  explicit HostNode(Receiver receiver = {}) : receiver_(std::move(receiver)) {}

  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  void on_packet(FaceId face, PacketBytes packet, SimTime now) override {
    ++received_;
    if (receiver_) receiver_(face, std::move(packet), now);
  }

  /// Transmit a packet out of `face`.
  void send(FaceId face, PacketBytes packet) {
    network()->send(*this, face, std::move(packet));
  }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

 private:
  Receiver receiver_;
  std::uint64_t received_ = 0;
};

}  // namespace dip::netsim
