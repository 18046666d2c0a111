// NodeRuntime — what a DIP node does with its router's verdicts, written
// once for every substrate: forward (to every egress; NDN data fans out),
// count a drop per core::DropReason, send the §2.4 FN-unsupported
// notification or the footnote-2 cache response back out the ingress face.
// The substrate supplies only "send these bytes on face F":
// netsim::DipRouterNode hands them to its Network, mesh::MeshRouter to its
// ledgered UDP egress; dtn::CustodyRouterNode adds custody via the veto.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::netsim {

using PacketBytes = std::vector<std::uint8_t>;

/// Verdict drops per core::DropReason: the ledger behind the
/// dip_node_drops_total and dip_mesh_verdict_drops_total series.
class DropLedger {
 public:
  void count(core::DropReason reason) noexcept { ++counts_[slot(reason)]; }
  [[nodiscard]] std::uint64_t operator[](core::DropReason reason) const noexcept {
    return counts_[slot(reason)];
  }

  /// One `series{node=<node>, reason=<reason>}` counter per reason counted
  /// at least once.
  void write_stats(telemetry::StatsWriter& w, std::string_view series,
                   std::string_view node) const;

 private:
  static constexpr std::size_t kSlots = 16;
  [[nodiscard]] static std::size_t slot(core::DropReason reason) noexcept {
    return static_cast<std::size_t>(reason) % kSlots;
  }
  std::array<std::uint64_t, kSlots> counts_{};
};

class NodeRuntime {
 public:
  /// The one primitive a substrate supplies: transmit `packet` out `face`.
  using Send = std::function<void(core::FaceId face, PacketBytes packet)>;
  /// Called for each forwarded copy after the FN rewrites and before the
  /// send; returning false drops that copy. The DTN custody agent decides
  /// admission here (dtn/agent.hpp).
  using ForwardVeto = std::function<bool(core::FaceId ingress, core::FaceId egress,
                                         std::span<const std::uint8_t> packet)>;

  NodeRuntime(core::RouterEnv env, std::shared_ptr<const core::OpRegistry> registry,
              Send send)
      : registry_(std::move(registry)),
        router_(std::move(env), registry_.get()),
        send_(std::move(send)) {}

  [[nodiscard]] core::Router& router() noexcept { return router_; }
  [[nodiscard]] core::RouterEnv& env() noexcept { return router_.env(); }
  [[nodiscard]] const core::RouterEnv& env() const noexcept { return router_.env(); }
  [[nodiscard]] DropLedger& drops() noexcept { return drops_; }
  [[nodiscard]] const DropLedger& drops() const noexcept { return drops_; }

  void set_forward_veto(ForwardVeto veto) { veto_ = std::move(veto); }

  /// Process one packet that arrived on `ingress` and apply the verdict.
  void receive(core::FaceId ingress, PacketBytes packet, SimTime now);

  /// Burst ingress: Router::process_batch over `packets`, then each
  /// verdict in order. Same outcome as receive() per element.
  void receive_burst(core::FaceId ingress, std::span<PacketBytes> packets, SimTime now);

  /// Router counters, RouterStats histograms (when RouterEnv::stats is
  /// installed) and dip_node_drops_total{reason=...}, all labelled
  /// node="<node_id>". Catalogue in docs/OBSERVABILITY.md.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  /// Apply one verdict for `packet` (processed, arrived on `ingress`). The
  /// buffer is moved into the last egress: forwarding adds no copy.
  void apply(core::FaceId ingress, PacketBytes& packet, const core::ProcessResult& result);
  void emit_error(const PacketBytes& original, core::OpKey offending, core::FaceId ingress);
  void respond_from_cache(const PacketBytes& interest, core::FaceId ingress);

  std::shared_ptr<const core::OpRegistry> registry_;
  core::Router router_;
  Send send_;
  ForwardVeto veto_;
  DropLedger drops_;
  // Burst scratch reused across receive_burst calls.
  std::vector<core::PacketRef> burst_refs_;
  std::vector<core::ProcessResult> burst_results_;
};

}  // namespace dip::netsim
