// MeshRouter — one DIP router as a socket-attached mesh participant.
//
// The scale-out counterpart of netsim::DipRouterNode: the same
// netsim::NodeRuntime (router plus verdict handling), but faces are UDP
// endpoints on loopback instead of simulated links. Each router is
// thread-confined together with its event loop; routers in different
// threads or processes share nothing but datagrams.
//
// Wire path:
//   egress — the face's netsim::FaultStream decides fate → frame (kData,
//   per-half-link seq) → nonblocking send; EAGAIN is the `dropped` ledger
//   bucket (transmit queue full), reorder hold-backs ride event-loop timers.
//   ingress — drain the socket to EAGAIN, decode frames, bucket kData
//   payloads per ingress face, run each bucket through
//   Router::process_batch, apply verdicts, announce ctrl quiescence.
//
// Conservation ledger (aggregated by MeshNet, same equation as netsim):
//   transmitted + duplicated == delivered + lost + blackholed + dropped
// `corrupted` stays informational — flipped payloads are still delivered
// and surface as router-level drop reasons at the far end.
//
// Discovery is in-band: kHello frames carry link-state announcements
// (origin, version, TTL, neighbor list, bootstrap::CapabilitySet). A router
// learns which node sits behind each face from the frame src_node, floods
// fresh LSAs on, and exposes its LinkStateDb for route computation
// (mesh/control.hpp) and AS-graph capability queries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "dip/bootstrap/capability.hpp"
#include "dip/core/registry.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/mesh/event_loop.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/socket.hpp"
#include "dip/netsim/faults.hpp"
#include "dip/netsim/node_runtime.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::mesh {

using PacketBytes = std::vector<std::uint8_t>;
using FaceId = std::uint32_t;

/// One node's wire-path conservation counters (catalogue above).
struct WireLedger {
  std::uint64_t transmitted = 0;  ///< data frames entering the send path
  std::uint64_t duplicated = 0;   ///< extra copies injected by the fault stream
  std::uint64_t delivered = 0;    ///< data frames arriving at this node
  std::uint64_t lost = 0;         ///< fault-stream drop decisions
  std::uint64_t blackholed = 0;   ///< blackout windows + failed links
  std::uint64_t dropped = 0;      ///< send-side EAGAIN (transmit queue full)
  std::uint64_t corrupted = 0;    ///< informational: delivered with flips
  std::uint64_t decode_errors = 0;   ///< frames that failed decode_frame
  std::uint64_t seq_gaps = 0;        ///< per-face receive sequence breaks
  std::uint64_t unknown_source = 0;  ///< datagrams from unmapped endpoints
  std::uint64_t hello_tx = 0;
  std::uint64_t hello_rx = 0;

  WireLedger& operator+=(const WireLedger& o) noexcept;
  /// transmitted + duplicated - delivered - lost - blackholed - dropped.
  /// Zero over a quiesced aggregate; per-node it is the in-flight skew.
  [[nodiscard]] std::int64_t imbalance() const noexcept;
  /// The dip_mesh_* ledger counters (docs/OBSERVABILITY.md), per node or
  /// mesh-wide depending on `labels`.
  void write_stats(telemetry::StatsWriter& w,
                   std::span<const telemetry::Label> labels) const;
};

/// One origin's link-state announcement as stored in the LSDB.
struct Lsa {
  std::uint16_t version = 0;
  std::vector<std::uint32_t> neighbors;  ///< sorted node ids
  bootstrap::CapabilitySet capabilities;
};

/// origin node id -> latest accepted announcement (ordered: deterministic
/// iteration for SPF and AS-graph construction).
using LinkStateDb = std::map<std::uint32_t, Lsa>;

class MeshRouter {
 public:
  /// Delivery callback for local (host-facing) faces: full DIP packet bytes
  /// plus the loop-clock receive time.
  using LocalDelivery = std::function<void(std::span<const std::uint8_t>, std::uint64_t)>;

  struct Config {
    std::uint32_t node_id = 0;
    core::ValidationMode validation = core::ValidationMode::kStrict;
    /// Mesh-wide fault seed; per-face streams mix in the link ordinal.
    std::uint64_t fault_seed = 0;
    bootstrap::CapabilitySet capabilities;
  };

  /// `loop` and `registry` must outlive the router; the socket is owned.
  /// The router registers itself with the loop and installs a control
  /// plane (ControlTables + RouteJournal) in its RouterEnv.
  MeshRouter(Config config, MeshEventLoop& loop,
             std::unique_ptr<DatagramSocket> socket,
             std::shared_ptr<const core::OpRegistry> registry);
  ~MeshRouter();

  MeshRouter(const MeshRouter&) = delete;
  MeshRouter& operator=(const MeshRouter&) = delete;

  [[nodiscard]] std::uint32_t node_id() const noexcept { return config_.node_id; }
  [[nodiscard]] Endpoint endpoint() const noexcept { return socket_->local_endpoint(); }
  [[nodiscard]] core::Router& router() noexcept { return runtime_.router(); }
  [[nodiscard]] core::RouterEnv& env() noexcept { return runtime_.env(); }
  [[nodiscard]] ctrl::RouteJournal& journal() noexcept { return journal_; }

  /// Attach a wire face toward `peer`. `ordinal` is the mesh-wide
  /// half-link ordinal (the fault-stream PRNG selector); `faults` defaults
  /// inactive.
  FaceId add_wire_face(Endpoint peer, std::uint32_t ordinal,
                       const netsim::FaultPlan& faults = {});
  /// Attach a host-facing face; forwarding to it delivers locally.
  FaceId add_local_face(LocalDelivery delivery);

  /// Mark a wire face dark: subsequent sends are `blackholed` (the failed-
  /// link bucket) until re-enabled. In-flight datagrams still arrive.
  void set_face_up(FaceId face, bool up);

  [[nodiscard]] std::size_t face_count() const noexcept { return faces_.size(); }
  /// Peer node id learned for a wire face (0 until a frame arrived from it).
  [[nodiscard]] std::uint32_t peer_of(FaceId face) const;
  /// Wire face toward `peer_node`, or nullopt if not (yet) learned.
  [[nodiscard]] std::optional<FaceId> face_toward(std::uint32_t peer_node) const;

  /// Originate/refresh this node's LSA (neighbors = peers learned so far)
  /// and flood it with `ttl`. ttl=1 is the initial who-is-there probe that
  /// teaches direct neighbors our node id.
  void originate_lsa(std::uint8_t ttl);

  [[nodiscard]] const LinkStateDb& lsdb() const noexcept { return lsdb_; }

  /// Locally originate a DIP packet (traffic generator ingress): runs the
  /// router over a copy of `packet` with `ingress` (a local face) and
  /// applies the verdict.
  void inject(std::span<const std::uint8_t> packet, FaceId ingress);

  /// Called for every forwarded data packet (after FN rewrites, before the
  /// wire) with (ingress, egress, packet bytes); returning false drops that
  /// copy. The DTN overlay decides custody admission here, so a fragment
  /// its store refuses is not forwarded (dtn/mesh_dtn.hpp).
  using ForwardTap = netsim::NodeRuntime::ForwardVeto;
  void set_forward_tap(ForwardTap tap) { runtime_.set_forward_veto(std::move(tap)); }

  /// Transmit raw packet bytes out `face` through the ledgered egress path
  /// (fault stream → frame → send). Local faces deliver locally. Overlay
  /// use: custody retransmissions replay stored bytes without re-processing.
  void transmit(FaceId face, std::span<const std::uint8_t> packet) {
    send_data(face, PacketBytes(packet.begin(), packet.end()));
  }

  /// Data frames sent on hold-back timers that have not hit the socket yet
  /// (the quiesce condition before a ledger check).
  [[nodiscard]] std::size_t pending_holdbacks() const noexcept { return holdbacks_; }

  [[nodiscard]] const WireLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] std::uint64_t local_delivered() const noexcept { return local_delivered_; }
  [[nodiscard]] std::uint64_t drops(core::DropReason reason) const {
    return runtime_.drops()[reason];
  }

  /// `dip_mesh_*` per-node series — wire ledger, local deliveries and
  /// verdict drops — labelled node="<id>" (catalogue in
  /// docs/OBSERVABILITY.md).
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  enum class FaceKind : std::uint8_t { kWire, kLocal };
  struct Face {
    FaceKind kind = FaceKind::kWire;
    Endpoint peer;
    std::uint32_t peer_node = 0;  ///< learned from frame src_node
    bool up = true;
    netsim::FaultStream faults;
    std::uint64_t tx_seq = 0;       ///< next kData seq on this half-link
    std::uint64_t rx_next_seq = 0;  ///< expected next inbound kData seq
    bool rx_seen = false;
    LocalDelivery delivery;  ///< kLocal only
  };

  void on_readable();
  void handle_datagram(std::span<const std::uint8_t> datagram, Endpoint from);
  void handle_hello(const Frame& frame, FaceId ingress);
  void flush_ingress_bursts(std::uint64_t now);

  /// The ledgered egress path: fault stream, frame, send (or hold back on a
  /// reorder timer). Entry point for every data transmission on a face;
  /// the NodeRuntime's Send.
  void send_data(FaceId face, PacketBytes packet);
  /// Frame + socket write + EAGAIN accounting for one (possibly delayed,
  /// possibly duplicate) copy.
  void emit_frame(FaceId face, PacketBytes frame_bytes, bool duplicate);
  void send_hello_on(FaceId face, const PacketBytes& payload);

  Config config_;
  MeshEventLoop& loop_;
  std::unique_ptr<DatagramSocket> socket_;
  MeshEventLoop::SocketId socket_id_ = 0;
  std::shared_ptr<ctrl::ControlTables> tables_;
  netsim::NodeRuntime runtime_;
  ctrl::RouteJournal journal_;

  std::vector<Face> faces_;
  std::map<Endpoint, FaceId> ingress_of_;  ///< wire endpoint -> face

  LinkStateDb lsdb_;
  std::uint16_t lsa_version_ = 0;

  WireLedger ledger_;
  std::uint64_t local_delivered_ = 0;
  std::size_t holdbacks_ = 0;

  // Ingress burst buckets: per-face packet payloads collected during a
  // drain, then run through process_batch. Kept across drains so the
  // steady path reuses capacity.
  struct Bucket {
    FaceId face = 0;
    std::vector<PacketBytes> packets;
  };
  std::vector<Bucket> buckets_;
  std::vector<std::uint8_t> recv_buf_;
};

}  // namespace dip::mesh
