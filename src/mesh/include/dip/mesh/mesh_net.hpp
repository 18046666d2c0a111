// MeshNet — a whole loopback mesh under one event loop.
//
// Owns the routers, their sockets (real UDP or MockFabric), the clock, and
// the wiring: connect() hands each endpoint a wire face toward the other
// with a fresh mesh-wide half-link ordinal (the netsim::FaultStream
// selector, numbered as netsim::Network numbers its half-links). Discovery
// is in-band: a TTL-1 hello round teaches every router who sits behind each
// face, then a flooded LSA round fills every LSDB; convergence is observed,
// not assumed (all_discovered()).
//
// The aggregate conservation ledger holds because both ends of every link
// are counted in this process:
//   Σ transmitted + Σ duplicated == Σ delivered + Σ lost + Σ blackholed + Σ dropped
// once the mesh is quiescent (no reorder hold-backs pending, sockets
// drained). quiesce() gets a real-clock mesh there; drain() does the same
// for a manual-clock mesh by stepping time to each next timer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dip/mesh/control.hpp"
#include "dip/mesh/event_loop.hpp"
#include "dip/mesh/node.hpp"
#include "dip/netsim/faults.hpp"

namespace dip::mesh {

struct MeshConfig {
  /// In-memory MockFabric sockets instead of real UDP (deterministic unit
  /// tests; pairs with an external ManualClock).
  bool use_mock = false;
  /// External clock (must outlive the mesh); nullptr = owned SteadyClock.
  MeshClock* clock = nullptr;
  std::uint64_t fault_seed = 1;
  core::ValidationMode validation = core::ValidationMode::kStrict;
  bootstrap::CapabilitySet capabilities;  ///< advertised by every router
  /// Module registry shared by every router; nullptr = the default stack
  /// (netsim::make_default_registry()). Overlays extend it — the DTN soak
  /// adds the custody modules here (dtn/mesh_dtn.hpp).
  std::shared_ptr<const core::OpRegistry> registry;
};

class MeshNet {
 public:
  /// node index (0-based), full packet bytes, loop receive time.
  using DeliveryHandler =
      std::function<void(std::size_t, std::span<const std::uint8_t>, std::uint64_t)>;

  explicit MeshNet(MeshConfig config = {});
  ~MeshNet();

  MeshNet(const MeshNet&) = delete;
  MeshNet& operator=(const MeshNet&) = delete;

  [[nodiscard]] MeshEventLoop& loop() noexcept { return loop_; }

  /// Add one router (node id = index + 1; 0 stays the unknown sentinel)
  /// with a host-facing local face delivering to the DeliveryHandler.
  MeshRouter& add_router();
  [[nodiscard]] std::size_t size() const noexcept { return routers_.size(); }
  [[nodiscard]] MeshRouter& router(std::size_t i) { return *routers_.at(i); }
  [[nodiscard]] FaceId local_face_of(std::size_t i) const { return local_faces_.at(i); }

  void set_delivery(DeliveryHandler handler) { delivery_ = std::move(handler); }

  /// Bidirectional link between routers `a` and `b` (indices) with the
  /// same FaultPlan on both half-links (each gets its own PRNG stream).
  void connect(std::size_t a, std::size_t b, const netsim::FaultPlan& faults = {});

  // Topology builders (indices are created on demand via add_router).
  void build_line(std::size_t n, const netsim::FaultPlan& faults = {});
  /// rows x cols torus: 4-regular, diameter (rows+cols)/2 — the 100+-node
  /// soak topology.
  void build_torus(std::size_t rows, std::size_t cols,
                   const netsim::FaultPlan& faults = {});

  /// In-band discovery: TTL-1 hello round (learn peers), then an LSA flood.
  /// Drives the loop until every router's LSDB covers the mesh or
  /// `budget_ns` of loop-clock time passes. Returns all_discovered().
  bool discover(std::uint64_t budget_ns);
  [[nodiscard]] bool all_discovered() const;

  /// publish_routes() on every router (each from its own LSDB). Returns
  /// total destinations routed.
  std::size_t recompute_routes();

  /// Take the a<->b link down (both faces dark: in-flight + future sends
  /// count as blackholed) and re-originate both endpoints' LSAs so the
  /// failure floods. Call recompute_routes() once discover()-level gossip
  /// settles to converge.
  void fail_link(std::size_t a, std::size_t b, std::uint8_t lsa_ttl = 32);

  // ---- quiescence & conservation ---------------------------------------
  [[nodiscard]] std::size_t pending_holdbacks() const;
  /// Real-clock settle: drive the loop until no hold-backs remain and
  /// `idle_polls` consecutive rounds see nothing, or `budget_ns` passes.
  bool quiesce(std::uint64_t budget_ns, int idle_polls = 3);
  /// Manual-clock settle: run until idle, then advance `clock` to each next
  /// timer until nothing is pending. Bounded by `max_advance_ns`.
  bool drain(ManualClock& clock, std::uint64_t max_advance_ns);

  [[nodiscard]] WireLedger aggregate_ledger() const;
  /// Zero aggregate imbalance (call only when quiescent).
  [[nodiscard]] bool ledger_balanced() const {
    return aggregate_ledger().imbalance() == 0;
  }

  [[nodiscard]] bootstrap::AsGraph as_graph() const {
    return routers_.empty() ? bootstrap::AsGraph{} : as_graph_of(routers_.front()->lsdb());
  }

  /// Mesh-aggregate dip_mesh_* series plus the loop's own counters.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  [[nodiscard]] std::unique_ptr<DatagramSocket> make_socket();

  MeshConfig config_;
  std::unique_ptr<MockFabric> fabric_;  ///< when use_mock
  MeshEventLoop loop_;
  std::shared_ptr<const core::OpRegistry> registry_;
  std::vector<std::unique_ptr<MeshRouter>> routers_;
  std::vector<FaceId> local_faces_;
  DeliveryHandler delivery_;
  std::uint32_t next_ordinal_ = 0;
  std::uint16_t next_mock_port_ = 20000;
};

}  // namespace dip::mesh
