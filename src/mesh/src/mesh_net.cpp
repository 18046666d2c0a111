#include "dip/mesh/mesh_net.hpp"

#include <algorithm>

#include "dip/netsim/dip_node.hpp"

namespace dip::mesh {

MeshNet::MeshNet(MeshConfig config)
    : config_(std::move(config)),
      fabric_(config_.use_mock ? std::make_unique<MockFabric>() : nullptr),
      loop_(config_.clock),
      registry_(config_.registry ? config_.registry : netsim::make_default_registry()) {
  if (config_.capabilities.size() == 0) {
    config_.capabilities = bootstrap::full_capability_set();
  }
}

MeshNet::~MeshNet() = default;

std::unique_ptr<DatagramSocket> MeshNet::make_socket() {
  if (fabric_) return fabric_->create(next_mock_port_++);
  return std::make_unique<UdpSocket>();
}

MeshRouter& MeshNet::add_router() {
  MeshRouter::Config cfg;
  cfg.node_id = static_cast<std::uint32_t>(routers_.size() + 1);
  cfg.validation = config_.validation;
  cfg.fault_seed = config_.fault_seed;
  cfg.capabilities = config_.capabilities;
  auto router = std::make_unique<MeshRouter>(cfg, loop_, make_socket(), registry_);
  const std::size_t index = routers_.size();
  const FaceId local = router->add_local_face(
      [this, index](std::span<const std::uint8_t> packet, std::uint64_t now) {
        if (delivery_) delivery_(index, packet, now);
      });
  routers_.push_back(std::move(router));
  local_faces_.push_back(local);
  return *routers_.back();
}

void MeshNet::connect(std::size_t a, std::size_t b, const netsim::FaultPlan& faults) {
  MeshRouter& ra = router(a);
  MeshRouter& rb = router(b);
  (void)ra.add_wire_face(rb.endpoint(), next_ordinal_++, faults);
  (void)rb.add_wire_face(ra.endpoint(), next_ordinal_++, faults);
}

void MeshNet::build_line(std::size_t n, const netsim::FaultPlan& faults) {
  while (routers_.size() < n) add_router();
  for (std::size_t i = 0; i + 1 < n; ++i) connect(i, i + 1, faults);
}

void MeshNet::build_torus(std::size_t rows, std::size_t cols,
                          const netsim::FaultPlan& faults) {
  const std::size_t n = rows * cols;
  while (routers_.size() < n) add_router();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t here = r * cols + c;
      const std::size_t right = r * cols + (c + 1) % cols;
      const std::size_t down = ((r + 1) % rows) * cols + c;
      if (cols > 1) connect(here, right, faults);
      if (rows > 1) connect(here, down, faults);
    }
  }
}

bool MeshNet::all_discovered() const {
  return std::all_of(routers_.begin(), routers_.end(), [this](const auto& r) {
    return r->lsdb().size() == routers_.size();
  });
}

bool MeshNet::discover(std::uint64_t budget_ns) {
  const std::uint64_t deadline = loop_.now_ns() + budget_ns;

  // Round 1: TTL-1 probes teach direct neighbors our node id.
  for (auto& r : routers_) r->originate_lsa(1);
  loop_.run_until_idle();
  while (!fabric_ && loop_.now_ns() < deadline) {
    // Real UDP: probes may still be in the kernel; park in short slices.
    if (loop_.run(loop_.now_ns() + kMillisecond) == 0) break;
  }

  // Round 2: full LSAs flood mesh-wide (TTL 64 covers any sane diameter).
  for (auto& r : routers_) r->originate_lsa(64);
  loop_.run_until_idle();
  while (!all_discovered() && loop_.now_ns() < deadline) {
    if (fabric_) {
      if (loop_.run_until_idle() == 0) break;  // mock: nothing left to move
    } else {
      (void)loop_.run(loop_.now_ns() + kMillisecond);
    }
  }
  return all_discovered();
}

std::size_t MeshNet::recompute_routes() {
  std::size_t routed = 0;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    routed += publish_routes(*routers_[i], local_faces_[i]);
  }
  return routed;
}

void MeshNet::fail_link(std::size_t a, std::size_t b, std::uint8_t lsa_ttl) {
  MeshRouter& ra = router(a);
  MeshRouter& rb = router(b);
  if (const auto f = ra.face_toward(rb.node_id())) ra.set_face_up(*f, false);
  if (const auto f = rb.face_toward(ra.node_id())) rb.set_face_up(*f, false);
  ra.originate_lsa(lsa_ttl);
  rb.originate_lsa(lsa_ttl);
}

std::size_t MeshNet::pending_holdbacks() const {
  std::size_t n = 0;
  for (const auto& r : routers_) n += r->pending_holdbacks();
  return n;
}

bool MeshNet::quiesce(std::uint64_t budget_ns, int idle_polls) {
  const std::uint64_t deadline = loop_.now_ns() + budget_ns;
  int idle = 0;
  while (loop_.now_ns() < deadline) {
    const std::size_t n = loop_.run_ready();
    if (n == 0 && pending_holdbacks() == 0) {
      if (++idle >= idle_polls) return true;
      // Let in-kernel datagrams (or a pending timer) surface before the
      // next idle check.
      (void)loop_.run(loop_.now_ns() + kMillisecond);
    } else {
      idle = 0;
    }
  }
  return pending_holdbacks() == 0;
}

bool MeshNet::drain(ManualClock& clock, std::uint64_t max_advance_ns) {
  const std::uint64_t horizon = clock.now_ns() + max_advance_ns;
  while (true) {
    loop_.run_until_idle();
    const auto next = loop_.next_timer_delay();
    if (!next) return pending_holdbacks() == 0;
    if (clock.now_ns() + *next > horizon) return false;
    clock.advance(*next);
  }
}

WireLedger MeshNet::aggregate_ledger() const {
  WireLedger total;
  for (const auto& r : routers_) total += r->ledger();
  return total;
}

void MeshNet::write_stats(telemetry::StatsWriter& w) const {
  aggregate_ledger().write_stats(w, {});
  w.gauge("dip_mesh_routers", {}, static_cast<double>(routers_.size()));
  loop_.write_stats(w);
}

}  // namespace dip::mesh
