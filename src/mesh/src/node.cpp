#include "dip/mesh/node.hpp"

#include <algorithm>
#include <cstring>

#include "dip/bytes/cursor.hpp"

namespace dip::mesh {

namespace {

// kHello payload: origin:32 version:16 ttl:8 nnbr:16 neighbor:32 each,
// then the CapabilitySet wire form. Compact, fixed-order, self-framing.
struct HelloImage {
  std::uint32_t origin = 0;
  std::uint16_t version = 0;
  std::uint8_t ttl = 0;
  std::vector<std::uint32_t> neighbors;
  bootstrap::CapabilitySet capabilities;
};

[[nodiscard]] PacketBytes encode_hello(const HelloImage& h) {
  PacketBytes out;
  bytes::append_be<std::uint32_t>(out, h.origin);
  bytes::append_be<std::uint16_t>(out, h.version);
  out.push_back(h.ttl);
  bytes::append_be<std::uint16_t>(out, static_cast<std::uint16_t>(h.neighbors.size()));
  for (const std::uint32_t n : h.neighbors) bytes::append_be<std::uint32_t>(out, n);
  const PacketBytes caps = h.capabilities.serialize();
  out.insert(out.end(), caps.begin(), caps.end());
  return out;
}

[[nodiscard]] std::optional<HelloImage> decode_hello(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 9) return std::nullopt;
  HelloImage h;
  h.origin = bytes::load_be<std::uint32_t>(payload.data());
  h.version = bytes::load_be<std::uint16_t>(payload.data() + 4);
  h.ttl = payload[6];
  const std::size_t nnbr = bytes::load_be<std::uint16_t>(payload.data() + 7);
  if (payload.size() < 9 + nnbr * 4) return std::nullopt;
  h.neighbors.reserve(nnbr);
  for (std::size_t i = 0; i < nnbr; ++i) {
    h.neighbors.push_back(bytes::load_be<std::uint32_t>(payload.data() + 9 + i * 4));
  }
  auto caps = bootstrap::CapabilitySet::parse(payload.subspan(9 + nnbr * 4));
  if (!caps) return std::nullopt;
  h.capabilities = std::move(*caps);
  return h;
}

[[nodiscard]] core::RouterEnv make_env(std::uint32_t node_id,
                                       std::shared_ptr<ctrl::ControlTables> tables) {
  core::RouterEnv env;
  env.node_id = node_id;
  env.control = std::move(tables);
  env.ctrl_reader = env.control->register_reader();
  return env;
}

}  // namespace

WireLedger& WireLedger::operator+=(const WireLedger& o) noexcept {
  transmitted += o.transmitted;
  duplicated += o.duplicated;
  delivered += o.delivered;
  lost += o.lost;
  blackholed += o.blackholed;
  dropped += o.dropped;
  corrupted += o.corrupted;
  decode_errors += o.decode_errors;
  seq_gaps += o.seq_gaps;
  unknown_source += o.unknown_source;
  hello_tx += o.hello_tx;
  hello_rx += o.hello_rx;
  return *this;
}

std::int64_t WireLedger::imbalance() const noexcept {
  return static_cast<std::int64_t>(transmitted + duplicated) -
         static_cast<std::int64_t>(delivered + lost + blackholed + dropped);
}

MeshRouter::MeshRouter(Config config, MeshEventLoop& loop,
                       std::unique_ptr<DatagramSocket> socket,
                       std::shared_ptr<const core::OpRegistry> registry)
    : config_(std::move(config)),
      loop_(loop),
      socket_(std::move(socket)),
      tables_(std::make_shared<ctrl::ControlTables>()),
      runtime_(make_env(config_.node_id, tables_), std::move(registry),
               [this](FaceId face, PacketBytes packet) { send_data(face, std::move(packet)); }),
      journal_(tables_) {
  runtime_.router().set_validation(config_.validation);
  recv_buf_.resize(FrameHeader::kWireSize + FrameHeader::kMaxPayload + 64);
  socket_id_ = loop_.add_socket(*socket_, [this] { on_readable(); });
}

MeshRouter::~MeshRouter() { loop_.remove_socket(socket_id_); }

FaceId MeshRouter::add_wire_face(Endpoint peer, std::uint32_t ordinal,
                                 const netsim::FaultPlan& faults) {
  Face f;
  f.kind = FaceKind::kWire;
  f.peer = peer;
  f.faults = netsim::FaultStream(faults, config_.fault_seed, ordinal);
  const FaceId id = static_cast<FaceId>(faces_.size());
  faces_.push_back(std::move(f));
  ingress_of_[peer] = id;
  return id;
}

FaceId MeshRouter::add_local_face(LocalDelivery delivery) {
  Face f;
  f.kind = FaceKind::kLocal;
  f.delivery = std::move(delivery);
  const FaceId id = static_cast<FaceId>(faces_.size());
  faces_.push_back(std::move(f));
  return id;
}

void MeshRouter::set_face_up(FaceId face, bool up) {
  if (face < faces_.size()) faces_[face].up = up;
}

std::uint32_t MeshRouter::peer_of(FaceId face) const {
  return face < faces_.size() ? faces_[face].peer_node : 0;
}

std::optional<FaceId> MeshRouter::face_toward(std::uint32_t peer_node) const {
  for (std::size_t i = 0; i < faces_.size(); ++i) {
    if (faces_[i].kind == FaceKind::kWire && faces_[i].peer_node == peer_node) {
      return static_cast<FaceId>(i);
    }
  }
  return std::nullopt;
}

void MeshRouter::originate_lsa(std::uint8_t ttl) {
  HelloImage h;
  h.origin = config_.node_id;
  h.version = ++lsa_version_;
  h.ttl = ttl;
  for (const Face& f : faces_) {
    if (f.kind == FaceKind::kWire && f.up && f.peer_node != 0) {
      h.neighbors.push_back(f.peer_node);
    }
  }
  std::sort(h.neighbors.begin(), h.neighbors.end());
  h.capabilities = config_.capabilities;

  // Our own LSDB entry first (SPF and AS-graph queries see self).
  lsdb_[h.origin] = Lsa{h.version, h.neighbors, h.capabilities};

  const PacketBytes payload = encode_hello(h);
  for (std::size_t i = 0; i < faces_.size(); ++i) {
    if (faces_[i].kind == FaceKind::kWire && faces_[i].up) {
      send_hello_on(static_cast<FaceId>(i), payload);
    }
  }
}

void MeshRouter::send_hello_on(FaceId face, const PacketBytes& payload) {
  // Gossip is control traffic: exempt from impairment and outside the data
  // ledger (netsim's faults only apply to forwarded packets, same here).
  // Hellos do not consume data seq numbers (receivers only sequence-check
  // kData); the version inside the payload is their ordering.
  Face& f = faces_[face];
  const PacketBytes frame =
      encode_frame(FrameType::kHello, config_.node_id, 0, payload);
  (void)socket_->send_to(f.peer, frame);
  ++ledger_.hello_tx;
}

void MeshRouter::on_readable() {
  // Drain to EAGAIN: with raised rcvbuf this bounds kernel-side shedding,
  // and bucketing per ingress face lets process_batch amortize the burst.
  while (true) {
    const RecvOutcome out = socket_->recv_from(recv_buf_);
    if (out.status != IoStatus::kOk) break;
    const std::size_t have = std::min(out.size, recv_buf_.size());
    handle_datagram(std::span(recv_buf_.data(), have), out.from);
  }
  flush_ingress_bursts(loop_.now_ns());
}

void MeshRouter::handle_datagram(std::span<const std::uint8_t> datagram,
                                 Endpoint from) {
  const auto it = ingress_of_.find(from);
  const bool known = it != ingress_of_.end();
  auto decoded = decode_frame(datagram);
  if (!decoded) {
    if (known) {
      // Arrived, but unusable — still `delivered` for conservation (the
      // sender counted it out); the decode error is its own series.
      ++ledger_.delivered;
      ++ledger_.decode_errors;
    } else {
      ++ledger_.unknown_source;
    }
    return;
  }
  const Frame& frame = *decoded;
  if (!known) {
    ++ledger_.unknown_source;
    return;
  }
  const FaceId face_id = it->second;
  Face& face = faces_[face_id];
  if (face.peer_node == 0) face.peer_node = frame.header.src_node;

  switch (frame.header.type) {
    case FrameType::kData: {
      ++ledger_.delivered;
      if (face.rx_seen && frame.header.seq != face.rx_next_seq) {
        ++ledger_.seq_gaps;
      }
      face.rx_seen = true;
      face.rx_next_seq = frame.header.seq + 1;
      Bucket* bucket = nullptr;
      for (Bucket& b : buckets_) {
        if (b.face == face_id) bucket = &b;
      }
      if (bucket == nullptr) {
        buckets_.push_back({face_id, {}});
        bucket = &buckets_.back();
      }
      bucket->packets.emplace_back(frame.payload.begin(), frame.payload.end());
      return;
    }
    case FrameType::kHello: {
      ++ledger_.hello_rx;
      handle_hello(frame, face_id);
      return;
    }
    case FrameType::kVerdict:
    case FrameType::kBye:
      return;  // conformance-harness frames; a mesh router ignores them
  }
}

void MeshRouter::handle_hello(const Frame& frame, FaceId ingress) {
  const auto hello = decode_hello(frame.payload);
  if (!hello) return;
  if (hello->origin == config_.node_id) return;  // our own flood, looped back

  const auto it = lsdb_.find(hello->origin);
  const bool fresh = it == lsdb_.end() || hello->version > it->second.version;
  if (!fresh) return;
  lsdb_[hello->origin] = Lsa{hello->version, hello->neighbors, hello->capabilities};

  if (hello->ttl <= 1) return;
  // Re-flood with decremented TTL on every other live wire face.
  HelloImage fwd = *hello;
  fwd.ttl = static_cast<std::uint8_t>(hello->ttl - 1);
  const PacketBytes payload = encode_hello(fwd);
  for (std::size_t i = 0; i < faces_.size(); ++i) {
    if (i == ingress) continue;
    if (faces_[i].kind == FaceKind::kWire && faces_[i].up) {
      send_hello_on(static_cast<FaceId>(i), payload);
    }
  }
}

void MeshRouter::flush_ingress_bursts(std::uint64_t now) {
  for (Bucket& bucket : buckets_) {
    if (bucket.packets.empty()) continue;
    runtime_.receive_burst(bucket.face, bucket.packets, now);
    bucket.packets.clear();
  }
}

void MeshRouter::inject(std::span<const std::uint8_t> packet, FaceId ingress) {
  runtime_.receive(ingress, PacketBytes(packet.begin(), packet.end()), loop_.now_ns());
}

void MeshRouter::send_data(FaceId face_id, PacketBytes bytes) {
  if (face_id >= faces_.size()) return;
  Face& face = faces_[face_id];
  if (face.kind == FaceKind::kLocal) {
    ++local_delivered_;
    if (face.delivery) face.delivery(bytes, loop_.now_ns());
    return;
  }

  ++ledger_.transmitted;
  if (!face.up) {
    ++ledger_.blackholed;  // failed link: dark until re-enabled
    return;
  }

  const netsim::FaultDecision d = face.faults.next(loop_.now_ns(), bytes);
  if (d.blackout) {
    ++ledger_.blackholed;
    return;
  }
  if (d.drop) {
    ++ledger_.lost;
    return;
  }
  if (d.corrupt_bytes != 0) ++ledger_.corrupted;

  PacketBytes frame =
      encode_frame(FrameType::kData, config_.node_id, face.tx_seq++, bytes);
  if (d.extra_delay != 0) {
    // Reorder hold-back: the copy leaves later, off a loop timer. Later
    // sends on this face overtake it — exactly netsim's reorder fault.
    ++holdbacks_;
    loop_.schedule_in(d.extra_delay,
                      [this, face_id, f = std::move(frame), dup = d.duplicate] {
                        --holdbacks_;
                        emit_frame(face_id, f, false);
                        if (dup) emit_frame(face_id, f, true);
                      });
    return;
  }
  emit_frame(face_id, frame, false);
  if (d.duplicate) emit_frame(face_id, std::move(frame), true);
}

void MeshRouter::emit_frame(FaceId face_id, PacketBytes frame_bytes, bool duplicate) {
  Face& face = faces_[face_id];
  if (duplicate) ++ledger_.duplicated;
  const IoStatus st = socket_->send_to(face.peer, frame_bytes);
  if (st != IoStatus::kOk) {
    ++ledger_.dropped;  // transmit queue full (EAGAIN/ENOBUFS): tail drop
  }
}

void WireLedger::write_stats(telemetry::StatsWriter& w,
                             std::span<const telemetry::Label> labels) const {
  w.counter("dip_mesh_transmitted_total", labels, transmitted);
  w.counter("dip_mesh_duplicated_total", labels, duplicated);
  w.counter("dip_mesh_delivered_total", labels, delivered);
  w.counter("dip_mesh_lost_total", labels, lost);
  w.counter("dip_mesh_blackholed_total", labels, blackholed);
  w.counter("dip_mesh_dropped_total", labels, dropped);
  w.counter("dip_mesh_corrupted_total", labels, corrupted);
  w.counter("dip_mesh_decode_errors_total", labels, decode_errors);
  w.counter("dip_mesh_seq_gaps_total", labels, seq_gaps);
  w.counter("dip_mesh_hello_tx_total", labels, hello_tx);
  w.counter("dip_mesh_hello_rx_total", labels, hello_rx);
}

void MeshRouter::write_stats(telemetry::StatsWriter& w) const {
  const std::string node_id = std::to_string(config_.node_id);
  const telemetry::Label labels[] = {{"node", node_id}};
  ledger_.write_stats(w, labels);
  w.counter("dip_mesh_local_delivered_total", labels, local_delivered_);
  runtime_.drops().write_stats(w, "dip_mesh_verdict_drops_total", node_id);
}

}  // namespace dip::mesh
