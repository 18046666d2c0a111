#include "workload_data.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "dip/core/header.hpp"
#include "dip/core/ip.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/epic/epic.hpp"
#include "dip/mesh/control.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/xia/xia.hpp"

namespace perfbench {

using namespace dip;

namespace {

void put_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Serialized header followed by `payload`, or padded to `frame` bytes.
std::vector<std::uint8_t> frame_of(const bytes::Result<core::DipHeader>& h,
                                   std::span<const std::uint8_t> payload,
                                   std::size_t frame = 0) {
  if (!h) throw std::runtime_error("perfbench: header composition failed");
  std::vector<std::uint8_t> out = h->serialize();
  out.insert(out.end(), payload.begin(), payload.end());
  if (out.size() < frame) out.resize(frame, 0xA5);
  return out;
}

// The oracle: a plain one-bit-per-level binary trie over the static routes,
// sharing no code with the router's FIB engines. Children and next hops live
// in flat vectors so the whole structure is freed in one piece.
class OracleTrie {
 public:
  OracleTrie() { nodes_.push_back({0, 0}); nh_.push_back(fib::kNoRoute); }

  void insert(std::uint32_t addr, std::uint8_t len, fib::NextHop nh) {
    std::uint32_t at = 0;
    for (std::uint8_t i = 0; i < len; ++i) {
      const unsigned bit = (addr >> (31 - i)) & 1u;
      if (nodes_[at][bit] == 0) {
        nodes_[at][bit] = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({0, 0});
        nh_.push_back(fib::kNoRoute);
      }
      at = nodes_[at][bit];
    }
    nh_[at] = nh;
  }

  [[nodiscard]] fib::NextHop lookup(std::uint32_t addr) const {
    std::uint32_t at = 0;
    fib::NextHop best = nh_[0];
    for (int i = 0; i < 32; ++i) {
      const std::uint32_t next = nodes_[at][(addr >> (31 - i)) & 1u];
      if (next == 0) break;
      at = next;
      if (nh_[at] != fib::kNoRoute) best = nh_[at];
    }
    return best;
  }

 private:
  std::vector<std::array<std::uint32_t, 2>> nodes_;
  std::vector<fib::NextHop> nh_;
};

/// Ingress face of slot `i` in the pool workloads: one port per round.
FaceId port_of(std::size_t i) {
  return static_cast<FaceId>(kFirstPort + (i / kRoundSlots) % kPorts);
}

constexpr std::size_t kSizes[] = {128, 768, 1500};

/// IMIX 128/768/1500 B at 7:4:1.
std::size_t imix_index(Rng& rng) {
  const std::uint64_t r = rng.below(12);
  return r < 7 ? 0 : (r < 11 ? 1 : 2);
}

}  // namespace

std::uint32_t field_offset(std::span<const std::uint8_t> packet, core::OpKey key) {
  std::vector<std::uint8_t> copy(packet.begin(), packet.end());
  core::HeaderView view;
  if (!core::HeaderView::bind_into(copy, view)) return 0;
  const std::size_t locs = core::BasicHeader::kWireSize +
                           view.fns().size() * core::FnTriple::kWireSize;
  for (const core::FnTriple& fn : view.fns()) {
    if (!fn.host_tagged() && fn.key() == key) {
      return static_cast<std::uint32_t>(locs + fn.field_loc / 8);
    }
  }
  return 0;
}

void Schedule::materialize(const Slot& s, std::vector<std::uint8_t>& out) const {
  const Template& t = templates[s.tmpl];
  out.assign(t.bytes.begin(), t.bytes.end());
  if (t.patch_off != 0) put_be32(out.data() + t.patch_off, s.word);
}

std::uint64_t Schedule::digest(std::size_t packets) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < packets; ++i) {
    const Slot& s = slots[i % slots.size()];
    materialize(s, buf);
    for (const std::uint8_t b : buf) mix(b);
    mix(static_cast<std::uint8_t>(s.ingress));
    mix(static_cast<std::uint8_t>(s.expect));
  }
  return h;
}

void Schedule::assign_shards() {
  std::vector<std::uint8_t> buf;
  for (Slot& s : slots) {
    materialize(s, buf);
    s.shard = static_cast<std::uint8_t>(core::RouterPool::shard_of(buf, kWorkers));
  }
}

// ---- ip4_zipf_churn ----------------------------------------------------------------

Ip4Data make_ip4_data(std::uint64_t seed) {
  Ip4Data d;
  // One fixed DFZ-shaped table for every seed (a routing-table snapshot is
  // part of the workload's definition); the seed draws the traffic and the
  // churn. Lookup cost then varies with the program, not with the seed.
  d.routes = fib::synth::ipv4_table(kIp4Routes, kIp4TableSeed);
  Rng rng(seed * 0x9E37 + 11);

  // Traffic addresses: inside a random static route, random host bits.
  std::vector<std::uint32_t> addrs(kIp4Addresses);
  for (auto& a : addrs) {
    const auto& p = d.routes[rng.below(d.routes.size())].prefix;
    const std::uint32_t base = fib::ipv4_to_u32(p.addr);
    const std::uint32_t host =
        p.length == 32 ? 0u : static_cast<std::uint32_t>(rng.next()) >> p.length;
    a = base | host;
  }

  // Expected egress per address, from the oracle (freed on return).
  std::vector<FaceId> expect(kIp4Addresses);
  {
    OracleTrie oracle;
    for (const auto& r : d.routes) {
      oracle.insert(fib::ipv4_to_u32(r.prefix.addr), r.prefix.length, r.nh);
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const fib::NextHop nh = oracle.lookup(addrs[i]);
      if (nh == fib::kNoRoute) throw std::runtime_error("perfbench: uncovered address");
      expect[i] = nh;
    }
  }

  // Flap /24s: never holding a traffic address, never a static prefix.
  {
    std::vector<std::uint32_t> traffic24;
    traffic24.reserve(addrs.size());
    for (const std::uint32_t a : addrs) traffic24.push_back(a >> 8);
    std::sort(traffic24.begin(), traffic24.end());
    std::vector<std::uint32_t> static24;
    for (const auto& r : d.routes) {
      if (r.prefix.length == 24) static24.push_back(fib::ipv4_to_u32(r.prefix.addr) >> 8);
    }
    std::sort(static24.begin(), static24.end());
    std::set<std::uint32_t> chosen;
    while (chosen.size() < kIp4FlapPrefixes) {
      const auto& p = d.routes[rng.below(d.routes.size())].prefix;
      const std::uint32_t host =
          p.length == 32 ? 0u : static_cast<std::uint32_t>(rng.next()) >> p.length;
      const std::uint32_t key = (fib::ipv4_to_u32(p.addr) | host) >> 8;
      if (std::binary_search(traffic24.begin(), traffic24.end(), key)) continue;
      if (std::binary_search(static24.begin(), static24.end(), key)) continue;
      chosen.insert(key);
    }
    for (const std::uint32_t key : chosen) {
      d.flaps.push_back({fib::ipv4_from_u32(key << 8), 24});
    }
  }

  Template t;
  t.bytes = frame_of(core::make_dip32_header(fib::ipv4_from_u32(0),
                                             fib::ipv4_from_u32(0xC6336401u)),
                     {}, kIp4FrameBytes);
  t.patch_off = field_offset(t.bytes, core::OpKey::kMatch32);
  t.kind = Kind::kDip32;
  d.schedule.templates.push_back(std::move(t));

  netsim::ZipfSampler zipf(kIp4Addresses, 0.99, rng.next());
  d.schedule.slots.resize(kScheduleSlots);
  for (std::size_t i = 0; i < kScheduleSlots; ++i) {
    const std::size_t idx = zipf.sample();
    Slot& s = d.schedule.slots[i];
    s.word = addrs[idx];
    s.expect = expect[idx];
    s.ingress = static_cast<std::uint16_t>(port_of(i));
  }
  d.schedule.assign_shards();
  return d;
}

// ---- secure_zoo ------------------------------------------------------------------------

ZooData make_zoo_data(std::uint64_t seed) {
  ZooData z;
  Rng rng(seed * 0x51ED + 5);
  const crypto::Block node_secret = netsim::make_basic_env(kNodeId).node_secret;
  const std::vector<crypto::Block> path{node_secret};
  const auto block = [&rng] {
    crypto::Block b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return b;
  };
  for (std::size_t i = 0; i < kZooSessions; ++i) {
    const crypto::Block sid = block();
    const crypto::Block dst_secret = block();
    z.sessions.push_back(opt::negotiate_session(sid, path, dst_secret));
  }

  // Names: distinct 32-bit codes; four /2 routes split them over faces 10..13.
  std::set<std::uint32_t> seen;
  while (z.names.size() < kZooNames) {
    const auto code = static_cast<std::uint32_t>(rng.next());
    if (seen.insert(code).second) z.names.push_back(code);
  }
  for (std::uint32_t q = 0; q < 4; ++q) {
    z.name_routes.push_back({{fib::ipv4_from_u32(q << 30), 2}, 10 + q});
  }
  const auto name_face = [](std::uint32_t code) { return FaceId{10 + (code >> 30)}; };

  // DIP-128: four /48s (faces 20..23), 256 destinations under them.
  std::vector<std::pair<fib::Ipv6Addr, FaceId>> dests;
  for (std::uint8_t k = 0; k < 4; ++k) {
    fib::Ipv6Addr a = fib::parse_ipv6("2001:db8::").value();
    a.bytes[5] = k;
    z.routes128.push_back({{a, 48}, FaceId{20u + k}});
  }
  for (std::size_t i = 0; i < kZooDests128; ++i) {
    const auto& [prefix, face] = z.routes128[i % z.routes128.size()];
    fib::Ipv6Addr a = prefix.addr;
    for (std::size_t b = 6; b < 16; ++b) a.bytes[b] = static_cast<std::uint8_t>(rng.next());
    dests.push_back({a, face});
  }

  // XIA: one service DAG per SID, routed to faces 30..33.
  std::vector<xia::Dag> dags;
  for (std::size_t j = 0; j < kZooServices; ++j) {
    const fib::Xid sid = xia::xid_from_label("zoo-sid-" + std::to_string(rng.next()));
    z.sid_routes.push_back({sid, static_cast<FaceId>(30 + j % 4)});
    dags.push_back(xia::make_service_dag(xia::xid_from_label("zoo-ad"),
                                         xia::xid_from_label("zoo-hid"),
                                         fib::XidType::kSid, sid));
  }

  // Templates. Index helpers keep (kind, key, size) -> template id.
  auto& T = z.schedule.templates;
  const fib::Ipv6Addr src6 = fib::parse_ipv6("2001:db8:ffff::1").value();
  const auto payload_for = [&rng](std::size_t frame, std::size_t header) {
    return random_bytes(rng, frame > header ? frame - header : 16);
  };
  std::vector<std::uint32_t> opt_t, epic_t, nopt_t, ndn_t, d128_t, xia_t;
  for (std::size_t s = 0; s < kZooSessions; ++s) {
    for (const std::size_t size : kSizes) {
      {
        const auto pl = payload_for(size, 98);
        Template t;
        t.bytes = frame_of(opt::make_opt_header(z.sessions[s], pl, 1000), pl);
        t.kind = Kind::kOpt;
        t.session = static_cast<std::uint16_t>(s);
        opt_t.push_back(static_cast<std::uint32_t>(T.size()));
        T.push_back(std::move(t));
      }
      {
        const auto pl = payload_for(size, 56);
        Template t;
        t.bytes = frame_of(epic::make_epic_header(z.sessions[s], pl, 1000), pl);
        t.kind = Kind::kEpic;
        t.session = static_cast<std::uint16_t>(s);
        epic_t.push_back(static_cast<std::uint32_t>(T.size()));
        T.push_back(std::move(t));
      }
      for (const bool interest : {true, false}) {
        const auto pl = payload_for(size, 108);
        Template t;
        t.bytes = frame_of(
            opt::make_ndn_opt_header(0, interest, z.sessions[s], pl, 1000), pl);
        t.patch_off = field_offset(t.bytes, interest ? core::OpKey::kFib : core::OpKey::kPit);
        t.kind = interest ? Kind::kNdnOptInterest : Kind::kNdnOptData;
        t.session = static_cast<std::uint16_t>(s);
        nopt_t.push_back(static_cast<std::uint32_t>(T.size()));
        T.push_back(std::move(t));
      }
    }
  }
  for (const std::size_t size : kSizes) {
    for (const bool interest : {true, false}) {
      Template t;
      t.bytes = frame_of(interest ? ndn::make_interest_header32(0) : ndn::make_data_header32(0),
                         {}, size);
      t.patch_off = field_offset(t.bytes, interest ? core::OpKey::kFib : core::OpKey::kPit);
      t.kind = interest ? Kind::kNdnInterest : Kind::kNdnData;
      ndn_t.push_back(static_cast<std::uint32_t>(T.size()));
      T.push_back(std::move(t));
    }
  }
  for (const auto& [dst, face] : dests) {
    for (const std::size_t size : kSizes) {
      Template t;
      t.bytes = frame_of(core::make_dip128_header(dst, src6), {}, size);
      t.kind = Kind::kDip128;
      d128_t.push_back(static_cast<std::uint32_t>(T.size()));
      T.push_back(std::move(t));
    }
  }
  for (const auto& dag : dags) {
    for (const std::size_t size : kSizes) {
      Template t;
      t.bytes = frame_of(xia::make_xia_header(dag), {}, size);
      t.kind = Kind::kXia;
      xia_t.push_back(static_cast<std::uint32_t>(T.size()));
      T.push_back(std::move(t));
    }
  }

  // The mix, drawn per event: OPT 35, EPIC 15, DIP-128 10, XIA 10 single
  // packets; NDN+OPT and NDN as interest+data pairs (20 and 10 packets).
  netsim::ZipfSampler zipf(kZooNames, 0.99, rng.next());
  constexpr std::uint32_t kWeights[] = {35, 15, 10, 10, 10, 5};  // per event
  constexpr std::uint32_t kTotal = 85;
  auto& slots = z.schedule.slots;
  slots.reserve(kScheduleSlots);
  while (slots.size() < kScheduleSlots) {
    std::uint32_t roll = static_cast<std::uint32_t>(rng.below(kTotal));
    std::size_t ev = 0;
    while (roll >= kWeights[ev]) roll -= kWeights[ev++];
    const bool pair = ev >= 4;
    if (pair && slots.size() + 2 > kScheduleSlots) continue;
    const std::size_t i = slots.size();
    Slot s;
    s.ingress = static_cast<std::uint16_t>(port_of(i));
    switch (ev) {
      case 0:
      case 1: {
        const std::size_t sess = rng.below(kZooSessions);
        const auto& ids = ev == 0 ? opt_t : epic_t;
        s.tmpl = ids[sess * 3 + imix_index(rng)];
        s.expect = kUplink;
        if (rng.below(32) == 0) s.flags = kVerifySample;
        slots.push_back(s);
        break;
      }
      case 2: {
        const std::size_t d = rng.below(kZooDests128);
        s.tmpl = d128_t[d * 3 + imix_index(rng)];
        s.expect = dests[d].second;
        slots.push_back(s);
        break;
      }
      case 3: {
        const std::size_t j = rng.below(kZooServices);
        s.tmpl = xia_t[j * 3 + imix_index(rng)];
        s.expect = z.sid_routes[j].second;
        slots.push_back(s);
        break;
      }
      default: {
        // The data packet follows its interest immediately, so the PIT
        // entry it consumes is always on the same worker and still pending.
        const std::uint32_t code = z.names[zipf.sample()];
        const std::size_t sess = code % kZooSessions;
        Slot interest = s;
        Slot data = s;
        data.ingress = static_cast<std::uint16_t>(port_of(i + 1));
        if (ev == 4) {
          interest.tmpl = nopt_t[(sess * 3 + imix_index(rng)) * 2];
          data.tmpl = nopt_t[(sess * 3 + imix_index(rng)) * 2 + 1];
          if (rng.below(16) == 0) data.flags = kVerifySample;
        } else {
          interest.tmpl = ndn_t[imix_index(rng) * 2];
          data.tmpl = ndn_t[imix_index(rng) * 2 + 1];
        }
        interest.word = data.word = code;
        interest.expect = name_face(code);
        data.expect = interest.ingress;
        slots.push_back(interest);
        slots.push_back(data);
        break;
      }
    }
  }
  z.schedule.assign_shards();
  return z;
}

void install_zoo_routes(const ZooData& zoo, core::RouterEnv& env) {
  for (const auto& [p, face] : zoo.name_routes) env.fib32->insert(p, face);
  for (const auto& [p, face] : zoo.routes128) env.fib128->insert(p, face);
  for (const auto& [xid, face] : zoo.sid_routes) {
    env.xid_table->insert(fib::XidType::kSid, xid, face);
  }
}

// ---- mesh leg (traced ip4_zipf_churn runs) -------------------------------------------

Schedule make_mesh_schedule(std::uint64_t seed) {
  constexpr std::size_t kNodes = kMeshRows * kMeshCols;
  Schedule sched;
  for (std::size_t src = 0; src < kNodes; ++src) {
    for (std::size_t dst = 0; dst < kNodes; ++dst) {
      Template t;
      t.bytes = frame_of(
          core::make_dip32_header(mesh::addr_of(static_cast<std::uint32_t>(dst + 1)),
                                  mesh::addr_of(static_cast<std::uint32_t>(src + 1))),
          {}, kMeshFrameBytes);
      t.kind = Kind::kDip32;
      sched.templates.push_back(std::move(t));
    }
  }

  // Flow table with churn (the MeshTrafficGen model): sources uniform,
  // destinations Zipf(0.99) over the routers; every 1024 packets the four
  // oldest flows are replaced. Packets go round-robin over the table.
  Rng rng(seed * 0x3E5A + 3);
  netsim::ZipfSampler zipf(kNodes, 0.99, rng.next());
  const auto make_flow = [&] {
    const std::size_t src = rng.below(kNodes);
    std::size_t dst = zipf.sample();
    if (dst == src) dst = (dst + 1) % kNodes;
    return std::pair{src, dst};
  };
  std::vector<std::pair<std::size_t, std::size_t>> flows;
  for (std::size_t i = 0; i < kMeshFlows; ++i) flows.push_back(make_flow());
  std::size_t oldest = 0;
  sched.slots.resize(kScheduleSlots);
  for (std::size_t i = 0; i < kScheduleSlots; ++i) {
    if (i != 0 && i % 1024 == 0) {
      for (int k = 0; k < 4; ++k) {
        flows[oldest] = make_flow();
        oldest = (oldest + 1) % kMeshFlows;
      }
    }
    const auto [src, dst] = flows[i % kMeshFlows];
    Slot& s = sched.slots[i];
    s.tmpl = static_cast<std::uint32_t>(src * kNodes + dst);
    s.ingress = static_cast<std::uint16_t>(src);
    s.expect = static_cast<std::uint32_t>(dst);
  }
  sched.assign_shards();
  return sched;
}

}  // namespace perfbench
