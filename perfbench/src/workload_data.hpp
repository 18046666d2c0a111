// Seeded packet streams for the two workloads and the mesh leg.
//
// Every workload is a Schedule: a small set of template packets plus a
// fixed-length cyclic list of slots, each naming a template, an optional
// 32-bit field to patch into it (destination address or name code), the
// ingress face, the egress the oracle expects, and the RouterPool shard the
// packet hashes to. The whole stream is a pure function of the seed; the
// router only ever sees the materialized bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dip/core/fn.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/synth.hpp"
#include "dip/fib/xid_table.hpp"
#include "dip/opt/session.hpp"

namespace dip::core {
struct RouterEnv;
}

namespace perfbench {

using dip::core::FaceId;

enum class Kind : std::uint8_t {
  kDip32,
  kDip128,
  kOpt,
  kEpic,
  kNdnOptInterest,
  kNdnOptData,
  kNdnInterest,
  kNdnData,
  kXia,
};

struct Template {
  std::vector<std::uint8_t> bytes;
  /// Byte offset of the 32-bit field Slot::word overwrites; 0 = no patch.
  std::uint32_t patch_off = 0;
  Kind kind = Kind::kDip32;
  /// OPT/EPIC session index (destination-side verification).
  std::uint16_t session = 0;
};

struct Slot {
  std::uint32_t tmpl = 0;
  std::uint32_t word = 0;
  std::uint32_t expect = 0;  ///< the single egress face the oracle expects
  std::uint16_t ingress = 0;
  std::uint8_t shard = 0;    ///< RouterPool::shard_of(packet, kWorkers)
  std::uint8_t flags = 0;
};

inline constexpr std::uint8_t kVerifySample = 1;

struct Schedule {
  std::vector<Template> templates;
  std::vector<Slot> slots;  ///< cycled; length is a multiple of 256

  /// Write slot `s`'s packet into `out` (reuses its capacity).
  void materialize(const Slot& s, std::vector<std::uint8_t>& out) const;
  /// FNV-1a over the first `packets` materialized packets (cycling) and
  /// their ingress faces — the generator self-test's identity check.
  [[nodiscard]] std::uint64_t digest(std::size_t packets) const;
  /// Fill every slot's shard from its materialized bytes.
  void assign_shards();
};

/// Slots per schedule (the stream cycles after this many packets).
inline constexpr std::size_t kScheduleSlots = 1u << 18;
/// Consecutive slots sharing one ingress face (an rx poll round).
inline constexpr std::size_t kRoundSlots = 256;
/// Ingress faces the pool workloads rotate over, one per round.
inline constexpr FaceId kFirstPort = 2;
inline constexpr std::size_t kPorts = 4;
/// The node every pool worker environment is (same node_secret).
inline constexpr std::uint32_t kNodeId = 7;
/// RouterPool workers: RouterPoolConfig::workers and the shard count every
/// schedule is hashed over.
inline constexpr std::size_t kWorkers = 2;

// ---- ip4_zipf_churn ----------------------------------------------------------

inline constexpr std::size_t kIp4Routes = 200'000;
inline constexpr std::uint64_t kIp4TableSeed = 1;
inline constexpr std::size_t kIp4Addresses = 1u << 18;
inline constexpr std::size_t kIp4FlapPrefixes = 1024;
inline constexpr std::size_t kIp4FrameBytes = 128;

struct Ip4Data {
  std::vector<dip::fib::synth::SynthRoute<32>> routes;  ///< the static FIB
  /// /24s the control thread flaps: disjoint from every traffic address
  /// and from every static prefix.
  std::vector<dip::fib::Prefix<32>> flaps;
  Schedule schedule;
};

/// Build the static FIB (seed-independent), the seeded Zipf(0.99) address
/// stream and the oracle's expected egress for every slot (a binary trie
/// over the static routes).
[[nodiscard]] Ip4Data make_ip4_data(std::uint64_t seed);

// ---- secure_zoo ----------------------------------------------------------------

inline constexpr FaceId kUplink = 1;  ///< default egress (OPT, EPIC)
inline constexpr std::size_t kZooSessions = 64;
inline constexpr std::size_t kZooNames = 4096;
inline constexpr std::size_t kZooDests128 = 256;
inline constexpr std::size_t kZooServices = 64;

struct ZooData {
  std::vector<dip::opt::Session> sessions;
  std::vector<std::uint32_t> names;  ///< name codes, Zipf rank order
  std::vector<std::pair<dip::fib::Prefix<32>, FaceId>> name_routes;
  std::vector<std::pair<dip::fib::Prefix<128>, FaceId>> routes128;
  std::vector<std::pair<dip::fib::Xid, FaceId>> sid_routes;
  Schedule schedule;
};

/// Sessions are negotiated with the node secret of
/// netsim::make_basic_env(kNodeId), so every worker env verifies them.
[[nodiscard]] ZooData make_zoo_data(std::uint64_t seed);
/// Install the zoo's name, IPv6 and XID routes into `env`'s static tables.
void install_zoo_routes(const ZooData& zoo, dip::core::RouterEnv& env);

// ---- mesh leg (traced ip4_zipf_churn runs) -------------------------------------

inline constexpr std::size_t kMeshRows = 4;
inline constexpr std::size_t kMeshCols = 4;
inline constexpr std::size_t kMeshFrameBytes = 128;
inline constexpr std::size_t kMeshFlows = 64;

/// Slot ingress = source router index, expect = destination router index.
[[nodiscard]] Schedule make_mesh_schedule(std::uint64_t seed);

/// Byte offset of the sliced field of the first router-side FN with `key`
/// in a serialized DIP packet (0 when absent).
[[nodiscard]] std::uint32_t field_offset(std::span<const std::uint8_t> packet,
                                         dip::core::OpKey key);

}  // namespace perfbench
