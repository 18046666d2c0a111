// Disruption tolerance as Field Operations (docs/DTN.md).
//
// §2.1's thesis — new network-layer behaviors compose from shared L3 core
// functions — applied to DTN-style custody transfer: a bundle asks the
// network to *hold* it across outages instead of best-effort dropping it.
// Two FNs realize it:
//
//   F_custody (key 17, 32-byte field, byte-aligned):
//     [0]      flags   : bit0 = custody requested, bit1 = custody ACK
//     [1]      chain   : number of custody accepts so far
//     [2,4)    prev    : low 16 bits of the *previous* custodian's node id —
//                        written on accept, so any observer of the rewritten
//                        tag knows whom to ACK (mesh taps see post-rewrite
//                        bytes only)
//     [4,8)    bundle  : bundle id
//     [8,12)   custodian : node id of the current custodian
//     [12,16)  digest  : running FNV-mix over the custodian chain
//     [16,32)  MAC     : 2EM-CMAC over bytes [0,16) under the overlay key —
//                        a forged custody chain (fake ACKs, hijacked
//                        custodianship) fails verification at every
//                        custody-capable hop
//
//   F_frag (key 18, 8-byte field): fragment index/total + bundle id, carried
//     for the receiving host's store-and-forward reassembly; routers only
//     bounds-check it (index < total, total > 0).
//
// A custody-capable router (RouterEnv::accept_custody) that sees a valid
// requested tag *accepts*: it stamps itself as custodian, extends the chain
// digest and re-MACs; the node's CustodyAgent (dtn/agent.hpp) then commits
// the forwarded bytes and ACKs the previous custodian. Non-DTN routers skip
// the FN untouched (requires_full_path = false): custody is an overlay over
// whichever nodes opt in.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dip/core/builder.hpp"
#include "dip/core/op_module.hpp"
#include "dip/core/registry.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/fib/address.hpp"

namespace dip::dtn {

inline constexpr std::size_t kCustodyTagBytes = 32;
inline constexpr std::size_t kFragBytes = 8;

inline constexpr std::uint8_t kCustodyRequest = 0x01;  ///< take custody of me
inline constexpr std::uint8_t kCustodyAck = 0x02;      ///< custody-transfer ACK

struct CustodyTag {
  std::uint8_t flags = 0;
  std::uint8_t chain_len = 0;
  std::uint16_t prev_custodian = 0;  ///< low 16 bits; stamped on accept
  std::uint32_t bundle_id = 0;
  std::uint32_t custodian = 0;      ///< node id; the sender host seeds it
  std::uint32_t chain_digest = 0;
  crypto::Block mac{};

  [[nodiscard]] bool requested() const noexcept { return (flags & kCustodyRequest) != 0; }
  [[nodiscard]] bool is_ack() const noexcept { return (flags & kCustodyAck) != 0; }

  [[nodiscard]] static CustodyTag read(std::span<const std::uint8_t> field) noexcept;
  void write(std::span<std::uint8_t> field) const noexcept;

  /// MAC over the flags/chain/bundle/custodian/digest bytes under `key`.
  [[nodiscard]] static crypto::Block compute_mac(std::span<const std::uint8_t> field,
                                                 const crypto::Block& key,
                                                 crypto::MacKind kind);
};

/// One FNV-1a round folding `node` into the custody-chain digest.
[[nodiscard]] constexpr std::uint32_t chain_mix(std::uint32_t digest,
                                                std::uint32_t node) noexcept {
  return (digest ^ node) * 0x01000193u;
}

struct FragInfo {
  std::uint16_t index = 0;
  std::uint16_t total = 1;
  std::uint32_t bundle_id = 0;

  [[nodiscard]] static FragInfo read(std::span<const std::uint8_t> field) noexcept;
  void write(std::span<std::uint8_t> field) const noexcept;
};

/// Store key for one fragment: bundle id in the high half, index low.
[[nodiscard]] constexpr std::uint64_t frag_key(std::uint32_t bundle,
                                               std::uint16_t index) noexcept {
  return (static_cast<std::uint64_t>(bundle) << 32) | index;
}

/// F_custody (key 17): verify the chain MAC and, on a custody-accepting
/// node, accept a requested tag in place. Deterministic (no RNG, no module
/// state) so all engines — including the sharded pool — rewrite identically.
class CustodyOp final : public core::OpModule {
 public:
  [[nodiscard]] core::OpKey key() const noexcept override {
    return core::OpKey::kCustody;
  }
  [[nodiscard]] std::uint32_t cost() const noexcept override { return 5; }
  [[nodiscard]] bytes::Status execute(core::OpContext& ctx) override;
};

/// F_frag (key 18): bounds-check the fragment metadata; reassembly is host
/// work.
class BundleFragOp final : public core::OpModule {
 public:
  [[nodiscard]] core::OpKey key() const noexcept override {
    return core::OpKey::kBundleFrag;
  }
  [[nodiscard]] std::uint32_t cost() const noexcept override { return 1; }
  [[nodiscard]] bytes::Status execute(core::OpContext& ctx) override;
};

/// Register CustodyOp + BundleFragOp (the DTN half of §4.1's pre-written
/// module table).
void add_custody_modules(core::OpRegistry& registry);

/// Append a MACed F_custody field to a header under construction.
void add_custody_fn(core::HeaderBuilder& builder, const CustodyTag& tag,
                    const crypto::Block& key,
                    crypto::MacKind kind = crypto::MacKind::kEm2);

/// Append an F_frag field.
void add_frag_fn(core::HeaderBuilder& builder, const FragInfo& frag);

/// The dip32+custody composition (docs/DTN.md, PROTOCOLS.md): DIP-32
/// forwarding plus custody + fragment FNs. The match FN leads so the
/// RouterPool's flow key — the first router FN's field — shards a bundle's
/// fragments onto one worker by destination. Wire size: 78 bytes.
[[nodiscard]] bytes::Result<core::DipHeader> make_dip32_custody_header(
    const fib::Ipv4Addr& dst, const fib::Ipv4Addr& src, const CustodyTag& tag,
    const FragInfo& frag, const crypto::Block& key,
    crypto::MacKind kind = crypto::MacKind::kEm2, std::uint8_t hop_limit = 64);

/// A bundle fragment as its first custodian `custodian` mints it: the
/// dip32+custody header with a requested tag whose chain starts at
/// `custodian`, then the payload slice. Empty if the header cannot build.
[[nodiscard]] std::vector<std::uint8_t> make_fragment_packet(
    const fib::Ipv4Addr& dst, const fib::Ipv4Addr& src, std::uint32_t custodian,
    const FragInfo& frag, std::span<const std::uint8_t> payload,
    const crypto::Block& key, crypto::MacKind kind = crypto::MacKind::kEm2,
    std::uint8_t hop_limit = 64);

/// Build a custody-ACK packet for fragment `frag` of `tag`'s bundle,
/// addressed to `dst` (the previous custodian) from `acker`.
[[nodiscard]] bytes::Result<core::DipHeader> make_custody_ack_header(
    const fib::Ipv4Addr& dst, const fib::Ipv4Addr& src, const CustodyTag& accepted,
    const FragInfo& frag, const crypto::Block& key,
    crypto::MacKind kind = crypto::MacKind::kEm2);

/// Locate the F_custody / F_frag fields of a parsed header (first match).
[[nodiscard]] std::optional<bytes::BitRange> find_custody_field(
    std::span<const core::FnTriple> fns) noexcept;
[[nodiscard]] std::optional<bytes::BitRange> find_frag_field(
    std::span<const core::FnTriple> fns) noexcept;

/// Verify and read a custody tag; nullopt if short or the MAC is bad.
[[nodiscard]] std::optional<CustodyTag> verify_custody_tag(
    std::span<const std::uint8_t> field, const crypto::Block& key,
    crypto::MacKind kind = crypto::MacKind::kEm2);

/// Read the kMatch32 destination of a parsed header, if present (ACK
/// dispatch: "is this custody traffic addressed to me?").
[[nodiscard]] std::optional<fib::Ipv4Addr> dip32_destination(
    const core::DipHeader& header) noexcept;

}  // namespace dip::dtn
