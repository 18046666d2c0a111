#include "dip/dtn/custody.hpp"

#include <algorithm>

#include "dip/bytes/cursor.hpp"

namespace dip::dtn {

CustodyTag CustodyTag::read(std::span<const std::uint8_t> field) noexcept {
  CustodyTag tag;
  if (field.size() < kCustodyTagBytes) return tag;
  tag.flags = field[0];
  tag.chain_len = field[1];
  tag.prev_custodian = static_cast<std::uint16_t>((field[2] << 8) | field[3]);
  tag.bundle_id = bytes::load_be<std::uint32_t>(field.data() + 4);
  tag.custodian = bytes::load_be<std::uint32_t>(field.data() + 8);
  tag.chain_digest = bytes::load_be<std::uint32_t>(field.data() + 12);
  tag.mac = crypto::block_from(field.subspan(16, 16));
  return tag;
}

void CustodyTag::write(std::span<std::uint8_t> field) const noexcept {
  if (field.size() < kCustodyTagBytes) return;
  field[0] = flags;
  field[1] = chain_len;
  field[2] = static_cast<std::uint8_t>(prev_custodian >> 8);
  field[3] = static_cast<std::uint8_t>(prev_custodian);
  bytes::store_be<std::uint32_t>(field.data() + 4, bundle_id);
  bytes::store_be<std::uint32_t>(field.data() + 8, custodian);
  bytes::store_be<std::uint32_t>(field.data() + 12, chain_digest);
  crypto::block_to(mac, field.subspan(16, 16));
}

crypto::Block CustodyTag::compute_mac(std::span<const std::uint8_t> field,
                                      const crypto::Block& key, crypto::MacKind kind) {
  return crypto::make_mac(kind, key)->compute(field.subspan(0, 16));
}

FragInfo FragInfo::read(std::span<const std::uint8_t> field) noexcept {
  FragInfo f;
  if (field.size() < kFragBytes) return f;
  f.index = static_cast<std::uint16_t>((field[0] << 8) | field[1]);
  f.total = static_cast<std::uint16_t>((field[2] << 8) | field[3]);
  f.bundle_id = bytes::load_be<std::uint32_t>(field.data() + 4);
  return f;
}

void FragInfo::write(std::span<std::uint8_t> field) const noexcept {
  if (field.size() < kFragBytes) return;
  field[0] = static_cast<std::uint8_t>(index >> 8);
  field[1] = static_cast<std::uint8_t>(index);
  field[2] = static_cast<std::uint8_t>(total >> 8);
  field[3] = static_cast<std::uint8_t>(total);
  bytes::store_be<std::uint32_t>(field.data() + 4, bundle_id);
}

bytes::Status CustodyOp::execute(core::OpContext& ctx) {
  auto field = ctx.target_bytes();
  if (field.size() < kCustodyTagBytes) {
    return bytes::Unexpected{bytes::Error::kMalformed};
  }
  // A non-custodial node carries the tag untouched — the overlay half of
  // the §2.4 heterogeneous-deployment rule; the module being registered at
  // all mirrors the other half.
  if (!ctx.env->accept_custody) return {};

  auto verified = verify_custody_tag(field, ctx.env->custody_key, ctx.env->mac_kind);
  if (!verified) {
    // A forged/corrupted custody chain is an authentication failure, not a
    // structural one: same taxonomy as a bad OPT tag.
    ctx.result->drop(core::DropReason::kAuthFailed);
    return {};
  }
  CustodyTag& tag = *verified;
  if (tag.is_ack() || !tag.requested()) return {};  // nothing to accept

  // Accept custody: stamp ourselves as custodian and extend the chain. The
  // node's CustodyAgent observes the rewrite (custodian == node_id) and
  // commits the forwarded bytes + ACKs the previous holder, whose identity
  // survives in the prev field of the rewritten tag.
  tag.prev_custodian = static_cast<std::uint16_t>(tag.custodian);
  tag.custodian = ctx.env->node_id;
  tag.chain_len = static_cast<std::uint8_t>(tag.chain_len + 1);
  tag.chain_digest = chain_mix(tag.chain_digest, ctx.env->node_id);
  tag.write(field);
  tag.mac = CustodyTag::compute_mac(field, ctx.env->custody_key, ctx.env->mac_kind);
  tag.write(field);
  return {};
}

bytes::Status BundleFragOp::execute(core::OpContext& ctx) {
  auto field = ctx.target_bytes();
  if (field.size() < kFragBytes) return bytes::Unexpected{bytes::Error::kMalformed};
  const FragInfo frag = FragInfo::read(field);
  if (frag.total == 0 || frag.index >= frag.total) {
    return bytes::Unexpected{bytes::Error::kMalformed};
  }
  return {};
}

void add_custody_modules(core::OpRegistry& registry) {
  registry.add(std::make_unique<CustodyOp>());
  registry.add(std::make_unique<BundleFragOp>());
}

void add_custody_fn(core::HeaderBuilder& builder, const CustodyTag& tag,
                    const crypto::Block& key, crypto::MacKind kind) {
  std::array<std::uint8_t, kCustodyTagBytes> field{};
  tag.write(field);
  CustodyTag stamped = tag;
  stamped.mac = CustodyTag::compute_mac(field, key, kind);
  stamped.write(field);
  builder.add_router_fn(core::OpKey::kCustody, field);
}

void add_frag_fn(core::HeaderBuilder& builder, const FragInfo& frag) {
  std::array<std::uint8_t, kFragBytes> field{};
  frag.write(field);
  builder.add_router_fn(core::OpKey::kBundleFrag, field);
}

bytes::Result<core::DipHeader> make_dip32_custody_header(
    const fib::Ipv4Addr& dst, const fib::Ipv4Addr& src, const CustodyTag& tag,
    const FragInfo& frag, const crypto::Block& key, crypto::MacKind kind,
    std::uint8_t hop_limit) {
  core::HeaderBuilder b;
  b.next_header(core::NextHeader::kNone).hop_limit(hop_limit);
  b.add_router_fn(core::OpKey::kMatch32, dst.bytes);  // first: the flow key
  b.add_router_fn(core::OpKey::kSource, src.bytes);
  add_custody_fn(b, tag, key, kind);
  add_frag_fn(b, frag);
  return b.build();
}

std::vector<std::uint8_t> make_fragment_packet(
    const fib::Ipv4Addr& dst, const fib::Ipv4Addr& src, std::uint32_t custodian,
    const FragInfo& frag, std::span<const std::uint8_t> payload,
    const crypto::Block& key, crypto::MacKind kind, std::uint8_t hop_limit) {
  CustodyTag tag;
  tag.flags = kCustodyRequest;
  tag.prev_custodian = static_cast<std::uint16_t>(custodian);
  tag.bundle_id = frag.bundle_id;
  tag.custodian = custodian;
  tag.chain_digest = chain_mix(0, custodian);
  const auto header = make_dip32_custody_header(dst, src, tag, frag, key, kind, hop_limit);
  if (!header) return {};
  std::vector<std::uint8_t> packet = header->serialize();
  packet.insert(packet.end(), payload.begin(), payload.end());
  return packet;
}

bytes::Result<core::DipHeader> make_custody_ack_header(
    const fib::Ipv4Addr& dst, const fib::Ipv4Addr& src, const CustodyTag& accepted,
    const FragInfo& frag, const crypto::Block& key, crypto::MacKind kind) {
  CustodyTag ack = accepted;
  ack.flags = kCustodyAck;
  return make_dip32_custody_header(dst, src, ack, frag, key, kind);
}

namespace {

std::optional<bytes::BitRange> find_field(std::span<const core::FnTriple> fns,
                                          core::OpKey key,
                                          std::uint16_t min_bits) noexcept {
  for (const core::FnTriple& fn : fns) {
    if (fn.key() == key && fn.range().byte_aligned() && fn.field_len >= min_bits) {
      return fn.range();
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<bytes::BitRange> find_custody_field(
    std::span<const core::FnTriple> fns) noexcept {
  return find_field(fns, core::OpKey::kCustody, kCustodyTagBytes * 8);
}

std::optional<bytes::BitRange> find_frag_field(
    std::span<const core::FnTriple> fns) noexcept {
  return find_field(fns, core::OpKey::kBundleFrag, kFragBytes * 8);
}

std::optional<CustodyTag> verify_custody_tag(std::span<const std::uint8_t> field,
                                             const crypto::Block& key,
                                             crypto::MacKind kind) {
  if (field.size() < kCustodyTagBytes) return std::nullopt;
  const CustodyTag tag = CustodyTag::read(field);
  const crypto::Block expected = CustodyTag::compute_mac(field, key, kind);
  if (!crypto::block_equal_ct(expected, tag.mac)) return std::nullopt;
  return tag;
}

std::optional<fib::Ipv4Addr> dip32_destination(const core::DipHeader& header) noexcept {
  const auto range = find_field(header.fns, core::OpKey::kMatch32, 32);
  if (!range) return std::nullopt;
  const std::size_t at = range->bit_offset / 8;
  if (header.locations.size() < at + 4) return std::nullopt;
  return fib::ipv4_from_u32(bytes::load_be<std::uint32_t>(header.locations.data() + at));
}

}  // namespace dip::dtn
