#include "dip/opt/opt.hpp"

#include <cstring>

namespace dip::opt {

using core::DipHeader;
using core::FnTriple;
using core::NextHeader;
using core::OpContext;
using core::OpKey;

bytes::Status ParmOp::execute(OpContext& ctx) {
  if (ctx.field.bit_length != 128) return bytes::Unexpected{bytes::Error::kMalformed};
  const auto sid_bytes = ctx.target_bytes();
  if (sid_bytes.empty()) return bytes::Unexpected{bytes::Error::kMalformed};

  const crypto::SessionId sid = crypto::block_from(sid_bytes);
  // "the router will derive a dynamic key from session ID in the packet
  // header with its local key" (§3).
  ctx.scratch->dynamic_key = ctx.env->drkey().derive(sid);
  return {};
}

bytes::Status MacOp::execute(OpContext& ctx) {
  if (!ctx.scratch->dynamic_key) {
    // F_MAC without a preceding F_parm: the host composed the chain wrong.
    return bytes::Unexpected{bytes::Error::kState};
  }
  const auto covered = ctx.target_bytes();
  if (covered.empty()) return bytes::Unexpected{bytes::Error::kMalformed};

  // Stack-constructed primitive: F_MAC sits on the per-packet fast path and
  // must not allocate (make_mac news a Mac per call).
  if (ctx.env->mac_kind == crypto::MacKind::kEm2) {
    ctx.scratch->mac = crypto::Em2Mac(*ctx.scratch->dynamic_key).compute(covered);
  } else {
    ctx.scratch->mac = crypto::AesCmac(*ctx.scratch->dynamic_key).compute(covered);
  }
  return {};
}

bytes::Status MarkOp::execute(OpContext& ctx) {
  if (!ctx.scratch->mac) return bytes::Unexpected{bytes::Error::kState};
  if (ctx.field.bit_length != 128) return bytes::Unexpected{bytes::Error::kMalformed};
  auto pvf = ctx.target_bytes();
  if (pvf.empty()) return bytes::Unexpected{bytes::Error::kMalformed};

  // PVF_i = m_i (the tag chains because F_MAC covered PVF_{i-1}).
  crypto::block_to(*ctx.scratch->mac, pvf);

  // OPV accumulates every hop's tag. The OPV field sits right after the PVF
  // in the same block; address it relative to the PVF's own offset so the
  // triple stays exactly the paper's (loc 288, len 128) even when the OPT
  // block is embedded at a nonzero offset (NDN+OPT).
  const std::size_t pvf_byte = ctx.field.bit_offset / 8;
  const std::size_t opv_byte = pvf_byte + (kOpvOffset - kPvfOffset);
  if (opv_byte + 16 > ctx.locations.size()) {
    return bytes::Unexpected{bytes::Error::kOutOfRange};
  }
  auto opv = ctx.locations.subspan(opv_byte, 16);
  for (std::size_t i = 0; i < 16; ++i) opv[i] ^= (*ctx.scratch->mac)[i];
  return {};
}

std::array<std::uint8_t, kBlockBytes> make_source_block(
    const Session& session, std::span<const std::uint8_t> payload,
    std::uint32_t timestamp) {
  std::array<std::uint8_t, kBlockBytes> block{};

  const crypto::Block dh = data_hash(session.id, payload, session.mac_kind);
  std::memcpy(block.data() + kDataHashOffset, dh.data(), 16);
  std::memcpy(block.data() + kSessionIdOffset, session.id.data(), 16);
  for (int i = 0; i < 4; ++i) {
    block[kTimestampOffset + i] = static_cast<std::uint8_t>(timestamp >> (8 * (3 - i)));
  }
  // PVF_0 = MAC_{K_D}(DataHash|SessionID|Timestamp): only someone holding
  // the destination's session key can seed a valid chain — the source-
  // authentication anchor. Covering the session id and timestamp binds them
  // to the source too; otherwise a pre-path attacker could rewrite the
  // timestamp undetected (found by tests/adversary_test).
  const auto mac = crypto::make_mac(session.mac_kind, session.destination_key);
  const crypto::Block pvf0 =
      mac->compute(std::span<const std::uint8_t>(block).subspan(0, kPvfOffset));
  std::memcpy(block.data() + kPvfOffset, pvf0.data(), 16);
  // OPV_0 = 0 (already zeroed).
  return block;
}

std::vector<FnTriple> opt_fn_triples() {
  return {
      FnTriple::router(128, 128, OpKey::kParm),  // (loc 128, len 128, key 6)
      FnTriple::router(0, 416, OpKey::kMac),     // (loc 0,   len 416, key 7)
      FnTriple::router(288, 128, OpKey::kMark),  // (loc 288, len 128, key 8)
      FnTriple::host(0, 544, OpKey::kVer),       // (loc 0,   len 544, key 9)
  };
}

bytes::Result<DipHeader> make_opt_header(const Session& session,
                                         std::span<const std::uint8_t> payload,
                                         std::uint32_t timestamp, NextHeader next,
                                         std::uint8_t hop_limit) {
  const auto block = make_source_block(session, payload, timestamp);
  core::HeaderBuilder b;
  b.next_header(next).hop_limit(hop_limit);
  b.add_location(block);
  for (const FnTriple& fn : opt_fn_triples()) b.add_fn(fn);
  return b.build();
}

bytes::Result<DipHeader> make_ndn_opt_header(std::uint32_t name_code, bool interest,
                                             const Session& session,
                                             std::span<const std::uint8_t> payload,
                                             std::uint32_t timestamp, NextHeader next,
                                             std::uint8_t hop_limit) {
  const auto block = make_source_block(session, payload, timestamp);
  core::HeaderBuilder b;
  b.next_header(next).hop_limit(hop_limit);
  // OPT block first so the paper's OPT triples keep their offsets; the name
  // code rides behind it at bit 544.
  b.add_location(block);
  const std::array<std::uint8_t, 4> name_bytes = fib::ipv4_from_u32(name_code).bytes;
  const std::uint16_t name_loc = b.add_location(name_bytes);
  b.add_fn(FnTriple::router(name_loc, 32, interest ? OpKey::kFib : OpKey::kPit));
  for (const FnTriple& fn : opt_fn_triples()) b.add_fn(fn);
  return b.build();
}

std::string_view to_string(VerifyResult r) noexcept {
  switch (r) {
    case VerifyResult::kOk: return "ok";
    case VerifyResult::kBadDataHash: return "bad-data-hash";
    case VerifyResult::kBadSession: return "bad-session";
    case VerifyResult::kBadPvf: return "bad-pvf";
    case VerifyResult::kBadOpv: return "bad-opv";
    case VerifyResult::kStale: return "stale";
    case VerifyResult::kMalformed: return "malformed";
  }
  return "unknown";
}

VerifyResult verify_packet(const Session& session,
                           std::span<const std::uint8_t> locations,
                           std::span<const std::uint8_t> payload,
                           std::uint32_t now_seconds, std::uint32_t freshness_window,
                           std::size_t block_offset) {
  if (locations.size() < block_offset + kBlockBytes) return VerifyResult::kMalformed;
  const auto block = locations.subspan(block_offset, kBlockBytes);

  // Session binding.
  if (std::memcmp(block.data() + kSessionIdOffset, session.id.data(), 16) != 0) {
    return VerifyResult::kBadSession;
  }

  // Freshness.
  if (freshness_window != 0) {
    std::uint32_t ts = 0;
    for (int i = 0; i < 4; ++i) ts = (ts << 8) | block[kTimestampOffset + i];
    if (now_seconds > ts && now_seconds - ts > freshness_window) {
      return VerifyResult::kStale;
    }
  }

  // Content integrity.
  const crypto::Block dh = data_hash(session.id, payload, session.mac_kind);
  if (!crypto::block_equal_ct(dh, crypto::block_from(block.subspan(kDataHashOffset, 16)))) {
    return VerifyResult::kBadDataHash;
  }

  // Replay the chain: PVF_0 from K_D, then every router's tag in order.
  std::array<std::uint8_t, 52> coverage{};  // DataHash|SessionID|Timestamp|PVF
  std::memcpy(coverage.data(), block.data(), 52);

  const auto kd_mac = crypto::make_mac(session.mac_kind, session.destination_key);
  crypto::Block pvf = kd_mac->compute(
      std::span<const std::uint8_t>(coverage).subspan(0, kPvfOffset));
  crypto::Block opv{};
  for (const crypto::Block& key : session.router_keys) {
    std::memcpy(coverage.data() + kPvfOffset, pvf.data(), 16);
    const auto hop_mac = crypto::make_mac(session.mac_kind, key);
    pvf = hop_mac->compute(coverage);
    crypto::block_xor(opv, pvf);
  }

  if (!crypto::block_equal_ct(pvf, crypto::block_from(block.subspan(kPvfOffset, 16)))) {
    return VerifyResult::kBadPvf;
  }
  if (!crypto::block_equal_ct(opv, crypto::block_from(block.subspan(kOpvOffset, 16)))) {
    return VerifyResult::kBadOpv;
  }
  return VerifyResult::kOk;
}

}  // namespace dip::opt
