#include "dip/mesh/frame.hpp"

#include "dip/bytes/cursor.hpp"

namespace dip::mesh {

namespace {

/// XOR check over the first 18 header bytes, domain-separated from the DIP
/// basic-header checksum so a frame header never verifies as a DIP header.
[[nodiscard]] std::uint8_t frame_checksum(
    std::span<const std::uint8_t> first18) noexcept {
  std::uint8_t x = 0x5C;
  for (std::size_t i = 0; i < 18 && i < first18.size(); ++i) x ^= first18[i];
  return x;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint32_t src_node,
                                       std::uint64_t seq,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(FrameHeader::kWireSize + payload.size());
  bytes::append_be<std::uint16_t>(out, FrameHeader::kMagic);
  out.push_back(FrameHeader::kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  bytes::append_be<std::uint32_t>(out, src_node);
  bytes::append_be<std::uint64_t>(out, seq);
  bytes::append_be<std::uint16_t>(out, static_cast<std::uint16_t>(payload.size()));
  out.push_back(frame_checksum(out));
  out.push_back(0);  // reserved
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bytes::Result<Frame> decode_frame(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < FrameHeader::kWireSize) {
    return bytes::Err(bytes::Error::kTruncated);
  }
  if (bytes::load_be<std::uint16_t>(datagram.data()) != FrameHeader::kMagic ||
      datagram[2] != FrameHeader::kVersion || datagram[19] != 0) {
    return bytes::Err(bytes::Error::kMalformed);
  }
  if (datagram[18] != frame_checksum(datagram.subspan(0, 18))) {
    return bytes::Err(bytes::Error::kChecksum);
  }
  Frame f;
  f.header.type = static_cast<FrameType>(datagram[3]);
  switch (f.header.type) {
    case FrameType::kData:
    case FrameType::kHello:
    case FrameType::kVerdict:
    case FrameType::kBye:
      break;
    default:
      return bytes::Err(bytes::Error::kMalformed);
  }
  f.header.src_node = bytes::load_be<std::uint32_t>(datagram.data() + 4);
  f.header.seq = bytes::load_be<std::uint64_t>(datagram.data() + 8);
  f.header.payload_len = bytes::load_be<std::uint16_t>(datagram.data() + 16);
  if (f.header.payload_len > FrameHeader::kMaxPayload) {
    return bytes::Err(bytes::Error::kMalformed);
  }
  const std::size_t want = FrameHeader::kWireSize + f.header.payload_len;
  if (datagram.size() < want) return bytes::Err(bytes::Error::kTruncated);
  if (datagram.size() > want) return bytes::Err(bytes::Error::kMalformed);
  f.payload = datagram.subspan(FrameHeader::kWireSize, f.header.payload_len);
  return f;
}

}  // namespace dip::mesh
