// Big-endian byte cursors for wire-format parsing and serialization.
//
// Network headers are big-endian; Reader/Writer provide bounds-checked
// sequential access over a caller-owned span, per the repo-wide rule that
// wire codecs never own memory.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dip/bytes/expected.hpp"

namespace dip::bytes {

/// Big-endian integer at `p`, for fixed-layout fields whose bounds the
/// caller already checked.
template <typename T>
[[nodiscard]] constexpr T load_be(const std::uint8_t* p) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v = static_cast<T>((v << 8) | p[i]);
  return v;
}

/// Store `v` big-endian at `p` (bounds checked by the caller).
template <typename T>
constexpr void store_be(std::uint8_t* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

/// Append `v` big-endian to a growing buffer.
template <typename T>
void append_be(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = sizeof(T); i-- > 0;) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Bounds-checked big-endian reader over a borrowed byte span.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  [[nodiscard]] Result<std::uint8_t> u8() noexcept {
    if (remaining() < 1) return Err(Error::kTruncated);
    return data_[pos_++];
  }

  [[nodiscard]] Result<std::uint16_t> u16() noexcept {
    if (remaining() < 2) return Err(Error::kTruncated);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  [[nodiscard]] Result<std::uint32_t> u32() noexcept {
    if (remaining() < 4) return Err(Error::kTruncated);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }

  [[nodiscard]] Result<std::uint64_t> u64() noexcept {
    if (remaining() < 8) return Err(Error::kTruncated);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }

  /// Borrow the next n bytes without copying.
  [[nodiscard]] Result<std::span<const std::uint8_t>> bytes(std::size_t n) noexcept {
    if (remaining() < n) return Err(Error::kTruncated);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// Copy the next dst.size() bytes into dst.
  [[nodiscard]] Status read_into(std::span<std::uint8_t> dst) noexcept {
    if (remaining() < dst.size()) return Unexpected{Error::kTruncated};
    if (!dst.empty()) std::memcpy(dst.data(), data_.data() + pos_, dst.size());
    pos_ += dst.size();
    return {};
  }

  [[nodiscard]] Status skip(std::size_t n) noexcept {
    if (remaining() < n) return Unexpected{Error::kTruncated};
    pos_ += n;
    return {};
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Bounds-checked big-endian writer over a borrowed byte span.
class Writer {
 public:
  explicit Writer(std::span<std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Bytes written so far, viewed as a span over the destination.
  [[nodiscard]] std::span<const std::uint8_t> written() const noexcept {
    return data_.subspan(0, pos_);
  }

  [[nodiscard]] Status u8(std::uint8_t v) noexcept {
    if (remaining() < 1) return Unexpected{Error::kOverflow};
    data_[pos_++] = v;
    return {};
  }

  [[nodiscard]] Status u16(std::uint16_t v) noexcept {
    if (remaining() < 2) return Unexpected{Error::kOverflow};
    data_[pos_] = static_cast<std::uint8_t>(v >> 8);
    data_[pos_ + 1] = static_cast<std::uint8_t>(v);
    pos_ += 2;
    return {};
  }

  [[nodiscard]] Status u32(std::uint32_t v) noexcept {
    if (remaining() < 4) return Unexpected{Error::kOverflow};
    for (int i = 3; i >= 0; --i) {
      data_[pos_++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return {};
  }

  [[nodiscard]] Status u64(std::uint64_t v) noexcept {
    if (remaining() < 8) return Unexpected{Error::kOverflow};
    for (int i = 7; i >= 0; --i) {
      data_[pos_++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return {};
  }

  [[nodiscard]] Status bytes(std::span<const std::uint8_t> src) noexcept {
    if (remaining() < src.size()) return Unexpected{Error::kOverflow};
    if (!src.empty()) std::memcpy(data_.data() + pos_, src.data(), src.size());
    pos_ += src.size();
    return {};
  }

  /// Write n zero bytes (reserved fields, padding).
  [[nodiscard]] Status zero(std::size_t n) noexcept {
    if (remaining() < n) return Unexpected{Error::kOverflow};
    std::memset(data_.data() + pos_, 0, n);
    pos_ += n;
    return {};
  }

 private:
  std::span<std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dip::bytes
