// AES-128 block cipher (FIPS-197), runtime-dispatched between AES-NI and a
// portable table-free kernel.
//
// Used three ways in this repo:
//  * as the public permutation inside the 2EM Even–Mansour construction the
//    paper uses for F_MAC (§4.1, [2]);
//  * as the PRF for DRKey-style per-router key derivation in OPT;
//  * as the block cipher under AES-CMAC, the ablation baseline the paper
//    rejected for Tofino (it would need packet resubmission).
//
// Two kernels sit behind Aes128, chosen once per process at first use
// (hardware_aes()): AES-NI rounds and key expansion where the CPU has them,
// else a byte-oriented portable implementation. The portable kernel is the
// oracle — tests/crypto_test runs the known answers against both and
// cross-checks them on random keys and strip shapes — and also the only
// decrypt. It has no large T-tables but is NOT hardened against
// cache-timing side channels; do not reuse it outside the simulator.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dip::crypto {

/// 128-bit block used throughout the crypto substrate.
using Block = std::array<std::uint8_t, 16>;

/// AES-128: 10 rounds, 16-byte key, 16-byte block.
class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  explicit Aes128(const Block& key) noexcept { expand_key(key); }

  /// Encrypt one block in place.
  void encrypt(Block& block) const noexcept;

  /// Encrypt `n` blocks in place under this key, up to kMaxLanes in flight:
  /// every round is applied across the whole strip before the next round
  /// starts, so the per-block work interleaves (straight-line ILP on the
  /// portable kernel, one pipelined AES-NI round per lane on the hardware
  /// kernel). Bitwise identical to calling encrypt() n times.
  void encrypt_blocks(Block* blocks, std::size_t n) const noexcept;

  /// Decrypt one block in place (portable kernel on every CPU).
  void decrypt(Block& block) const noexcept;

  /// Convenience: encrypt a copy.
  [[nodiscard]] Block encrypt_copy(Block block) const noexcept {
    encrypt(block);
    return block;
  }

  /// Multi-block strip width: how many blocks encrypt_blocks keeps in
  /// flight per pass (8 covers the burst MAC batch and the AES-NI pipeline
  /// depth without spilling the portable path's working set).
  static constexpr std::size_t kMaxLanes = 8;

  /// Expanded key schedule: round r is bytes [16r, 16r + 16), FIPS-197
  /// byte order. Both kernels produce and consume this exact layout.
  using RoundKeys = std::array<std::uint8_t, (kRounds + 1) * kBlockSize>;

  [[nodiscard]] const RoundKeys& round_keys() const noexcept { return round_keys_; }

 private:
  void expand_key(const Block& key) noexcept;

  RoundKeys round_keys_{};
};

/// True when Aes128 runs the AES-NI kernel on this CPU. Decided once per
/// process (CPUID) at first use; false on CPUs without AES-NI and on
/// non-x86 targets, where the portable kernel runs.
[[nodiscard]] bool hardware_aes() noexcept;

namespace detail {

// The two kernels behind Aes128, callable directly so a test or bench can
// run one against the other. The *_aesni kernels may only be called when
// hardware_aes() is true.
void expand_key_portable(const Block& key, Aes128::RoundKeys& rk) noexcept;
void encrypt_blocks_portable(const Aes128::RoundKeys& rk, Block* blocks,
                             std::size_t n) noexcept;
void expand_key_aesni(const Block& key, Aes128::RoundKeys& rk) noexcept;
void encrypt_blocks_aesni(const Aes128::RoundKeys& rk, Block* blocks,
                          std::size_t n) noexcept;

}  // namespace detail

/// Free-function spelling of Aes128::encrypt_blocks (the burst-pipeline
/// entry point; see DESIGN.md §10).
inline void aes128_encrypt_blocks(const Aes128& cipher, Block* blocks,
                                  std::size_t n) noexcept {
  cipher.encrypt_blocks(blocks, n);
}

/// XOR two blocks: a ^= b.
inline void block_xor(Block& a, const Block& b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

/// Constant-time block comparison (for tag verification).
[[nodiscard]] bool block_equal_ct(const Block& a, const Block& b) noexcept;

/// Load/store helpers between spans and Blocks.
[[nodiscard]] Block block_from(std::span<const std::uint8_t> data) noexcept;
void block_to(const Block& b, std::span<std::uint8_t> out) noexcept;

}  // namespace dip::crypto
