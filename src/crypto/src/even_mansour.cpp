#include "dip/crypto/even_mansour.hpp"

namespace dip::crypto {

namespace {

// Fixed public constants keying the two public permutations. These are not
// secrets: Even–Mansour security rests solely on the whitening keys.
constexpr Block kPerm1Key = {'D', 'I', 'P', '-', '2', 'E', 'M', '-',
                             'P', 'E', 'R', 'M', '-', 'O', 'N', 'E'};
constexpr Block kPerm2Key = {'D', 'I', 'P', '-', '2', 'E', 'M', '-',
                             'P', 'E', 'R', 'M', '-', 'T', 'W', 'O'};

}  // namespace

const Aes128& EvenMansour2::perm1() noexcept {
  static const Aes128 p(kPerm1Key);
  return p;
}

const Aes128& EvenMansour2::perm2() noexcept {
  static const Aes128 p(kPerm2Key);
  return p;
}

EvenMansour2::EvenMansour2(const Block& master_key) noexcept {
  // k_i = AES_masterkey(i + 1) — a PRF keyed by the master key on distinct
  // inputs, the three blocks in one multi-block pass.
  Block k[3] = {};
  for (int i = 0; i < 3; ++i) k[i][15] = static_cast<std::uint8_t>(i + 1);
  Aes128(master_key).encrypt_blocks(k, 3);
  k0_ = k[0];
  k1_ = k[1];
  k2_ = k[2];
}

void EvenMansour2::encrypt(Block& block) const noexcept {
  block_xor(block, k0_);
  perm1().encrypt(block);
  block_xor(block, k1_);
  perm2().encrypt(block);
  block_xor(block, k2_);
}

void EvenMansour2::encrypt_blocks(Block* blocks, std::size_t n) const noexcept {
  for (std::size_t i = 0; i < n; ++i) block_xor(blocks[i], k0_);
  perm1().encrypt_blocks(blocks, n);
  for (std::size_t i = 0; i < n; ++i) block_xor(blocks[i], k1_);
  perm2().encrypt_blocks(blocks, n);
  for (std::size_t i = 0; i < n; ++i) block_xor(blocks[i], k2_);
}

void EvenMansour2::encrypt_blocks_multi(Block* blocks,
                                        const EvenMansour2* const* ciphers,
                                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) block_xor(blocks[i], ciphers[i]->k0_);
  perm1().encrypt_blocks(blocks, n);
  for (std::size_t i = 0; i < n; ++i) block_xor(blocks[i], ciphers[i]->k1_);
  perm2().encrypt_blocks(blocks, n);
  for (std::size_t i = 0; i < n; ++i) block_xor(blocks[i], ciphers[i]->k2_);
}

void EvenMansour2::decrypt(Block& block) const noexcept {
  block_xor(block, k2_);
  perm2().decrypt(block);
  block_xor(block, k1_);
  perm1().decrypt(block);
  block_xor(block, k0_);
}

}  // namespace dip::crypto
