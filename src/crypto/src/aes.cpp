#include "dip/crypto/aes.hpp"

#include <algorithm>
#include <cstring>

// The AES-NI kernels are compiled for the `aes` target per function (no
// global -maes), so one binary runs on every x86 CPU and picks its kernel
// at first use via CPUID.
#if defined(__x86_64__) || defined(__i386__)
#define DIP_CRYPTO_X86 1
#include <emmintrin.h>
#include <wmmintrin.h>
#else
#define DIP_CRYPTO_X86 0
#endif

namespace dip::crypto {

namespace {

// FIPS-197 S-box and inverse.
constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (std::size_t i = 0; i < 256; ++i) inv[kSbox[i]] = static_cast<std::uint8_t>(i);
  return inv;
}
constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

constexpr std::array<std::uint8_t, 11> kRcon = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline std::uint8_t gmul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// One-block round primitives shared by the single- and multi-block encrypt
// paths (state is column-major, s[col*4 + row]).
inline void add_round_key(Block& s, const std::uint8_t* rk) noexcept {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

inline void sub_shift(Block& s) noexcept {
  // SubBytes + ShiftRows fused: row r rotates left by r.
  Block t = s;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) s[c * 4 + r] = kSbox[t[((c + r) % 4) * 4 + r]];
  }
}

inline void mix_columns(Block& s) noexcept {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[c * 4];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

}  // namespace

bool hardware_aes() noexcept {
  // Function-local: safe to reach from another translation unit's static
  // initialiser (e.g. a namespace-scope Aes128), which may run before this
  // file's statics; __builtin_cpu_init makes the CPUID probe valid there.
  static const bool hw = [] {
#if DIP_CRYPTO_X86
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
#else
    return false;
#endif
  }();
  return hw;
}

namespace detail {

void expand_key_portable(const Block& key, Aes128::RoundKeys& rk) noexcept {
  std::memcpy(rk.data(), key.data(), Aes128::kKeySize);
  for (int i = 4; i < 4 * (Aes128::kRounds + 1); ++i) {
    std::uint8_t t[4];
    std::memcpy(t, rk.data() + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ kRcon[i / 4]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int j = 0; j < 4; ++j) rk[4 * i + j] = rk[4 * (i - 4) + j] ^ t[j];
  }
}

void encrypt_blocks_portable(const Aes128::RoundKeys& rk, Block* blocks,
                             std::size_t n) noexcept {
  // Round-major over a strip of lanes: the per-lane chains are independent
  // inside each round, so the out-of-order engine overlaps them — the
  // "straight-line interleaved rounds" structure without hardware AES.
  constexpr int kRounds = Aes128::kRounds;
  for (std::size_t base = 0; base < n; base += Aes128::kMaxLanes) {
    const std::size_t lanes = std::min(Aes128::kMaxLanes, n - base);
    Block* s = blocks + base;
    for (std::size_t l = 0; l < lanes; ++l) add_round_key(s[l], rk.data());
    for (int round = 1; round < kRounds; ++round) {
      const std::uint8_t* k = rk.data() + 16 * round;
      for (std::size_t l = 0; l < lanes; ++l) {
        sub_shift(s[l]);
        mix_columns(s[l]);
        add_round_key(s[l], k);
      }
    }
    const std::uint8_t* k_last = rk.data() + 16 * kRounds;
    for (std::size_t l = 0; l < lanes; ++l) {
      sub_shift(s[l]);
      add_round_key(s[l], k_last);
    }
  }
}

#if DIP_CRYPTO_X86

namespace {

// One FIPS-197 key-expansion step: `assist` is aeskeygenassist(prev, rcon),
// whose word 3 holds SubWord(RotWord(w3)) ^ rcon; the two shifted XORs
// form the running prefix XOR w0, w0^w1, w0^w1^w2, w0^w1^w2^w3.
__attribute__((target("aes"))) inline __m128i expand_step(__m128i prev,
                                                          __m128i assist) noexcept {
  assist = _mm_shuffle_epi32(assist, 0xff);
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 8));
  return _mm_xor_si128(prev, assist);
}

}  // namespace

__attribute__((target("aes"))) void expand_key_aesni(const Block& key,
                                                    Aes128::RoundKeys& rk) noexcept {
  __m128i k[Aes128::kRounds + 1];
  k[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  // aeskeygenassist takes its round constant as an immediate: unrolled.
  k[1] = expand_step(k[0], _mm_aeskeygenassist_si128(k[0], 0x01));
  k[2] = expand_step(k[1], _mm_aeskeygenassist_si128(k[1], 0x02));
  k[3] = expand_step(k[2], _mm_aeskeygenassist_si128(k[2], 0x04));
  k[4] = expand_step(k[3], _mm_aeskeygenassist_si128(k[3], 0x08));
  k[5] = expand_step(k[4], _mm_aeskeygenassist_si128(k[4], 0x10));
  k[6] = expand_step(k[5], _mm_aeskeygenassist_si128(k[5], 0x20));
  k[7] = expand_step(k[6], _mm_aeskeygenassist_si128(k[6], 0x40));
  k[8] = expand_step(k[7], _mm_aeskeygenassist_si128(k[7], 0x80));
  k[9] = expand_step(k[8], _mm_aeskeygenassist_si128(k[8], 0x1b));
  k[10] = expand_step(k[9], _mm_aeskeygenassist_si128(k[9], 0x36));
  for (int r = 0; r <= Aes128::kRounds; ++r) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rk.data() + 16 * r), k[r]);
  }
}

__attribute__((target("aes"))) void encrypt_blocks_aesni(const Aes128::RoundKeys& rk,
                                                        Block* blocks,
                                                        std::size_t n) noexcept {
  constexpr int kRounds = Aes128::kRounds;
  __m128i k[kRounds + 1];
  for (int r = 0; r <= kRounds; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk.data() + 16 * r));
  }
  for (std::size_t base = 0; base < n; base += Aes128::kMaxLanes) {
    const std::size_t lanes = std::min(Aes128::kMaxLanes, n - base);
    __m128i s[Aes128::kMaxLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      s[l] = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[base + l].data())),
          k[0]);
    }
    for (int r = 1; r < kRounds; ++r) {
      for (std::size_t l = 0; l < lanes; ++l) s[l] = _mm_aesenc_si128(s[l], k[r]);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      s[l] = _mm_aesenclast_si128(s[l], k[kRounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(blocks[base + l].data()), s[l]);
    }
  }
}

#else  // !DIP_CRYPTO_X86: hardware_aes() is false, so these never dispatch.

void expand_key_aesni(const Block& key, Aes128::RoundKeys& rk) noexcept {
  expand_key_portable(key, rk);
}

void encrypt_blocks_aesni(const Aes128::RoundKeys& rk, Block* blocks,
                          std::size_t n) noexcept {
  encrypt_blocks_portable(rk, blocks, n);
}

#endif

}  // namespace detail

void Aes128::expand_key(const Block& key) noexcept {
  if (hardware_aes()) {
    detail::expand_key_aesni(key, round_keys_);
  } else {
    detail::expand_key_portable(key, round_keys_);
  }
}

void Aes128::encrypt(Block& s) const noexcept { encrypt_blocks(&s, 1); }

void Aes128::encrypt_blocks(Block* blocks, std::size_t n) const noexcept {
  if (hardware_aes()) {
    detail::encrypt_blocks_aesni(round_keys_, blocks, n);
  } else {
    detail::encrypt_blocks_portable(round_keys_, blocks, n);
  }
}

void Aes128::decrypt(Block& s) const noexcept {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[16 * round + i];
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : s) b = kInvSbox[b];
  };
  auto inv_shift_rows = [&] {
    Block t = s;
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) s[((c + r) % 4) * 4 + r] = t[c * 4 + r];
    }
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = &s[c * 4];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9));
      col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13));
      col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11));
      col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14));
    }
  };

  add_round_key(kRounds);
  for (int round = kRounds - 1; round > 0; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
}

bool block_equal_ct(const Block& a, const Block& b) noexcept {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

Block block_from(std::span<const std::uint8_t> data) noexcept {
  Block b{};
  const std::size_t n = std::min(data.size(), b.size());
  std::memcpy(b.data(), data.data(), n);
  return b;
}

void block_to(const Block& b, std::span<std::uint8_t> out) noexcept {
  const std::size_t n = std::min(out.size(), b.size());
  std::memcpy(out.data(), b.data(), n);
}

}  // namespace dip::crypto
