#include "lapx/service/blake2b.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace lapx::service {

namespace {

// BLAKE2b reads its message as little-endian 64-bit words, which on such
// a host is a plain copy.
static_assert(std::endian::native == std::endian::little);

constexpr std::uint64_t kIv[8] = {
    0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull, 0x3c6ef372fe94f82bull,
    0xa54ff53a5f1d36f1ull, 0x510e527fade682d1ull, 0x9b05688c2b3e6c1full,
    0x1f83d9abfb41bd6bull, 0x5be0cd19137e2179ull};

// Message word schedule of rounds 0..9; rounds 10 and 11 reuse 0 and 1.
constexpr unsigned char kSigma[10][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0}};

constexpr std::uint64_t rotr(std::uint64_t x, int n) {
  return (x >> n) | (x << (64 - n));
}

inline void mix(std::uint64_t* v, int a, int b, int c, int d, std::uint64_t x,
                std::uint64_t y) {
  v[a] = v[a] + v[b] + x;
  v[d] = rotr(v[d] ^ v[a], 32);
  v[c] = v[c] + v[d];
  v[b] = rotr(v[b] ^ v[c], 24);
  v[a] = v[a] + v[b] + y;
  v[d] = rotr(v[d] ^ v[a], 16);
  v[c] = v[c] + v[d];
  v[b] = rotr(v[b] ^ v[c], 63);
}

// The compression function F over one 128-byte block; `bytes` is the
// total count hashed so far (the low counter word: inputs stay far below
// 2^64 bytes, so the high word is always zero).
void compress(std::uint64_t* h, const unsigned char* block,
              std::uint64_t bytes, bool last) {
  std::uint64_t m[16];
  std::memcpy(m, block, sizeof m);  // little-endian words, see above
  std::uint64_t v[16];
  for (int i = 0; i < 8; ++i) {
    v[i] = h[i];
    v[i + 8] = kIv[i];
  }
  v[12] ^= bytes;
  if (last) v[14] = ~v[14];
  // Unrolled, the schedule's indices are constants and m stays in
  // registers: nearly twice the throughput of the rolled loop.
#pragma GCC unroll 12
  for (int round = 0; round < 12; ++round) {
    const unsigned char* s = kSigma[round % 10];
    mix(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
    mix(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
    mix(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
    mix(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
    mix(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
    mix(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
    mix(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
    mix(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
  }
  for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[i + 8];
}

}  // namespace

Blake2b256::Blake2b256() {
  std::memcpy(h_, kIv, sizeof h_);
  h_[0] ^= 0x01010000u | 32u;  // depth 1, fanout 1, no key, 32-byte digest
}

void Blake2b256::update(const void* data, std::size_t bytes) {
  // The final flag marks the last block even when it is full, so a block
  // is compressed only once more input is known to follow it.
  const auto* p = static_cast<const unsigned char*>(data);
  while (bytes > 0) {
    if (fill_ == sizeof block_) {
      compressed_ += sizeof block_;
      compress(h_, block_, compressed_, /*last=*/false);
      fill_ = 0;
    }
    const std::size_t take = std::min(bytes, sizeof block_ - fill_);
    std::memcpy(block_ + fill_, p, take);
    fill_ += take;
    p += take;
    bytes -= take;
  }
}

Blake2b256::Digest Blake2b256::digest() {
  std::memset(block_ + fill_, 0, sizeof block_ - fill_);
  compress(h_, block_, compressed_ + fill_, /*last=*/true);
  Digest out;
  std::memcpy(out.data(), h_, out.size());  // little-endian words
  return out;
}

std::string Blake2b256::hex() {
  const Digest d = digest();
  std::string out(2 * d.size(), '0');
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[2 * i] = "0123456789abcdef"[d[i] >> 4];
    out[2 * i + 1] = "0123456789abcdef"[d[i] & 0xF];
  }
  return out;
}

std::string blake2b_256_hex(std::string_view bytes) {
  Blake2b256 hash;
  hash.update(bytes.data(), bytes.size());
  return hash.hex();
}

}  // namespace lapx::service
