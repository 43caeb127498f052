#pragma once
// BLAKE2b-256 (RFC 7693): the hash behind every session's content
// identity (graph_content_id and open_ooc, session_store.hpp).
//
// The result cache is content-addressed, so the identity must be
// collision-resistant -- two graphs whose ids collide would share cache
// entries, which is the cache-poisoning hole the fingerprint whitelist
// closed.  It must also be restart-stable, because persisted fingerprints
// embed it verbatim.  A portable, unkeyed BLAKE2b with a 32-byte output
// is both.
//
// An in-memory graph's id is a two-level Merkle tree (Merkle, CRYPTO
// 1987) of such digests over its edge array, with RFC 6962's domain
// separation:
//
//   leaf k = BLAKE2b-256(0x00 || edge bytes of ids [1024k, 1024k + 1024))
//   id     = BLAKE2b-256(0x01 || u64le n || u64le m || leaf 0 || leaf 1 ..)
//
// each edge (first, second) as two u32le.  The prefix bytes keep a leaf
// from ever hashing like a root.  A collision of the tree is a collision
// of BLAKE2b at a leaf or at the root, so it is as hard to find as one of
// the flat hash, and an edit that rewrites a few edge ids re-hashes only
// their leaves and the root (ContentDigest).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace lapx::service {

/// Incremental unkeyed BLAKE2b with a 32-byte digest: update() any number
/// of times, then digest() or hex() once.  Hashing pieces gives the digest
/// of their concatenation.
class Blake2b256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  Blake2b256();
  void update(const void* data, std::size_t bytes);
  /// The 32 digest bytes (Python's `hashlib.blake2b(data,
  /// digest_size=32).digest()`).  Finalizes: call it, or hex(), once,
  /// after the last update().
  Digest digest();
  /// The digest as 64 lowercase hex digits (`.hexdigest()`).  Finalizes.
  std::string hex();

 private:
  std::uint64_t h_[8];
  unsigned char block_[128] = {};
  std::size_t fill_ = 0;          // bytes buffered in block_
  std::uint64_t compressed_ = 0;  // bytes already compressed
};

/// Blake2b256 over `bytes` alone.
std::string blake2b_256_hex(std::string_view bytes);


}  // namespace lapx::service
