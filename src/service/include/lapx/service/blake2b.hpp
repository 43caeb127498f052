#pragma once
// BLAKE2b-256 (RFC 7693): the hash behind an in-memory graph's content
// identity (graph_content_id, session_store.hpp).
//
// The result cache is content-addressed, so the identity must be
// collision-resistant -- two graphs whose ids collide would share cache
// entries, which is the cache-poisoning hole the fingerprint whitelist
// closed.  It must also be restart-stable, because persisted fingerprints
// embed it verbatim.  A portable, unkeyed BLAKE2b with a 32-byte output
// is both, and costs one pass over the graph's 8-byte-per-edge array.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace lapx::service {

/// Incremental unkeyed BLAKE2b with a 32-byte digest: update() any number
/// of times, then hex() once.  Hashing pieces gives the digest of their
/// concatenation.
class Blake2b256 {
 public:
  Blake2b256();
  void update(const void* data, std::size_t bytes);
  /// The digest as 64 lowercase hex digits (the same string as Python's
  /// `hashlib.blake2b(data, digest_size=32).hexdigest()`).  Finalizes:
  /// call it once, after the last update().
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
