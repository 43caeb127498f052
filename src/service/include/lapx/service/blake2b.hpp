#pragma once
// BLAKE2b-256 (RFC 7693): the content identity of an in-memory graph.
//
// The result cache is content-addressed, so the identity must be
// collision-resistant -- two graphs whose ids collide would share cache
// entries, which is the cache-poisoning hole the fingerprint whitelist
// closed.  It must also be restart-stable, because persisted fingerprints
// embed it verbatim.  A portable, unkeyed BLAKE2b with a 32-byte output
// is both, and costs about one pass over the edge-list text.

#include <string>
#include <string_view>

namespace lapx::service {

/// Unkeyed BLAKE2b with a 32-byte digest of `bytes`, as 64 lowercase hex
/// digits (the same string as Python's
/// `hashlib.blake2b(bytes, digest_size=32).hexdigest()`).
std::string blake2b_256_hex(std::string_view bytes);

}  // namespace lapx::service
