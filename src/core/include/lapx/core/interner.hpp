#pragma once
// Hash-consed canonical types: the equality oracle of the library.
//
// Every canonical-type comparison (view types, PN-view types, OI-ball
// types, gathered-knowledge views) used to round-trip through string
// serialization; the interner replaces that with dense 32-bit TypeIds.
// The contract (DESIGN.md, "Canonical types & parallel runtime"):
//
//   interning is the ONLY equality oracle -- two canonical objects are
//   equal iff they intern to the same TypeId in the same interner; the
//   string encodings remain as a debug / serialization view only.
//
// Two interning modes share one table:
//  * intern(bytes): flat canonical encodings (ordered-ball types, colour
//    strings).  Equal byte strings <=> equal TypeId.
//  * intern_node(tag, children): hash consing for trees (view trees,
//    PN views, knowledge trees).  A node's TypeId is a function of its tag
//    and its children's TypeIds, so a whole tree is identified bottom-up
//    without ever serializing it.  Structural keys are length-prefixed and
//    tagged, so they can never collide with flat text encodings (which are
//    printable) or with each other.
//
// Concurrency (DESIGN.md, "Interner & batched id assignment").  One
// open-addressed table of packed (32-bit hash tag << 32 | id) words, each
// homed by the top bits of its tag.  The HIT path is lock-free, and
// allocation-free once a thread has its node memo (48 KiB, allocated at
// the thread's first node intern).  A node of at most 6 children probes
// that per-thread direct-mapped memo first, keyed by value -- (interner
// serial, tag, child count, child ids) -> id -- so a repeated intern
// frames, hashes and compares no bytes.  Every other key, and a memo
// miss, probes the table with atomic loads (a node key framed on the
// stack first, up to 62 children); a tag match is confirmed byte for
// byte against the stored spelling, so a hash collision can never alias
// two types.  The memo keys on a serial that each interner takes from a
// process-wide counter and that is never reused, so an entry can only
// ever answer for the interner that filled it.  Only a MISS takes the one
// mutex, under which ids are handed out densely in insertion order, the
// spelling is appended to the byte arena and the slot is published -- ids
// depend only on the order intern calls commit; the memo assigns none.
//
// Code that needs a deterministic id order must still intern serially.
// Parallel consumers either compare ids for equality only (order-free), or
// use the two-phase batch pattern the refinement engine runs: workers
// resolve hits with try_intern_node (lock-free, never inserts), recording
// unresolved keys per index slot, and a serial pass then walks the misses
// in canonical order and interns them -- so the serial section covers
// novel types only, not every intern.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lapx::core {

/// Dense identifier of an interned canonical type.
using TypeId = std::uint32_t;

/// Sentinel: no type.  Never assigned to a key (intern throws first), so
/// try_intern can use it as its miss value.
inline constexpr TypeId kNoType = 0xFFFFFFFFu;

class TypeInterner {
 public:
  TypeInterner();
  ~TypeInterner();
  TypeInterner(const TypeInterner&) = delete;
  TypeInterner& operator=(const TypeInterner&) = delete;

  /// Interns a flat canonical encoding; equal bytes <=> equal id.
  TypeId intern(std::string_view key);

  /// Hash-conses a tree node from its tag and its children's ids.
  TypeId intern_node(std::uint64_t tag, const TypeId* children,
                     std::size_t n);
  TypeId intern_node(std::uint64_t tag,
                     std::initializer_list<TypeId> children) {
    return intern_node(tag, children.begin(), children.size());
  }

  /// Lock-free lookup-only probes: the id if the key is already interned,
  /// kNoType otherwise.  Never insert, never lock, and allocate nothing
  /// but the calling thread's node memo on its first node intern -- safe
  /// to call from parallel workers racing concurrent interns (a racing
  /// insert may be missed; the caller re-interns serially).
  TypeId try_intern(std::string_view key) const;
  TypeId try_intern_node(std::uint64_t tag, const TypeId* children,
                         std::size_t n) const;

  /// The interned key bytes (debug view; structural keys are binary).
  /// Lock-free: ids are published after their spelling is written.  The
  /// view stays valid for the interner's life, across later inserts.
  std::string_view spelling(TypeId id) const;

  /// Number of distinct types interned so far (atomic, no lock).
  std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }

  /// The process-wide default interner.
  static TypeInterner& global();

 private:
  struct Table;

  // Spelling storage.  Each spelling is a record -- its length as a
  // 4-byte integer, then its bytes -- appended to an arena of kChunkBytes
  // chunks; a record longer than a chunk gets a chunk of its own.  Chunks
  // never move and are freed only with the interner, so a spelling's view
  // stays valid.  Id i's record pointer sits in a geometric slab
  // directory (slab k holds 2^(10+k) pointers), so 23 slabs cover the
  // whole 32-bit id space lock-free.  Slabs and chunks are allocated
  // uninitialised under mu_, so a page costs memory only once ids land on
  // it; readers reach a record only through ids published after it was
  // written.
  static constexpr int kSlabBase = 10;
  static constexpr int kMaxSlabs = 23;
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  // The id of key (whose hash is `hash`) in the table, else kNoType.
  TypeId probe(std::uint64_t hash, std::string_view key) const;
  TypeId insert(std::uint64_t hash, std::string_view key);
  // Writes key's record into the arena (under mu_) and returns it.
  const char* append_record(std::string_view key);
  std::string_view spelling_at(TypeId id) const;

  // Owner key of this interner's per-thread node memo entries: unique per
  // instance for the life of the process.
  const std::uint64_t serial_;
  // mu_ serializes every insert: the re-probe, id assignment, the
  // record write, growth and the slot publish.
  std::mutex mu_;
  std::atomic<Table*> table_{nullptr};
  // Current + retired tables, guarded by mu_.  Grown tables are never
  // freed while the interner lives: a lock-free reader may still be
  // probing a retired array, and keeping them costs at most 2x the live
  // table (geometric growth).
  std::vector<std::unique_ptr<Table>> tables_;
  TypeId next_id_ = 0;  // guarded by mu_
  std::atomic<std::size_t> size_{0};
  // The arena's chunks and the open chunk's free range, guarded by mu_.
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* chunk_free_ = nullptr;
  char* chunk_end_ = nullptr;
  std::atomic<const char**> slabs_[kMaxSlabs] = {};
};

/// The classes of equal ids in a sequence: how many, and the largest.
struct ClassCounts {
  std::size_t distinct = 0;
  std::size_t largest = 0;
};

/// Counts the classes of `ids` (none of them kNoType) in one pass over a
/// flat open-addressed table: O(n), no sort and no per-class node.
ClassCounts count_classes(std::span<const TypeId> ids);

// Node-tag namespaces for intern_node, one per canonical tree domain.
// Layout: top byte = kind, low bytes = payload.
namespace type_tag {
inline constexpr std::uint64_t kind(std::uint64_t k) { return k << 56; }
inline constexpr std::uint64_t kViewNode = kind(1);  ///< children list
inline constexpr std::uint64_t kViewEdge = kind(2);  ///< payload: move
inline constexpr std::uint64_t kViewRoot = kind(3);  ///< payload: radius
inline constexpr std::uint64_t kPnNode = kind(4);
inline constexpr std::uint64_t kPnEdge = kind(5);  ///< payload: port pair
inline constexpr std::uint64_t kPnRoot = kind(6);  ///< payload: radius
}  // namespace type_tag

}  // namespace lapx::core
