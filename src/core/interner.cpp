#include "lapx/core/interner.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

namespace lapx::core {

namespace {

// Structural keys are framed so they can never collide with flat text
// encodings: a leading '\x01' byte (canonical text encodings are printable)
// followed by the 8-byte tag and the 4-byte child ids, little-endian.  The
// framing is part of the persisted spellings (and the substr-based tests),
// so it never changes.
std::size_t node_key_size(std::size_t n) { return 1 + 8 + 4 * n; }

void frame_node_key(char* out, std::uint64_t tag, const TypeId* children,
                    std::size_t n) {
  *out++ = '\x01';
  for (int b = 0; b < 8; ++b)
    *out++ = static_cast<char>((tag >> (8 * b)) & 0xFF);
  for (std::size_t i = 0; i < n; ++i)
    for (int b = 0; b < 4; ++b)
      *out++ = static_cast<char>((children[i] >> (8 * b)) & 0xFF);
}

// Node keys are framed on the stack up to this many children (257 bytes);
// larger tuples (very-high-degree vertices) fall back to a heap buffer.
constexpr std::size_t kInlineChildren = 62;

inline std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap, and strong enough that the top 32 bits
  // serve as slot tag and home.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash_bytes(const char* p, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ mix64(n + 1);
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = mix64(h ^ w);
    p += 8;
    n -= 8;
  }
  if (n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = mix64(h ^ (w | (static_cast<std::uint64_t>(n) << 56)));
  }
  return h;
}

// Open-addressed slot array: one atomic word per slot packing
// (32-bit hash tag << 32) | id, homed by the top bits of the tag.  Because
// a word carries its own home, growth re-places the old table's words
// directly -- no (hash, id) side list is kept.  Readers probe with acquire
// loads; writers publish with release stores under the interner mutex.
// The all-ones word is the empty sentinel -- unambiguous because id
// kNoType is never assigned.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
constexpr int kInitialBits = 6;  // 64 slots
constexpr int kMaxBits = 32;     // a 32-bit tag homes at most 2^32 slots

// Thread-local direct-mapped node memo in front of the framing: a node of
// at most kMemoChildren children is keyed by value -- (owner serial, tag,
// child count, child ids) -> id -- so a hit frames, hashes and reads
// nothing shared, and compares no spelling.  A (tag, children) -> id
// binding never changes while its interner lives, and serials are never
// reused, so an entry never goes stale.  The memo only remembers ids the
// table handed out; it assigns none.
constexpr std::size_t kMemoChildren = 6;
struct NodeMemoEntry {
  std::uint64_t serial;  // 0: empty (serials start at 1)
  std::uint64_t tag;
  std::uint32_t n;
  TypeId id;
  TypeId children[kMemoChildren];

  bool matches(std::uint64_t s, std::uint64_t t, const TypeId* ch,
               std::size_t len) const {
    return serial == s && tag == t && n == len &&
           std::equal(ch, ch + len, children);
  }
  void assign(std::uint64_t s, std::uint64_t t, const TypeId* ch,
              std::size_t len, TypeId got) {
    serial = s;
    tag = t;
    n = static_cast<std::uint32_t>(len);
    id = got;
    std::copy(ch, ch + len, children);
  }
};
static_assert(sizeof(NodeMemoEntry) == 48);
constexpr int kNodeMemoBits = 10;  // 2^10 x 48 B = 48 KiB per thread

// This thread's memo, zeroed, allocated at its first node intern and
// freed at its exit.  Not a static thread_local array: a thread's whole
// static TLS block is zeroed when the thread is created, so the array
// would cost every thread its page faults, interning or not -- and lapxd
// starts one per connection.
NodeMemoEntry* thread_node_memo() {
  thread_local NodeMemoEntry* memo = nullptr;
  if (memo == nullptr) [[unlikely]] {
    thread_local std::unique_ptr<NodeMemoEntry[]> owner(
        new NodeMemoEntry[std::size_t{1} << kNodeMemoBits]());
    memo = owner.get();
  }
  return memo;
}

// The memo slot of a node key, nullptr when it has too many children.
// A multiply-xor chain over tag, count and children; the top bits index.
NodeMemoEntry* node_memo_slot(std::uint64_t tag, const TypeId* children,
                              std::size_t n) {
  if (n > kMemoChildren) return nullptr;
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = (tag ^ n) * kMul;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ children[i]) * kMul;
  return &thread_node_memo()[h >> (64 - kNodeMemoBits)];
}

// Frames a node key (on the stack up to kInlineChildren children) and
// returns f(key).
template <typename F>
TypeId with_node_key(std::uint64_t tag, const TypeId* children,
                     std::size_t n, const F& f) {
  char stack[node_key_size(kInlineChildren)];
  std::string heap;
  char* buf = stack;
  if (n > kInlineChildren) {
    heap.resize(node_key_size(n));
    buf = heap.data();
  }
  frame_node_key(buf, tag, children, n);
  return f(std::string_view(buf, node_key_size(n)));
}

// Where id's record pointer sits in the geometric slab directory: slab k
// holds the 2^(base+k) ids from (2^k - 1) * 2^base on.
struct SlabPos {
  int slab;
  std::size_t index;
};
SlabPos slab_pos(TypeId id, int base) {
  const std::uint64_t bucket = (std::uint64_t{id} >> base) + 1;
  const int k = 63 - std::countl_zero(bucket);
  const std::uint64_t start = ((std::uint64_t{1} << k) - 1) << base;
  return {k, static_cast<std::size_t>(id - start)};
}

// Interner serials: one per instance, never reused (0 marks an empty
// memo slot).
std::atomic<std::uint64_t> g_next_serial{1};

}  // namespace

struct TypeInterner::Table {
  explicit Table(int bits)
      : mask((std::size_t{1} << bits) - 1),
        shift(kMaxBits - bits),
        slots(new std::atomic<std::uint64_t>[mask + 1]) {
    for (std::size_t i = 0; i <= mask; ++i)
      slots[i].store(kEmptySlot, std::memory_order_relaxed);
  }

  // The id stored under `tag` whose spelling equals key, else kNoType.
  TypeId find(const TypeInterner& in, std::uint64_t tag,
              std::string_view key) const {
    for (std::size_t idx = tag >> shift;; idx = (idx + 1) & mask) {
      const std::uint64_t slot = slots[idx].load(std::memory_order_acquire);
      if (slot == kEmptySlot) return kNoType;
      if ((slot >> 32) != tag) continue;
      const auto id = static_cast<TypeId>(slot);
      if (in.spelling_at(id) == key) return id;
    }
  }

  // Stores a (tag << 32 | id) word in the first free slot from its home.
  void place(std::uint64_t word) {
    std::size_t idx = (word >> 32) >> shift;
    while (slots[idx].load(std::memory_order_relaxed) != kEmptySlot)
      idx = (idx + 1) & mask;
    slots[idx].store(word, std::memory_order_release);
  }

  std::size_t mask;
  int shift;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
};

TypeInterner::TypeInterner()
    : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)) {}

TypeInterner::~TypeInterner() {
  for (int k = 0; k < kMaxSlabs; ++k)
    delete[] slabs_[k].load(std::memory_order_relaxed);
}

std::string_view TypeInterner::spelling_at(TypeId id) const {
  const SlabPos at = slab_pos(id, kSlabBase);
  const char* record =
      slabs_[at.slab].load(std::memory_order_acquire)[at.index];
  std::uint32_t length;
  std::memcpy(&length, record, sizeof length);
  return {record + sizeof length, length};
}

const char* TypeInterner::append_record(std::string_view key) {
  constexpr std::size_t kPrefix = sizeof(std::uint32_t);
  if (key.size() > UINT32_MAX)
    throw std::length_error("TypeInterner: key too long");
  const std::size_t bytes = kPrefix + key.size();
  char* record = nullptr;
  if (bytes > kChunkBytes) {
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    record = chunks_.back().get();
  } else {
    if (bytes > static_cast<std::size_t>(chunk_end_ - chunk_free_)) {
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunkBytes));
      chunk_free_ = chunks_.back().get();
      chunk_end_ = chunk_free_ + kChunkBytes;
    }
    record = chunk_free_;
    chunk_free_ += bytes;
  }
  // key may be another record's view: chunks never move, and this record
  // lies past every record written so far, so the two never overlap.
  const auto length = static_cast<std::uint32_t>(key.size());
  std::memcpy(record, &length, kPrefix);
  std::copy(key.begin(), key.end(), record + kPrefix);
  return record;
}

TypeId TypeInterner::probe(std::uint64_t hash, std::string_view key) const {
  const Table* t = table_.load(std::memory_order_acquire);
  return t == nullptr ? kNoType : t->find(*this, hash >> 32, key);
}

TypeId TypeInterner::insert(std::uint64_t hash, std::string_view key) {
  const std::uint64_t tag = hash >> 32;
  std::lock_guard<std::mutex> lock(mu_);
  // Re-probe under the lock: we may have lost the race to another
  // inserter of the same key (lookup misses are not stable).
  Table* t = table_.load(std::memory_order_relaxed);
  if (t != nullptr) {
    const TypeId hit = t->find(*this, tag, key);
    if (hit != kNoType) return hit;
  }
  const TypeId id = next_id_;
  if (id == kNoType)
    throw std::length_error("TypeInterner: id space exhausted");
  // Grow at 3/4 load, before the id is assigned: the new table is filled
  // before the pointer flips, so lock-free readers see either the old
  // table (and fall back to this path) or the complete new one.
  const std::size_t count = static_cast<std::size_t>(id) + 1;
  if (t == nullptr || count * 4 > (t->mask + 1) * 3) {
    int bits = t == nullptr ? kInitialBits : kMaxBits - t->shift + 1;
    while (count * 4 > (std::size_t{1} << bits) * 3) ++bits;
    if (bits > kMaxBits)
      throw std::length_error("TypeInterner: slot table exhausted");
    auto grown = std::make_unique<Table>(bits);
    if (t != nullptr)
      for (std::size_t i = 0; i <= t->mask; ++i)
        if (const std::uint64_t w = t->slots[i].load(std::memory_order_relaxed);
            w != kEmptySlot)
          grown->place(w);
    t = grown.get();
    tables_.push_back(std::move(grown));
    table_.store(t, std::memory_order_release);
  }
  // The next dense id: write its record and record pointer, then publish
  // the size and the slot, so every reader that reaches the id can read
  // its spelling.
  const SlabPos at = slab_pos(id, kSlabBase);
  const char** slab = slabs_[at.slab].load(std::memory_order_relaxed);
  if (slab == nullptr) {
    // Uninitialised: a pointer is written before its id is published.
    slab = new const char*[std::size_t{1} << (kSlabBase + at.slab)];
    slabs_[at.slab].store(slab, std::memory_order_release);
  }
  slab[at.index] = append_record(key);
  next_id_ = id + 1;
  size_.store(static_cast<std::size_t>(id) + 1, std::memory_order_release);
  t->place((tag << 32) | id);
  return id;
}

TypeId TypeInterner::intern(std::string_view key) {
  const std::uint64_t hash = hash_bytes(key.data(), key.size());
  const TypeId hit = probe(hash, key);
  return hit != kNoType ? hit : insert(hash, key);
}

TypeId TypeInterner::try_intern(std::string_view key) const {
  return probe(hash_bytes(key.data(), key.size()), key);
}

// A node of at most kMemoChildren children tries the node memo first;
// every other key probes the table alone.
TypeId TypeInterner::intern_node(std::uint64_t tag, const TypeId* children,
                                 std::size_t n) {
  NodeMemoEntry* memo = node_memo_slot(tag, children, n);
  if (memo != nullptr && memo->matches(serial_, tag, children, n))
    return memo->id;
  const TypeId id = with_node_key(
      tag, children, n, [&](std::string_view key) { return intern(key); });
  if (memo != nullptr) memo->assign(serial_, tag, children, n, id);
  return id;
}

TypeId TypeInterner::try_intern_node(std::uint64_t tag,
                                     const TypeId* children,
                                     std::size_t n) const {
  NodeMemoEntry* memo = node_memo_slot(tag, children, n);
  if (memo != nullptr && memo->matches(serial_, tag, children, n))
    return memo->id;
  const TypeId id = with_node_key(
      tag, children, n, [&](std::string_view key) { return try_intern(key); });
  if (memo != nullptr && id != kNoType)
    memo->assign(serial_, tag, children, n, id);
  return id;
}

std::string_view TypeInterner::spelling(TypeId id) const {
  if (id >= size_.load(std::memory_order_acquire))
    throw std::out_of_range("TypeInterner::spelling");
  return spelling_at(id);
}

ClassCounts count_classes(std::span<const TypeId> ids) {
  // Slots hold (id, class size), kNoType when empty; at least twice as
  // many slots as ids keep the linear probes short.
  std::size_t size = 16;
  while (size < 2 * ids.size()) size *= 2;
  std::vector<std::pair<TypeId, std::uint32_t>> slots(size, {kNoType, 0});
  const int shift = 64 - std::countr_zero(size);
  ClassCounts counts;
  for (const TypeId id : ids) {
    std::size_t h = std::uint64_t{id} * 0x9e3779b97f4a7c15u >> shift;
    while (slots[h].first != kNoType && slots[h].first != id)
      h = (h + 1) & (size - 1);
    if (slots[h].first == kNoType) {
      slots[h].first = id;
      ++counts.distinct;
    }
    counts.largest = std::max<std::size_t>(counts.largest, ++slots[h].second);
  }
  return counts;
}

TypeInterner& TypeInterner::global() {
  static TypeInterner* interner = new TypeInterner;  // leaked: see parallel.cpp
  return *interner;
}

}  // namespace lapx::core
