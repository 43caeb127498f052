#pragma once
// Crash-safe persistence for the result cache: a versioned binary
// snapshot plus an append-only journal of cache fills.
//
// Cache keys are TypeIds, and TypeIds are process-local (dense in
// interner insertion order), so a key's numeric value means nothing to
// the next process.  Its *spelling* does: a query fingerprint embeds the
// graph's content id, a digest of the graph's edge array
// (GraphEntry::content_id), so protocol.cpp spells the same request
// against the same graph identically in every process.  The on-disk
// records therefore store each fill as (fingerprint spelling, payload
// bytes), both verbatim, and loading interns the spelling into the LIVE
// interner -- yielding exactly the TypeId the protocol layer computes for
// that request after the graph is re-uploaded.  Payload bytes are never
// reparsed, so a warm-restart hit replays the cold computation's exact
// bytes and responses stay byte-identical across restarts.
//
// File layout under the cache dir (both files share one record framing):
//
//   snapshot.lapxc   "LAPXC004" magic, then records.  Rewritten as a
//                    whole via write-to-temp + fsync + rename, so a
//                    crash mid-save leaves the previous snapshot intact.
//   journal.lapxj    "LAPXJ004" magic, then records appended on every
//                    first-writer-wins cache fill (one write() each).
//
//   record  := u32le body_len | u8 type | body | u32le crc32(type+body)
//   'E' body := u32le key_len | fingerprint spelling | payload
//
// A directory written in an older format fails the magic check and loads
// cold, like any unreadable store.
//
// Replay invariants:
//   * a truncated tail (kill -9 mid-append, torn write) is detected by
//     framing or checksum, DISCARDED, and reported -- never a crash, and
//     every record before the tear is kept;
//   * after a load that discarded a journal tail, the journal is
//     truncated back to its valid prefix so new appends extend good data;
//   * replayed fills go through ResultCache::put, whose first-writer-wins
//     rule also makes duplicate records (snapshot + journal overlap)
//     harmless.
//
// Concurrency: append_fill is called from scheduler executors; a single
// mutex serializes appends and snapshots.  One writer per directory --
// two daemons sharing a cache dir would interleave journals (documented,
// not locked against).

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "lapx/core/interner.hpp"

namespace lapx::service {

class CachePersist {
 public:
  /// Load/append/save counters plus the last error, for `cache_info`.
  struct Info {
    std::string dir;
    std::uint64_t loaded_entries = 0;   ///< entries replayed into the cache
    std::uint64_t discarded_bytes = 0;  ///< torn/corrupt tail bytes dropped
    std::uint64_t dropped_records = 0;  ///< well-framed but unusable records
    std::uint64_t journal_appends = 0;  ///< fills journaled by this process
    std::uint64_t snapshots_written = 0;
    std::string last_error;  ///< empty = every operation so far was clean
  };

  /// Opens (creating if needed) the cache directory.  Throws
  /// std::runtime_error when the directory cannot be created or probed --
  /// a daemon asked to persist somewhere unwritable should fail loudly
  /// at startup, not silently forget results.
  explicit CachePersist(
      std::string dir,
      core::TypeInterner& interner = core::TypeInterner::global());
  ~CachePersist();

  CachePersist(const CachePersist&) = delete;
  CachePersist& operator=(const CachePersist&) = delete;

  /// Replays snapshot then journal; returns (fingerprint, payload) pairs
  /// oldest-first, spellings freshly interned.  Never throws on file
  /// content: torn tails and corrupt records are discarded and surfaced
  /// through info().  Also repairs the journal (truncates a bad tail) so
  /// subsequent appends extend a valid prefix.
  std::vector<std::pair<core::TypeId, std::string>> load();

  /// Journals one cache fill, keyed by the fingerprint's spelling in the
  /// interner (thread-safe, one write() per record).  Write failures flip
  /// the journal into an error state surfaced by info(); they never throw
  /// into the executor.
  void append_fill(core::TypeId fingerprint, const std::string& payload);

  /// Atomically rewrites the snapshot from `entries` (oldest-first) and
  /// truncates the journal.  Returns false (with info().last_error set)
  /// on I/O failure; the previous snapshot survives any failure.
  bool save_snapshot(
      const std::vector<std::pair<core::TypeId, std::string>>& entries);

  Info info() const;

  std::string snapshot_path() const;
  std::string journal_path() const;

 private:
  // The framed 'E' record of one fill.
  std::string entry_record(core::TypeId fingerprint,
                           const std::string& payload) const;
  void replay_file_locked(
      const std::string& path, const char* magic, bool repair_tail,
      std::vector<std::pair<core::TypeId, std::string>>& entries);
  bool write_journal_locked(const std::string& bytes);
  void note_error_locked(const std::string& what);

  std::string dir_;
  core::TypeInterner& interner_;
  mutable std::mutex mu_;
  int journal_fd_ = -1;
  bool journal_bad_ = false;  ///< a write failed; stop appending
  Info info_;
};

}  // namespace lapx::service
