#pragma once
// Session graph store: named graphs and their shared derived artifacts.
//
// A resident service answers many queries against the same instances, so
// graphs live here once, together with the expensive artifacts derived
// from them, each built on first use: the default port-numbered
// L-digraph, the whole-graph RefineState that `views` and the PO
// algorithms of `run` classify vertices with, and one
// order::OrderedBallClasses per radius that `homogeneity` has asked for
// (anything a future request type needs can join GraphEntry).  Entries
// are handed out as shared_ptr<const GraphEntry>:
// the shared_ptr count IS the reference count, so eviction, replacement,
// or mutation never invalidates an in-flight request -- the superseded
// entry simply dies when its last request drops it, and the store drops
// its own references only after releasing its mutex, so freeing an
// epoch's artifacts never stalls another session's get().
//
// Epochs: a name is a *session* whose graph evolves.  Every binding
// carries an epoch counter -- 1 for a fresh put, previous + 1 when a put
// overwrites or a mutate edits the bound graph.  An in-flight query pins
// its epoch (it holds the entry shared_ptr it resolved); mutation
// installs the next epoch without changing what the old one answers.
// `content_hex` is the first 16 hex digits of the content id -- it never
// depends on process history, so it is safe to surface in deterministic
// responses.
//
// Mutation: `mutate` derives the next epoch from the bound one in one
// constructor, GraphEntry(prev, edits), and installs it.  The constructor
// applies the batch to a copy of prev's graph (atomic: a bad edit throws
// graph::MutationError before anything is taken from prev, and the
// binding stays untouched) and patches prev's content digest at the
// leaves the edit rewrote (ContentDigest).  If prev had a materialized
// RefineState, it patches prev's L-digraph at the edit and derives its
// state from prev's, seeded from the edit's frontier and re-refining only
// where types move (core::RefineState's derivation), instead of
// rebuilding either over the whole graph.  Likewise every radius of
// ordered-ball classes prev holds is taken over and re-typed on the
// edit's ball frontier only (graph::ball_frontier); a radius whose
// frontier spans every vertex is dropped instead, so the derivation never
// costs more than the from-scratch pass a later query pays.  All of it
// runs before the entry exists for any other thread.
//
// Epoch hand-over: the superseded epoch keeps its Graph and L-digraph,
// which queries read without a lock, but gives up its refinement and its
// ordered-ball classes -- the next epoch takes both over (moved out under
// the old entry's locks) and edits them in place, so a write that keeps
// every degree copies no O(n) table.  A query still pinned to the
// superseded epoch rebuilds what it asks for on first use, through the
// same lazy paths a fresh entry takes: the same response bytes, only
// slower.  The content digest is small (32 bytes per 1 024 edges), so it
// is copied, not taken.
//
// Eviction: the store holds at most `max_graphs` named entries; inserting
// beyond that evicts the least-recently-used name.  `content_id` is the
// Merkle digest of the graph's edge array (graph_content_id) -- the
// result cache keys on it, so two names bound to identical graphs share
// cache entries, re-uploading identical content keeps the cache warm, and
// the id is the same in every process.  It never enters the interner.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lapx/core/interner.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/graph/digraph.hpp"
#include "lapx/graph/graph.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/service/blake2b.hpp"
#include "lapx/service/protocol.hpp"

namespace lapx::service {

/// An in-memory graph's content identity, kept per leaf: the two-level
/// Merkle tree blake2b.hpp defines, over the edge array in leaves of
/// kLeafEdges ids.  An epoch keeps its digest (32 bytes per leaf) so the
/// next one, an edit of it, re-hashes only the leaves the edit rewrote,
/// plus the root.
class ContentDigest {
 public:
  static constexpr std::size_t kLeafEdges = 1024;

  ContentDigest() = default;  // no graph (an out-of-core entry's)

  /// Hashes every leaf of g, then the root.
  explicit ContentDigest(const graph::Graph& g);

  /// The digest of g, which an edit batch made from the graph `parent`
  /// digests; `rewritten` is what graph::apply_edits returned for that
  /// batch.  Re-hashes only the leaves holding a rewritten id below
  /// g.num_edges(), then the root: equal to ContentDigest(g).
  ContentDigest(const ContentDigest& parent, const graph::Graph& g,
                std::span<const graph::EdgeId> rewritten);

  /// The root as 64 lowercase hex digits (empty without a graph).
  const std::string& id() const { return id_; }

 private:
  void hash_leaf(const graph::Graph& g, std::size_t k);
  void hash_root(const graph::Graph& g);

  std::vector<Blake2b256::Digest> leaves_;
  std::string id_;
};

/// An in-memory graph's content identity, ContentDigest(g).id(): 64
/// lowercase hex digits.  Edge ids and endpoint order fix it, so equal
/// graphs (Graph::operator==) get equal ids.
std::string graph_content_id(const graph::Graph& g);

/// A stored graph plus lazily-derived shared artifacts.  One epoch of a
/// session: the next epoch's constructor never edits this one's graph,
/// but takes over its refinement and ordered-ball classes (the epoch
/// hand-over above), which this entry then rebuilds on demand.
///
/// Two backings share the interface: in-memory (put/generate/upload) and
/// out-of-core (open_ooc) -- the latter keeps the graph in its mmap'd
/// LAPXOOC1 file, which holds only the graph's step CSR, streams
/// view-type refinement over that CSR (the page cache keeps what stays
/// resident), and only materializes an in-RAM Graph/LDigraph from its
/// out-steps when a handler demands the full adjacency AND the instance is
/// under the materialization cap (else kTooLarge).
class GraphEntry {
 public:
  /// In-memory backing; the content id is graph_content_id(g).
  GraphEntry(graph::Graph g, std::uint64_t epoch);

  /// The next epoch of `prev` (Mutation, above).  In order: copies
  /// prev's graph, applies `edits` (graph::apply_edits), patches prev's
  /// content digest at the leaves the batch rewrote, sets the epoch to
  /// prev.epoch() + 1, and takes over prev's refinement -- patching prev's
  /// L-digraph at the edit (graph::to_ldigraph's patching overload) and
  /// deriving inside prev's buffers, with signatures compared only on
  /// graph::affected_frontier(graph(), edits, 1) -- and its ordered-ball
  /// classes, re-typed on graph::ball_frontier(graph(), edits, r) or
  /// dropped when that is every vertex.  Throws graph::MutationError,
  /// with nothing taken from prev, for a bad batch or an out-of-core prev.
  GraphEntry(const GraphEntry& prev, std::span<const graph::EdgeEdit> edits);

  /// Out-of-core backing.  The content id is "ooc:" + the BLAKE2b-256 of
  /// the file's payload bytes (64 hex digits) -- stable across processes,
  /// so persisted cache entries stay addressable while the file's bytes
  /// do (the payload is the whole step CSR, so a file rewritten in
  /// another format version is new content), and collision-resistant like
  /// graph_content_id.  The prefix keeps it apart from every in-memory id.
  GraphEntry(std::unique_ptr<graph::OocGraph> ooc, std::uint64_t epoch,
             graph::Vertex materialize_max_vertices);

  bool is_ooc() const { return ooc_ != nullptr; }
  const graph::OocGraph* ooc() const { return ooc_.get(); }

  /// Cheap shape accessors that never materialize: summaries and the
  /// views handler use these so huge ooc graphs stay on disk.
  graph::Vertex num_vertices() const;
  std::size_t num_edges() const;
  graph::Label alphabet() const;

  /// The full adjacency.  Ooc backing: lazily materialized from the file;
  /// throws ServiceError(kTooLarge) above the materialization cap.
  const graph::Graph& graph() const;

  /// The content identity query fingerprints embed: graph_content_id of
  /// the graph, or "ooc:" + the payload digest for an out-of-core entry.
  /// Equal for equal graphs in any process.
  const std::string& content_id() const { return content_id_; }

  /// 1 for a fresh binding; previous + 1 after each overwrite or mutate.
  std::uint64_t epoch() const { return epoch_; }

  /// The first 16 hex digits of the digest in content_id (after "ooc:"
  /// for an out-of-core entry).  Stable across processes and executor
  /// counts (raw interner ids are not).
  const std::string& content_hex() const { return content_hex_; }

  /// The default port-numbered L-digraph (PO substrate), built on first
  /// use and shared by every subsequent request touching this entry.
  const graph::LDigraph& ldigraph() const;

  /// Radius-r view types of every vertex against the global interner --
  /// identical ids to core::bulk_view_type_ids(ldigraph(), r), whether the
  /// state was built here, derived by mutate, or streams an ooc file.
  /// `views` and the PO algorithms of `run` share it: built on first use
  /// by either, kept (with per-round tables) for deeper radii and for the
  /// next epoch to derive from.
  std::vector<core::TypeId> view_types(int r) const;

  /// True when the refinement state has been materialized (stats, and
  /// whether the next epoch derives its own from it).  False again on an
  /// epoch a mutate superseded, until a query rebuilds it.
  bool has_refine_state() const;

  /// The radius-r homogeneity of the graph under the identity order --
  /// equal to order::measure_homogeneity(graph(), identity_keys(n), r) --
  /// read from the entry's radius-r OrderedBallClasses, built on first use
  /// or taken over from the previous epoch.  Ooc backing: materializes
  /// graph() first (kTooLarge above the cap).  Throws
  /// std::invalid_argument for r < 0.
  order::HomogeneityReport homogeneity(int r) const;

 private:
  graph::Graph graph_;  // empty for ooc entries until materialized
  // Declared before refine_ (destroyed after it): the streaming
  // RefineState holds spans into the mapped file.
  std::unique_ptr<graph::OocGraph> ooc_;
  graph::Vertex materialize_max_ = 0;
  ContentDigest digest_;  // in-memory backing only
  std::string content_id_;
  std::uint64_t epoch_;
  std::string content_hex_;
  mutable std::once_flag ld_once_;
  mutable std::unique_ptr<graph::LDigraph> ld_;
  mutable std::once_flag graph_once_;
  mutable std::unique_ptr<graph::Graph> mat_graph_;  // ooc materialization
  mutable std::mutex refine_mu_;
  mutable std::unique_ptr<core::RefineState> refine_;
  mutable std::mutex homogeneity_mu_;
  mutable std::map<int, order::OrderedBallClasses> homogeneity_;  // by radius
  // Held by SessionStore::mutate while it derives the next epoch from
  // this one: mutations of one session serialize, other sessions' run
  // concurrently.
  mutable std::mutex mutate_mu_;
  friend class SessionStore;
};

class SessionStore {
 public:
  struct Options {
    std::size_t max_graphs = 64;
    /// Largest ooc graph graph()/ldigraph() will materialize in RAM;
    /// larger instances answer adjacency-hungry ops with kTooLarge.
    graph::Vertex ooc_materialize_max_vertices = 1 << 20;
  };
  struct Stats {
    std::uint64_t inserted = 0;
    std::uint64_t evicted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t overwritten = 0;  ///< puts that replaced a live binding
    std::uint64_t mutated = 0;      ///< successful mutate calls
    std::size_t resident = 0;
  };

  SessionStore() : SessionStore(Options{}) {}
  explicit SessionStore(Options opt);

  /// Binds `name` to the graph (replacing any previous binding) and
  /// returns the new entry.  May evict the least-recently-used other name.
  std::shared_ptr<const GraphEntry> put(const std::string& name,
                                        graph::Graph g);

  /// Binds `name` to a LAPXOOC1 file (same epoch/LRU semantics as put).
  /// Throws graph::OocError when the file is missing, not a regular
  /// file, of another format version, or fails validation.
  std::shared_ptr<const GraphEntry> open_ooc(const std::string& name,
                                             const std::string& path);

  /// Looks up a name, refreshing its LRU position; nullptr when absent.
  std::shared_ptr<const GraphEntry> get(const std::string& name);

  /// Installs GraphEntry(bound entry, edits) as the next epoch of `name`.
  /// Returns the new entry, or nullptr when the name is absent.  Throws
  /// graph::MutationError on an invalid edit or an out-of-core binding
  /// (the binding is left untouched).  Mutations of one name are
  /// serialized, so its epochs are strictly increasing; mutations of
  /// different names run concurrently.
  std::shared_ptr<const GraphEntry> mutate(
      const std::string& name, std::span<const graph::EdgeEdit> edits);

  /// Removes a binding; false when the name is absent.
  bool drop(const std::string& name);

  /// Bound names in lexicographic order (deterministic listing).
  std::vector<std::string> names() const;

  Stats stats() const;

 private:
  using Displaced = std::vector<std::shared_ptr<const GraphEntry>>;

  // Binds `name` to `entry` at the next epoch of any live binding.  The
  // references the store gives up (an overwritten binding, LRU victims)
  // move to `out`, which the caller destroys after releasing mu_.
  void bind_locked(const std::string& name,
                   const std::shared_ptr<GraphEntry>& entry, Displaced& out);
  void evict_locked(Displaced& out);

  Options opt_;
  mutable std::mutex mu_;
  // LRU list front = most recent; map values point into the list.
  struct Slot {
    std::string name;
    std::shared_ptr<const GraphEntry> entry;
  };
  std::list<Slot> lru_;
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  Stats stats_;
};

}  // namespace lapx::service
