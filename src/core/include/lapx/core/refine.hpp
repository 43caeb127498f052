#pragma once
// Whole-graph view-type refinement (the universal-cover recurrence).
//
// view_type_id(view(g, v, r)) classifies one vertex by materializing its
// radius-r view tree -- up to 1 + sum 2k(2k-1)^{i-1} nodes.  But the type of
// a subtree rooted at a walk ending in vertex w that arrived via move m and
// has d levels left depends only on (w, m, d): its children are the
// non-backtracking steps of w (every step except m.inverse()), each carrying
// the (w', m', d-1) subtree of its endpoint.  So instead of n independent
// trees we iterate one table:
//
//   state   = arrival (vertex, move); there is exactly one per direction of
//             each arc, 2|A| in total.  A state is indexed by the step it
//             excludes: arrival (w, m) <-> the step (w, m.inverse()).
//   T_0[s]  = the empty node (no levels left): all states equivalent.
//   T_i[s]  = intern_node over the steps of s's vertex except s itself, in
//             (outgoing, label) order, each step j contributing the edge
//             (move_j, T_{i-1}[succ_j]) -- exactly the tuple the legacy
//             intern_subtree builds, so the TypeIds coincide.
//   root_i[v] = kViewRoot|i over ALL steps of v against T_{i-1}.
//
// r rounds of O(n k) interner lookups replace n tree materializations; the
// ViewTree path stays as the debug/witness implementation and the oracle
// refine_test cross-validates against.
//
// The round kernel (DESIGN.md "Round kernel").  T_i[s] depends only on the
// signature of s's vertex and the T_{i-1} values of its neighbours' states,
// so a round recomputes only its ACTIVE vertices; every other span keeps a
// retained value.  Going forward the retained value is T_{i-1} itself (a
// vertex none of whose neighbours changed last round reproduces its tuples
// bitwise) and the next round's active set is the neighbours of the
// vertices that changed; the first round, and every round with all
// vertices active, is the full recurrence.  Deriving the state of an
// edited graph from its parent's is the same rounds 1..r replayed in
// place over the parent's kept tables: the active set starts at the dirty
// (signature-changed) vertices and adds each round the neighbours of any
// vertex whose T_i differs from the parent's, so the frontier stops where
// types stop changing.
//
// Determinism: each round runs the interner's two-phase batch pattern.
// Phase A resolves the active spans' edge nodes, root bodies and state
// tuples with lock-free try_intern_node probes on the parallel pool
// (per-index slots only; kNoType marks a miss).  Phase B walks vertices in
// index order and interns exactly the unresolved tuples: a probe resolves
// only types already present, and a retired span's tuples were interned
// when it was last active, so fresh TypeIds land in the order a fully
// serial pass would produce -- they depend only on the graph (and, for a
// derived state, on the parent), never on LAPX_THREADS.  Phase B calls
// intern_node directly: symmetric regions refine in lockstep, so its novel
// tuples arrive in clusters of duplicates, and every repeat after the
// first resolves from the interner's per-thread memo (by value, with no
// framing, hashing or spelling read, up to 6 children).  The root and
// stability passes deduplicate on the ids themselves (the interner is
// injective on the serialized tuple), via open-addressed id maps sized by
// the ids a round holds, never by the interner.
//
// Refinement is monotone: equal round-i trees truncate to equal round-(i-1)
// trees, so the state partition only ever splits.  When a round leaves the
// number of classes unchanged the partition is stable forever, and later
// rounds intern one tuple per class from a representative.  High-girth and
// Cayley graphs stabilize after ~girth rounds, so deep radii cost
// O(classes * k) per round.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <span>

#include "lapx/core/interner.hpp"
#include "lapx/core/view.hpp"
#include "lapx/graph/digraph.hpp"
#include "lapx/graph/ooc.hpp"

namespace lapx::core {

/// Persistent whole-graph view typing: advances radius by radius, keeping
/// the root types of every radius computed so far, and (with keep_rounds)
/// every round's edge-state table, from which a state for an edited graph
/// is derived (session epochs derive each successor from their own state).
class RefineState {
 public:
  /// What one derivation did (instrumentation; not part of any
  /// deterministic response -- frontier sizes depend on the computed
  /// radius, which depends on query history).
  struct DeltaStats {
    std::size_t dirty_vertices = 0;  ///< signature-changed seed set
    /// Active set of the last replayed round (0 when none replays).
    std::size_t frontier_vertices = 0;
    std::size_t total_vertices = 0;
    int rounds = 0;  ///< rounds replayed (the parent's radius)
  };

  explicit RefineState(const LDigraph& g,
                       TypeInterner& interner = TypeInterner::global(),
                       bool keep_rounds = false);

  /// Streaming mode: rounds iterate the ooc file's mmap'd step segments
  /// instead of an in-RAM graph::StepCsr -- the graph never materializes,
  /// and the kernel's page cache decides which file pages stay resident
  /// (they are clean, so it reclaims them under pressure).  TypeIds are
  /// identical to the in-memory constructor against the same interner
  /// (the writer persists the StepCsr the in-memory constructor builds,
  /// through the same layout and fill).  Rounds are not kept, so nothing
  /// derives from it; `g` must outlive the state.
  explicit RefineState(const graph::OocGraph& g,
                       TypeInterner& interner = TypeInterner::global());

  /// The one derivation: the state of `g`, an edit of the parent's graph
  /// on the same vertex set, derived inside the parent's own buffers,
  /// which it takes over (`parent` must keep rounds, and the child keeps
  /// them too; `parent` is left empty, to be assigned to or destroyed).
  /// A caller that keeps the parent derives from a copy.  Compares
  /// signatures only at `candidates`: ascending, each once, and a superset
  /// of the vertices whose incident arcs differ between the parent's graph
  /// and `g`.  After an edge edit of a default-port graph,
  /// graph::affected_frontier(g', edits, 1) is one -- every vertex when
  /// the maximum degree moved, since every label moves then -- and
  /// graph::ball_frontier is not.  Clean step spans (incident-arc
  /// signature unchanged), the kept tables, the roots and the edge memo
  /// stay where they are; dirty spans refill from `g`; and rounds
  /// 1..parent.radius() replay through the round kernel against the
  /// parent's tables: round i recomputes the dirty vertices and the
  /// neighbours of every vertex whose round-(i-1) states differ from the
  /// parent's.  So a derivation costs O(edit frontier), unless a degree
  /// changed, which moves offsets and lays the tables out again in O(n).
  /// types_at(r) for every r <= parent.radius() then equals
  /// RefineState(g).types_at(r) -- identical TypeIds, same interner.
  /// Never reads the parent's graph, so it may already be gone.  Throws,
  /// leaving `parent` as it was: std::logic_error when the parent keeps
  /// no rounds, std::invalid_argument when `g` has another vertex count.
  RefineState(RefineState&& parent, const LDigraph& g,
              std::span<const Vertex> candidates, DeltaStats* stats = nullptr);

  /// types[v] == view_type_id(view(g, v, radius)) for every vertex v.
  /// Advances the refinement as needed; earlier radii stay cached.
  const std::vector<TypeId>& types_at(int radius);

  /// Number of distinct radius-`radius` root types (advances as needed;
  /// counts the classes of types_at(radius) on every call, O(n)).
  std::size_t distinct_at(int radius);

  /// Largest radius computed so far (-1 before the first types_at call).
  int radius() const { return static_cast<int>(roots_.size()) - 1; }

  /// Current number of edge-state classes (bench/debug instrumentation).
  std::size_t state_classes() const { return state_distinct_; }

  /// True once the state partition stopped splitting.
  bool stable() const { return states_stable_; }

  /// True when per-round tables are retained, i.e. a state may derive
  /// from this one.
  bool keeps_rounds() const { return keep_rounds_; }

  /// In place, comparing every vertex's signature: *this derives itself
  /// (the derivation above, candidates 0..n-1) and reports the stats.
  DeltaStats refine_delta(const LDigraph& g);

 private:
  friend struct RefineTestPeer;

  // Open-addressed TypeId -> u32 map for the rounds' bookkeeping.  Sized
  // by the keys it holds -- a daemon's interner only ever grows, so
  // nothing here may scale with interner.size().  A slot is live iff its
  // stamp equals the map's, so clear() is O(1); capacity doubles from 64
  // at half load; a copy carries only the live entries.
  class IdMap {
   public:
    IdMap() = default;
    IdMap(const IdMap& other);
    IdMap& operator=(const IdMap& other);
    IdMap(IdMap&&) noexcept = default;
    IdMap& operator=(IdMap&&) noexcept = default;

    std::size_t size() const { return size_; }
    void clear();
    std::uint32_t* find(TypeId key);  // nullptr when absent
    // The value slot of `key`, inserting `value` first when absent; the
    // pointer stays valid until the next insert.
    std::pair<std::uint32_t*, bool> try_emplace(TypeId key,
                                                std::uint32_t value);
    void erase(TypeId key);  // `key` must be present

   private:
    struct Slot {
      TypeId key;
      std::uint32_t value;
      std::uint32_t stamp;  // live iff == stamp_; 0 is never live
    };
    std::size_t home(TypeId key) const;
    // Re-places the live entries of `from` into `capacity` (a power of
    // two above twice their count) fresh slots.
    void assign_live(const IdMap& from, std::size_t capacity);
    [[gnu::noinline]] void grow();  // keeps try_emplace's hot path small

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;  // capacity - 1 (0 while unallocated)
    int shift_ = 64;        // 64 - log2(capacity): home() keeps the top bits
    std::uint32_t stamp_ = 1;
    std::size_t size_ = 0;
  };

  // A derivation's parent, checked before anything moves out of it.
  static RefineState&& derivable(RefineState&& parent, const LDigraph& g);
  void init_round0();  // start at radius 0 (every constructor)
  void advance();      // one forward round: radius() + 1
  // The round kernel: rewrites the active spans of `out` (T_radius) from
  // `in` (T_{radius-1}) and their roots in `roots`, and lists in changed_
  // the active vertices whose span differs from the kept values
  // base[base_off[x] + k] (kNone: none kept), x being the vertex in a
  // forward round and its rank in the active set in a replay.  A forward
  // round types every root; a replay (a derivation) types only the active
  // roots.
  void run_round(int radius, const TypeId* in, TypeId* out, const TypeId* base,
                 std::span<const std::uint32_t> base_off,
                 std::vector<TypeId>& roots, bool replay);
  // The next round's active set: `seed` plus the neighbours of changed_.
  void schedule(std::span<const std::uint32_t> seed);
  // A derivation whose edit moved offsets: lays steps_ out for g and moves
  // every table's spans there, except those of `relaid` (ascending), which
  // the caller refills.
  void relay(const LDigraph& g, std::span<const std::uint32_t> relaid);
  // f(v) for every active vertex v, in ascending order.
  template <typename F>
  void for_active(const F& f) const;

  // The step CSR the rounds iterate: steps_, or (in streaming mode) the
  // ooc file's mmap'd segments.  advance() takes these spans as locals, so
  // both modes share one code path.
  std::span<const std::uint32_t> off_span() const {
    return ooc_ ? ooc_->step_off() : std::span<const std::uint32_t>(steps_.off);
  }
  std::span<const std::uint32_t> succ_span() const {
    return ooc_ ? ooc_->step_succ()
                : std::span<const std::uint32_t>(steps_.succ);
  }
  std::span<const std::uint32_t> nbr_span() const {
    return ooc_ ? ooc_->step_nbr() : std::span<const std::uint32_t>(steps_.nbr);
  }
  std::span<const std::uint32_t> move_span() const {
    return ooc_ ? ooc_->step_move_bits()
                : std::span<const std::uint32_t>(steps_.move_bits);
  }

  const graph::OocGraph* ooc_ = nullptr;  // streaming mode; else nullptr
  graph::Vertex n_ = 0;                   // vertex count of the bound graph
  TypeInterner* interner_;
  bool keep_rounds_ = false;

  // The non-backtracking steps of the graph (empty in streaming mode).
  graph::StepCsr steps_;

  // State types of the previous / current round (indexed by step), when
  // rounds are not kept; a state that keeps them reads the last kept
  // table and writes the next.  t_cur_ is sized by the first advance().
  std::vector<TypeId> t_prev_, t_cur_;
  // Phase A scratch: this round's edge-node id per step, resolved lock-free
  // (kNoType where the probe missed; Phase B interns those serially).
  std::vector<TypeId> edge_ids_;
  // Edge memo: when edge_ids_[j] != kNoType it is the id of the node
  // (step j's edge tag, edge_sub_[j]).  TypeIds are permanent, so the pair
  // stays valid across rounds; Phase A re-probes step j only when the
  // successor state differs from edge_sub_[j].  init_round0 starts the
  // memo at kNoType.
  std::vector<TypeId> edge_sub_;

  // Sized when first labelled (a forward round that finds the partition
  // stable), so a derived state carries none until it advances.
  std::vector<std::uint32_t> state_class_;  // stable partition labels
  std::vector<std::uint32_t> state_rep_;    // representative step per class
  std::size_t state_distinct_ = 0;
  bool states_stable_ = false;

  std::vector<std::uint32_t> root_class_;  // stable root partition labels
  std::vector<std::uint32_t> root_rep_;    // representative vertex per class
  bool roots_stable_ = false;

  std::vector<std::vector<TypeId>> roots_;  // per radius, per vertex

  // Only with keep_rounds: round_states_[i][s] = T_i[s], i = 0..radius().
  std::vector<std::vector<TypeId>> round_states_;

  // Round scheduling.  active_ lists the next round's vertices in
  // ascending order unless all_active_, which holds while the tracking is
  // unseeded (round 1, after a derivation) and once the partition is
  // stable.  all_active_only_ keeps every round all-active: the dense
  // reference the retirement is checked against (RefineTestPeer).
  std::vector<std::uint32_t> active_;
  std::vector<std::uint64_t> active_bits_;  // schedule()'s scratch
  std::vector<std::uint32_t> changed_;      // this round's changed vertices
  std::vector<TypeId> root_body_;           // per vertex: root tuple body id
  // A derivation's replay rewrites each table in place, so it first copies
  // the active spans' kept values to kept_; kept_off_[k] is where the k-th
  // active vertex's start there (kNone: none kept).
  std::vector<TypeId> kept_;
  std::vector<std::uint32_t> kept_off_;
  bool all_active_ = true;
  bool all_active_only_ = false;

  // Round-local id maps, empty between rounds (so a copy carries nothing
  // of them): the root pass maps each distinct body id to its class, and
  // the stable labelling maps each state id to its class.
  IdMap body_map_;
  IdMap state_map_;
  // Stability detection: the multiset of the current state ids (id ->
  // multiplicity, zero counts erased, so size() is the class count).  A
  // full round recounts it; a partial round patches it at changed steps,
  // O(active) instead of O(steps).  Empty whenever the next round is full.
  IdMap state_count_;
};

/// Test-only peer: while on, every round of `state` runs with all
/// vertices active -- the dense reference that refine_test and the E17b
/// and E20 benches check the retiring rounds against, id for id.
struct RefineTestPeer {
  static void set_all_active(RefineState& state, bool on) {
    state.all_active_only_ = on;
    state.all_active_ = true;  // a full round is always sound
  }
};

/// One-shot convenience: radius-r root types for every vertex.
std::vector<TypeId> bulk_view_type_ids(
    const LDigraph& g, int r, TypeInterner& interner = TypeInterner::global());

/// The type of the complete radius-r view over a k-letter alphabet -- the
/// view of any vertex whose radius-r neighborhood is k-in-k-out regular
/// (Figure 5's (T*, lambda) truncated at r).  O(k r) interner calls;
/// types[v] == complete_view_type_id(k, r) <=> is_complete_view(view(g,v,r)).
TypeId complete_view_type_id(int k, int r,
                             TypeInterner& interner = TypeInterner::global());

}  // namespace lapx::core
