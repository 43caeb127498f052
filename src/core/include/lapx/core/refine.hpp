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
// Determinism (DESIGN.md "Sharded interner & batched id assignment"): each
// round runs the interner's two-phase batch pattern.  Phase A resolves the
// round's edge nodes, root bodies, and state tuples with lock-free
// try_intern_node probes on the deterministic parallel pool (per-index
// slots only; kNoType marks a miss).  Phase B walks vertices serially in
// index order and interns exactly the unresolved tuples -- a probe can only
// resolve a type that is already present, so every intern Phase B skips
// would have been a hit, and freshly allocated TypeIds land in the same
// order a fully serial pass would produce: they depend only on the graph,
// never on LAPX_THREADS or LAPX_INTERN_SHARDS.  Round-local deduplication
// rides on the ids themselves (the interner is injective on the serialized
// tuple), via stamped open-addressed id -> class maps sized by the ids a
// round holds, never by the interner.
//
// Refinement is monotone: equal round-i trees truncate to equal round-(i-1)
// trees, so the state partition only ever splits.  When a round leaves the
// number of classes unchanged the partition is stable forever (the next
// partition is a function of the current one), and later rounds intern one
// tuple per class from a representative instead of deduplicating all
// states.  High-girth and Cayley graphs stabilize after ~girth rounds, so
// deep radii cost O(classes * k) per round.
//
// Incremental delta-refinement (DESIGN.md "Delta-refinement"): a state
// constructed with keep_rounds retains every round's state table, and
// refine_delta(g') replays the recurrence after a graph edit touching only
// the radius-i ball around the structurally-changed vertices at round i.
// Soundness rides on locality: T_i[s] is a function of the (move, succ)
// signature of s's vertex and the T_{i-1} values of its neighbors, so a
// vertex whose signature is unchanged and whose distance from every changed
// vertex exceeds i - 1 keeps its exact TypeId.  Identity of the recomputed
// ids with a from-scratch refine is free: intern_node is hash-consed, so
// equal structure means equal id within one interner, and the frontier pass
// runs serially in vertex order, keeping fresh ids thread-count-independent
// just like the rendezvous pass.

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

/// Round scheduling for RefineState::advance.
///
/// kWorklist (the default) adds the active-vertex worklist on top of the
/// rendezvous rounds: a vertex whose in-neighbourhood produced no new state
/// type is RETIRED -- its tuples are bitwise those of the previous round,
/// so its types are re-derived from cached ids without key building or
/// interning -- and it re-enqueues only when a neighbour's state changes.
/// The sparse active set is scheduled with the work-stealing worklist
/// (runtime/worklist.hpp).  kLegacy keeps the seed behaviour: every
/// vertex, every round, dense parallel_for chunks.  Both modes produce
/// IDENTICAL TypeIds in identical allocation order (the retired fast path
/// only skips interner calls that are provably cache hits), which
/// refine_test cross-validates; the toggle exists for that validation and
/// for the E17 scheduling bench.  Initial value comes from
/// LAPX_REFINE_SCHED ("worklist" | "legacy"; default worklist).
enum class RefineSched { kLegacy, kWorklist };
RefineSched refine_scheduling();
void set_refine_scheduling(RefineSched s);

/// Persistent whole-graph view typing: advances radius by radius, keeping
/// the root types of every radius computed so far, and (with keep_rounds)
/// every round's edge-state table so the refinement survives graph edits
/// via refine_delta.  Copyable; a copy forks the state (session epochs
/// clone it, then refine_delta the clone against the mutated graph).
class RefineState {
 public:
  explicit RefineState(const LDigraph& g,
                       TypeInterner& interner = TypeInterner::global(),
                       bool keep_rounds = false);

  /// Streaming mode: rounds iterate the ooc file's mmap'd step segments
  /// instead of in-RAM step arrays -- the graph never materializes, and
  /// every step read goes through the residency manager, so a
  /// budget-capped OocGraph keeps the working set bounded.  TypeIds are
  /// identical to the in-memory constructor against the same interner
  /// (the on-disk step CSR is bit-for-bit what build_steps produces).
  /// Rounds are not kept, so refine_delta is unavailable; `g` must
  /// outlive the state.
  explicit RefineState(const graph::OocGraph& g,
                       TypeInterner& interner = TypeInterner::global());

  /// types[v] == view_type_id(view(g, v, radius)) for every vertex v.
  /// Advances the refinement as needed; earlier radii stay cached.
  const std::vector<TypeId>& types_at(int radius);

  /// Number of distinct radius-`radius` root types (advances as needed).
  std::size_t distinct_at(int radius);

  /// Largest radius computed so far (-1 before the first types_at call).
  int radius() const { return static_cast<int>(roots_.size()) - 1; }

  /// Current number of edge-state classes (bench/debug instrumentation).
  std::size_t state_classes() const { return state_distinct_; }

  /// True once the state partition stopped splitting.
  bool stable() const { return states_stable_; }

  /// True when per-round tables are retained, i.e. refine_delta is legal.
  bool keeps_rounds() const { return keep_rounds_; }

  /// What one refine_delta pass did (instrumentation; not part of any
  /// deterministic response -- frontier sizes depend on the computed
  /// radius, which depends on query history).
  struct DeltaStats {
    std::size_t dirty_vertices = 0;     ///< signature-changed seed set
    std::size_t frontier_vertices = 0;  ///< ball around the seed at the last round
    std::size_t total_vertices = 0;
    int rounds = 0;
    bool full_rebuild = false;  ///< shrunk graph: state rebuilt from scratch
  };

  /// Re-binds the state to `g` (the edited graph) and re-refines only the
  /// edit frontier: round i recomputes the states and roots of vertices
  /// within distance i - 1 of a vertex whose incident-arc signature
  /// changed.  After the call, types_at(r) for every previously computed r
  /// equals what a from-scratch RefineState(g).types_at(r) would return --
  /// identical TypeIds, same interner.  Requires keep_rounds; `g` must
  /// outlive the state (or the next refine_delta).  Vertex ids must be
  /// stable across the edit (append-only growth is fine; shrinking falls
  /// back to a full rebuild).
  DeltaStats refine_delta(const LDigraph& g);

 private:
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

  void build_steps();  // CSR over *g_'s non-backtracking steps
  void fill_vertex_steps(graph::Vertex v);  // one vertex's span of the CSR
  void init_round0();  // shared radius-0 setup for both constructors
  void advance();      // one synchronous round: radius() + 1
  void reset_partitions();  // conservative: next advance() re-deduplicates

  // The step CSR the rounds iterate: the owned vectors below, or (in
  // streaming mode) the ooc file's mmap'd segments.  advance() takes these
  // spans as locals, so both modes share one code path.
  std::span<const std::uint32_t> off_span() const {
    return ooc_ ? ooc_->step_off() : std::span<const std::uint32_t>(step_off_);
  }
  std::span<const std::uint32_t> vertex_span() const {
    return ooc_ ? ooc_->step_vertex()
                : std::span<const std::uint32_t>(step_vertex_);
  }
  std::span<const std::uint32_t> succ_span() const {
    return ooc_ ? ooc_->step_succ()
                : std::span<const std::uint32_t>(step_succ_);
  }
  std::span<const std::uint64_t> tag_span() const {
    return ooc_ ? ooc_->step_edge_tag()
                : std::span<const std::uint64_t>(step_edge_tag_);
  }
  std::span<const std::uint32_t> move_span() const {
    return ooc_ ? ooc_->step_move_bits()
                : std::span<const std::uint32_t>(step_move_bits_);
  }
  void touch_steps(std::uint32_t lo, std::uint32_t hi) const {
    if (ooc_) ooc_->touch_steps(lo, hi);
  }

  const LDigraph* g_ = nullptr;
  const graph::OocGraph* ooc_ = nullptr;  // streaming mode; else nullptr
  graph::Vertex n_ = 0;                   // vertex count of the bound graph
  TypeInterner* interner_;
  bool keep_rounds_ = false;

  // Flattened non-backtracking steps, grouped by vertex, sorted by
  // (outgoing, label) within a vertex: in-arcs (label order) then out-arcs.
  std::vector<std::uint32_t> step_off_;       // per vertex; size n+1
  std::vector<std::uint32_t> step_vertex_;    // owning vertex of each step
  std::vector<std::uint32_t> step_succ_;      // state index the step leads to
  std::vector<std::uint32_t> step_nbr_;       // neighbor vertex of each step
  std::vector<std::uint64_t> step_edge_tag_;  // kViewEdge | move payload
  std::vector<std::uint32_t> step_move_bits_; // outgoing<<31 | label

  // State types of the previous / current round (indexed by step).
  std::vector<TypeId> t_prev_, t_cur_;
  // Phase A scratch: this round's edge-node id per step, resolved lock-free
  // (kNoType where the probe missed; Phase B interns those serially).
  std::vector<TypeId> edge_ids_;
  // Edge memo: when edge_ids_[j] != kNoType it is the id of the node
  // (step_edge_tag_[j], edge_sub_[j]).  TypeIds are permanent, so the pair
  // stays valid across rounds; Phase A re-probes step j only when the
  // successor state differs from edge_sub_[j].  Rebuilds that change what
  // step j means (init_round0, refine_delta) reset the memo to kNoType.
  std::vector<TypeId> edge_sub_;

  // Phase B scratch: round-local dedup of serially interned nodes.  The
  // serial phase pays the interner once per *distinct* (tag, children)
  // key per round; duplicates (symmetric regions refine in lockstep)
  // verify against the arena copy by id compare -- no hash-cons probe, no
  // spelling access.  A dedup hit is provably an interner hit (its first
  // occurrence was interned earlier the same round), so skipping the
  // call cannot perturb id allocation order.
  struct BatchEntry {
    std::uint64_t hash, tag;
    std::uint32_t off, len;
    TypeId id;
  };
  std::vector<BatchEntry> batch_entries_;
  std::vector<TypeId> batch_arena_;        // children of every entry
  std::vector<std::uint32_t> batch_slots_; // open-addressed: entry idx + 1

  std::vector<std::uint32_t> state_class_;  // stable partition labels
  std::vector<std::uint32_t> state_rep_;    // representative step per class
  std::size_t state_distinct_ = 0;
  bool states_stable_ = false;

  std::vector<std::uint32_t> root_class_;  // stable root partition labels
  std::vector<std::uint32_t> root_rep_;    // representative vertex per class
  bool roots_stable_ = false;

  std::vector<std::vector<TypeId>> roots_;  // per radius, per vertex
  std::vector<std::size_t> root_distinct_;  // per radius

  // Only with keep_rounds: round_states_[i][s] = T_i[s], i = 0..radius().
  std::vector<std::vector<TypeId>> round_states_;

  // Active-vertex worklist state (kWorklist scheduling; see DESIGN.md,
  // "Work-stealing worklist & retirement").  A vertex is active in round i
  // iff some neighbour had a state change in round i-1; retired vertices
  // keep bitwise-identical entries, so their round-i types equal their
  // round-(i-1) types (states) resp. re-wrap an unchanged body under the
  // new radius tag (roots).  all_active_ marks rounds where the tracking
  // is not yet seeded (round 1, after refine_delta / reset_partitions):
  // those run the full dense pass, which also (re)seeds the tracking.
  std::vector<std::uint32_t> active_;  // sorted vertices to recompute
  std::vector<char> active_flag_;      // O(1) membership for split passes
  std::vector<char> changed_;          // any state of v changed this round
  std::vector<TypeId> root_body_;      // per vertex: root tuple body id
  bool all_active_ = true;

  // Round-local id maps, empty between rounds (so a fork copies nothing
  // of them).  The root pass maps each distinct body id to its class
  // (dense) or straight to this round's root id (split: one probe per
  // retired vertex), and the state pass labels state ids the same way.
  IdMap body_map_;
  IdMap state_map_;
  // Split-round stability detection: the multiset of the current state
  // ids (id -> multiplicity, zero counts erased, so size() is the class
  // count), patched only at changed steps -- O(active) instead of
  // O(steps).  Seeded by a dense track round whose successor will split;
  // empty whenever no split round can follow.
  IdMap state_count_;

  // refine_delta scratch: the retired CSR + round tables of the previous
  // generation.  Swapped, never freed -- a steady-state session alternates
  // between two generations of buffers, so a delta pass allocates nothing
  // after the first call.
  std::vector<std::uint32_t> scratch_off_, scratch_vertex_, scratch_succ_,
      scratch_nbr_, scratch_move_;
  std::vector<std::uint64_t> scratch_tag_;
  std::vector<std::vector<TypeId>> scratch_rounds_;
};

/// One-shot convenience: radius-r root types for every vertex.
std::vector<TypeId> bulk_view_type_ids(
    const LDigraph& g, int r, TypeInterner& interner = TypeInterner::global());

/// The type of the complete radius-r view over a k-letter alphabet -- the
/// view of any vertex whose radius-r neighborhood is k-in-k-out regular
/// (Figure 5's (T*, lambda) truncated at r).  O(k^2 r) interner lookups;
/// types[v] == complete_view_type_id(k, r) <=> is_complete_view(view(g,v,r)).
TypeId complete_view_type_id(int k, int r,
                             TypeInterner& interner = TypeInterner::global());

}  // namespace lapx::core
