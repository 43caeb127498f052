#include "lapx/core/refine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "lapx/runtime/parallel.hpp"
#include "lapx/runtime/worklist.hpp"

namespace lapx::core {

namespace {

RefineSched initial_sched() {
  if (const char* s = std::getenv("LAPX_REFINE_SCHED")) {
    const std::string_view v(s);
    if (v == "legacy") return RefineSched::kLegacy;
    if (v == "worklist") return RefineSched::kWorklist;
    std::fprintf(stderr,
                 "lapx: ignoring unknown LAPX_REFINE_SCHED=\"%s\" (expected "
                 "\"worklist\" or \"legacy\"); using worklist\n",
                 s);
  }
  return RefineSched::kWorklist;
}

std::atomic<RefineSched> g_refine_sched{initial_sched()};

// root_distinct_ sentinel: refine_delta defers the per-round distinct-root
// count to the first distinct_at call (counting is O(n log n), the delta
// itself only O(frontier)).
constexpr std::size_t kDistinctUnknown = static_cast<std::size_t>(-1);

// Index of the step (v, move{outgoing, label}) inside its vertex's span.
std::uint32_t step_index_of(const graph::LDigraph& g, graph::Vertex v,
                            bool outgoing, graph::Label label,
                            std::uint32_t base) {
  const auto arcs = outgoing ? g.out_arcs(v) : g.in_arcs(v);
  const auto it = std::lower_bound(
      arcs.begin(), arcs.end(), label,
      [](const std::pair<graph::Label, graph::Vertex>& a, graph::Label l) {
        return a.first < l;
      });
  const auto pos = static_cast<std::uint32_t>(it - arcs.begin());
  return base + (outgoing ? static_cast<std::uint32_t>(g.in_degree(v)) : 0u) +
         pos;
}

}  // namespace

RefineSched refine_scheduling() {
  return g_refine_sched.load(std::memory_order_relaxed);
}

void set_refine_scheduling(RefineSched s) {
  g_refine_sched.store(s, std::memory_order_relaxed);
}

// The ooc writer persists edge tags computed in graph/ (which cannot see
// this header); the duplicated constant must stay bit-identical or
// streaming TypeIds would diverge from in-memory ones.
static_assert(graph::kOocViewEdgeTag == type_tag::kViewEdge,
              "graph/ooc edge tag must equal type_tag::kViewEdge");

RefineState::IdMap::IdMap(const IdMap& other) {
  if (other.size_ == 0) return;
  const std::size_t fits = std::bit_ceil(2 * (other.size_ + 1));
  assign_live(other, std::max<std::size_t>(64, fits));
}

RefineState::IdMap& RefineState::IdMap::operator=(const IdMap& other) {
  if (this != &other) *this = IdMap(other);
  return *this;
}

void RefineState::IdMap::assign_live(const IdMap& from, std::size_t capacity) {
  slots_.assign(capacity, Slot{0, 0, 0});
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  stamp_ = 1;
  size_ = from.size_;
  for (const Slot& s : from.slots_) {
    if (s.stamp != from.stamp_) continue;
    std::size_t i = home(s.key);
    while (slots_[i].stamp == stamp_) i = (i + 1) & mask_;
    slots_[i] = {s.key, s.value, stamp_};
  }
}

void RefineState::IdMap::grow() {
  IdMap grown;
  grown.assign_live(*this, slots_.empty() ? 64 : 2 * (mask_ + 1));
  *this = std::move(grown);
}

std::size_t RefineState::IdMap::home(TypeId key) const {
  // Fibonacci hashing: dense interner ids spread over the top bits.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

void RefineState::IdMap::clear() {
  if (size_ == 0) return;
  size_ = 0;
  if (++stamp_ == 0) {  // wrapped: no stale stamp may alias the new one
    for (Slot& s : slots_) s.stamp = 0;
    stamp_ = 1;
  }
}

std::uint32_t* RefineState::IdMap::find(TypeId key) {
  if (size_ == 0) return nullptr;
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.stamp != stamp_) return nullptr;
    if (s.key == key) return &s.value;
  }
}

std::pair<std::uint32_t*, bool> RefineState::IdMap::try_emplace(
    TypeId key, std::uint32_t value) {
  if (2 * (size_ + 1) > mask_ + 1) grow();
  for (std::size_t i = home(key);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.stamp != stamp_) {
      s = {key, value, stamp_};
      ++size_;
      return {&s.value, true};
    }
    if (s.key == key) return {&s.value, false};
  }
}

void RefineState::IdMap::erase(TypeId key) {
  std::size_t hole = home(key);
  while (slots_[hole].key != key || slots_[hole].stamp != stamp_)
    hole = (hole + 1) & mask_;
  // Backward-shift deletion (no tombstones): pull each later member of
  // the probe run whose home does not lie strictly after the hole into
  // it, so every live key stays reachable from its home slot.
  for (std::size_t j = (hole + 1) & mask_; slots_[j].stamp == stamp_;
       j = (j + 1) & mask_) {
    if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].stamp = 0;
  --size_;
}

void RefineState::build_steps() {
  const LDigraph& g = *g_;
  const Vertex n = g.num_vertices();
  step_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v)
    step_off_[static_cast<std::size_t>(v) + 1] =
        step_off_[v] + static_cast<std::uint32_t>(g.degree(v));
  const std::size_t steps = step_off_[n];
  step_vertex_.resize(steps);
  step_succ_.resize(steps);
  step_nbr_.resize(steps);
  step_edge_tag_.resize(steps);
  step_move_bits_.resize(steps);
  runtime::parallel_for(
      n, [&](std::int64_t vi) { fill_vertex_steps(static_cast<Vertex>(vi)); });
}

void RefineState::fill_vertex_steps(graph::Vertex v) {
  const LDigraph& g = *g_;
  std::uint32_t s = step_off_[v];
  // In-arc steps first (outgoing == false), then out-arc steps: both span
  // lists are sorted by label, so the steps land in (outgoing, label)
  // order -- the order view() emits children in.
  for (const auto& [l, w] : g.in_arcs(v)) {
    step_vertex_[s] = static_cast<std::uint32_t>(v);
    // Following the in-arc backwards arrives at w via move {false, l};
    // the state it realizes excludes the inverse step {true, l} at w.
    step_succ_[s] = step_index_of(g, w, true, l, step_off_[w]);
    step_nbr_[s] = static_cast<std::uint32_t>(w);
    step_edge_tag_[s] = type_tag::kViewEdge | static_cast<std::uint32_t>(l);
    step_move_bits_[s] = static_cast<std::uint32_t>(l);
    ++s;
  }
  for (const auto& [l, w] : g.out_arcs(v)) {
    step_vertex_[s] = static_cast<std::uint32_t>(v);
    step_succ_[s] = step_index_of(g, w, false, l, step_off_[w]);
    step_nbr_[s] = static_cast<std::uint32_t>(w);
    step_edge_tag_[s] = type_tag::kViewEdge | (std::uint64_t{1} << 32) |
                        static_cast<std::uint32_t>(l);
    step_move_bits_[s] = 0x80000000u | static_cast<std::uint32_t>(l);
    ++s;
  }
}

RefineState::RefineState(const LDigraph& g, TypeInterner& interner,
                         bool keep_rounds)
    : g_(&g),
      n_(g.num_vertices()),
      interner_(&interner),
      keep_rounds_(keep_rounds) {
  build_steps();
  init_round0();
}

RefineState::RefineState(const graph::OocGraph& g, TypeInterner& interner)
    : ooc_(&g), n_(g.num_vertices()), interner_(&interner) {
  // Streaming mode: the step CSR lives in the file; only the per-round
  // state tables (t_prev_/t_cur_/edge_ids_, O(steps) words) stay in RAM.
  init_round0();
}

void RefineState::init_round0() {
  const std::size_t steps = off_span()[static_cast<std::size_t>(n_)];

  // Round 0: every state is the empty node -- one class.
  const TypeId empty = interner_->intern_node(type_tag::kViewNode, nullptr, 0);
  t_prev_.assign(steps, empty);
  t_cur_.resize(steps);
  edge_ids_.resize(steps);
  edge_sub_.assign(steps, kNoType);
  state_class_.assign(steps, 0);
  state_rep_.assign(steps ? 1 : 0, 0);
  state_distinct_ = steps ? 1 : 0;

  // Radius 0: every vertex has the same single-node view.
  const TypeId root0 =
      interner_->intern_node(type_tag::kViewRoot | 0u, &empty, 1);
  roots_.emplace_back(static_cast<std::size_t>(n_), root0);
  root_distinct_.push_back(n_ ? 1 : 0);
  root_class_.assign(static_cast<std::size_t>(n_), 0);
  root_rep_.assign(n_ ? 1 : 0, 0);
  all_active_ = true;  // worklist tracking seeds itself on the first round
  if (keep_rounds_) round_states_.push_back(t_prev_);
}

void RefineState::advance() {
  TypeInterner& interner = *interner_;
  const Vertex n = n_;
  // One code path for both modes: locals over the owned vectors or over
  // the ooc file's mmap'd segments (never dangling -- the spans are
  // re-taken each round, and the owned vectors are not resized here).
  const std::span<const std::uint32_t> step_off = off_span();
  const std::span<const std::uint32_t> step_vertex = vertex_span();
  const std::span<const std::uint32_t> step_succ = succ_span();
  const std::span<const std::uint64_t> step_edge_tag = tag_span();
  const int next_radius = radius() + 1;
  const std::uint64_t root_tag =
      type_tag::kViewRoot | static_cast<std::uint32_t>(next_radius);
  // track: maintain the active-vertex worklist (kWorklist scheduling).
  // split: this round actually runs it -- the tracking was seeded by a
  // previous full round and at least one vertex retired.  The retirement
  // invariant: a retired vertex had no neighbour state change last round,
  // so its round tuples are bitwise the previous round's and its types
  // re-derive from cached ids.  The fast paths below skip only interner
  // calls that are provably cache hits (the structures were interned when
  // the tuple was first produced), so the interner's allocation ORDER --
  // and with it every TypeId -- is identical to the dense pass;
  // refine_test cross-validates this.
  const bool track = refine_scheduling() == RefineSched::kWorklist;
  const bool split = track && !states_stable_ && !all_active_ &&
                     active_.size() < static_cast<std::size_t>(n);

  // --- Phase A: lock-free batch resolution (the worker half of the
  // interner's two-phase pattern).  Every edge node, root body, and state
  // tuple of the round is probed with try_intern_node -- no locks, no
  // inserts -- and per-index slots record the id, or kNoType on a miss.  A
  // probe can only resolve a type that is already interned, so every call
  // Phase B then skips would have been a hit: the serial section below
  // interns novel types only, in exactly the order a fully serial pass
  // would, keeping TypeIds independent of LAPX_THREADS and
  // LAPX_INTERN_SHARDS.  Split rounds resolve only active spans
  // (work-stealing: the active set is sparse and irregular); retired spans
  // re-derive from cached ids and are never probed.
  const bool need_states = !states_stable_;
  const bool need_roots = !roots_stable_;
  if (need_roots) root_body_.resize(static_cast<std::size_t>(n));
  if (need_states || need_roots) {
    const auto resolve_span = [&](Vertex v) {
      const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
      touch_steps(lo, hi);
      std::uint32_t unresolved = 0, last = 0;
      std::uint32_t changed = 0, last_changed = 0;
      bool probed = false;
      for (std::uint32_t j = lo; j < hi; ++j) {
        const TypeId sub = t_prev_[step_succ[j]];
        TypeId e = edge_ids_[j];
        if (edge_sub_[j] != sub || e == kNoType) {
          // Memo miss: the successor state changed since this span's last
          // visit (or the edge never resolved).  A memo hit needs no probe
          // at all -- the pair invariant says e is the id of (tag_j, sub).
          const TypeId got =
              interner.try_intern_node(step_edge_tag[j], &sub, 1);
          probed = true;
          if (got != e) {
            ++changed;
            last_changed = j;
          }
          e = got;
          edge_ids_[j] = e;
          edge_sub_[j] = sub;
        }
        if (e == kNoType) {
          ++unresolved;
          last = j;
        }
      }
      // Body memo: if no edge re-probed, the body tuple is bitwise the one
      // at this span's last visit, and root_body_[v] already holds its id
      // (every visited span writes it, here or in the root pass below).
      // Empty spans always probe: their root_body_ slot may never have
      // been written.
      if (need_roots && (probed || hi == lo))
        root_body_[static_cast<std::size_t>(v)] =
            unresolved == 0
                ? interner.try_intern_node(type_tag::kViewNode,
                                           edge_ids_.data() + lo, hi - lo)
                : kNoType;
      if (!need_states) return;
      thread_local std::vector<TypeId> tuple;
      for (std::uint32_t s = lo; s < hi; ++s) {
        // The state tuple excludes step s, so one unresolved edge blocks
        // every state of the span except the one that skips it.  A tuple
        // with a *changed* edge is skipped too -- not for correctness
        // (Phase B interns anything left at kNoType, in canonical order,
        // so any subset of Phase A resolutions gives identical ids), but
        // because such a tuple is almost always novel this round, or a
        // duplicate of one, and its first occurrence is only interned in
        // Phase B: the probe would miss.  Unchanged tuples probe, and the
        // probe is a guaranteed hit (the tuple was interned when this
        // span was last visited).
        if (unresolved > (last == s ? 1u : 0u) ||
            changed > (last_changed == s ? 1u : 0u)) {
          t_cur_[s] = kNoType;
          continue;
        }
        tuple.resize(hi - lo - 1);
        std::copy(edge_ids_.begin() + lo, edge_ids_.begin() + s,
                  tuple.begin());
        std::copy(edge_ids_.begin() + s + 1, edge_ids_.begin() + hi,
                  tuple.begin() + (s - lo));
        t_cur_[s] = interner.try_intern_node(type_tag::kViewNode,
                                             tuple.data(), tuple.size());
      }
    };
    if (split) {
      runtime::for_each_index(active_,
                              [&](std::uint32_t v) { resolve_span(v); });
    } else {
      runtime::parallel_for(
          n, [&](std::int64_t vi) { resolve_span(static_cast<Vertex>(vi)); });
    }
  }

  // --- Phase B round-local dedup (see BatchEntry in the header).  Every
  // serial intern below goes through batch_intern, which pays the real
  // interner once per *distinct* (tag, children) key this round;
  // duplicates -- symmetric regions refine in lockstep, so novel tuples
  // arrive in large duplicate clusters -- verify against the arena copy
  // by id compare, with no hash-cons probe and no spelling access.  A
  // local hit is provably an interner hit (its first occurrence was
  // interned earlier the same round), so the skipped calls cannot
  // perturb id allocation order.
  if (need_states || need_roots) {
    batch_entries_.clear();
    batch_arena_.clear();
    if (batch_slots_.size() < 1024)
      batch_slots_.assign(1024, 0);
    else
      std::fill(batch_slots_.begin(), batch_slots_.end(), 0);
  }
  const auto batch_intern = [&](std::uint64_t tag, const TypeId* ch,
                                std::size_t len) {
    std::uint64_t h = tag * 0x9E3779B97F4A7C15ull + len;
    for (std::size_t i = 0; i < len; ++i)
      h ^= ch[i] + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    std::size_t mask = batch_slots_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(h) & mask;
    for (;; idx = (idx + 1) & mask) {
      const std::uint32_t e = batch_slots_[idx];
      if (e == 0) break;
      const BatchEntry& be = batch_entries_[e - 1];
      if (be.hash == h && be.tag == tag && be.len == len &&
          std::equal(ch, ch + len, batch_arena_.begin() + be.off))
        return be.id;
    }
    const TypeId id = interner.intern_node(tag, ch, len);
    batch_entries_.push_back({h, tag,
                              static_cast<std::uint32_t>(batch_arena_.size()),
                              static_cast<std::uint32_t>(len), id});
    batch_arena_.insert(batch_arena_.end(), ch, ch + len);
    batch_slots_[idx] = static_cast<std::uint32_t>(batch_entries_.size());
    if (2 * batch_entries_.size() > batch_slots_.size()) {
      batch_slots_.assign(2 * batch_slots_.size(), 0);
      mask = batch_slots_.size() - 1;
      for (std::uint32_t i = 0;
           i < static_cast<std::uint32_t>(batch_entries_.size()); ++i) {
        std::size_t k =
            static_cast<std::size_t>(batch_entries_[i].hash) & mask;
        while (batch_slots_[k] != 0) k = (k + 1) & mask;
        batch_slots_[k] = i + 1;
      }
    }
    return id;
  };

  // --- Phase B helper: serially intern an unresolved span -- edge nodes
  // in step order, then the body tuple -- exactly the calls the serial
  // rendezvous pass always made at a first occurrence.
  const auto intern_body = [&](Vertex v) {
    const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
    touch_steps(lo, hi);
    for (std::uint32_t j = lo; j < hi; ++j) {
      const TypeId sub = t_prev_[step_succ[j]];
      edge_ids_[j] = batch_intern(step_edge_tag[j], &sub, 1);
      edge_sub_[j] = sub;
    }
    return batch_intern(type_tag::kViewNode, edge_ids_.data() + lo, hi - lo);
  };

  std::vector<TypeId> tmp_edges;

  // --- Roots at next_radius: the tuple over ALL steps of v. ---
  std::vector<TypeId> roots(static_cast<std::size_t>(n));
  std::size_t root_distinct;
  if (roots_stable_) {
    // The root partition stopped changing; intern one tuple per class from
    // its representative and scatter by the recorded labels.
    std::vector<TypeId> class_type(root_rep_.size());
    for (std::size_t c = 0; c < root_rep_.size(); ++c) {
      const Vertex v = static_cast<Vertex>(root_rep_[c]);
      touch_steps(step_off[v], step_off[v + 1]);
      tmp_edges.clear();
      for (std::uint32_t j = step_off[v]; j < step_off[v + 1]; ++j) {
        const TypeId sub = t_prev_[step_succ[j]];
        tmp_edges.push_back(interner.intern_node(step_edge_tag[j], &sub, 1));
      }
      const TypeId body = interner.intern_node(
          type_tag::kViewNode, tmp_edges.data(), tmp_edges.size());
      class_type[c] = interner.intern_node(root_tag, &body, 1);
    }
    runtime::parallel_for(n, [&](std::int64_t v) {
      roots[static_cast<std::size_t>(v)] =
          class_type[root_class_[static_cast<std::size_t>(v)]];
    });
    root_distinct = root_rep_.size();
  } else if (split) {
    // Retirement pass.  The interner is injective on the serialized body
    // tuple, so equal bodies <=> equal ids, and the round's body -> root
    // map dedups retired and active vertices alike; the fresh allocations
    // this round are exactly one root node per distinct body, at the
    // first vertex (in order) producing that body -- the positions the
    // dense pass would intern at.  A retired vertex reuses its cached body
    // and pays one map probe.  root_class_/root_rep_ are NOT maintained
    // here: the per-class path is gated on roots_stable_, which a later
    // dense round (re)establishes along with the tables.
    const auto root_of = [&](TypeId body) {
      const auto [root, fresh] = body_map_.try_emplace(body, 0);
      if (fresh) *root = interner.intern_node(root_tag, &body, 1);
      return *root;
    };
    for (Vertex v = 0; v < n; ++v) {
      if (!active_flag_[static_cast<std::size_t>(v)]) {
        roots[static_cast<std::size_t>(v)] =
            root_of(root_body_[static_cast<std::size_t>(v)]);
        continue;
      }
      TypeId body = root_body_[static_cast<std::size_t>(v)];
      if (body == kNoType)
        root_body_[static_cast<std::size_t>(v)] = body = intern_body(v);
      roots[static_cast<std::size_t>(v)] = root_of(body);
    }
    root_distinct = body_map_.size();
    body_map_.clear();
    roots_stable_ = false;  // split requires !states_stable_
  } else {
    // Dense pass: one serial walk in vertex order; Phase A already
    // resolved every body that was interned before this round, so the
    // rebuilds below cover novel bodies (and vertices racing them to the
    // same novel body, whose rebuilt calls all hit).  Class labels ride on
    // body ids through the round's body -> class map.
    root_rep_.clear();
    std::vector<TypeId> class_type;
    for (Vertex v = 0; v < n; ++v) {
      TypeId body = root_body_[static_cast<std::size_t>(v)];
      if (body == kNoType)
        root_body_[static_cast<std::size_t>(v)] = body = intern_body(v);
      const auto [cls, fresh] = body_map_.try_emplace(
          body, static_cast<std::uint32_t>(class_type.size()));
      if (fresh) {
        class_type.push_back(interner.intern_node(root_tag, &body, 1));
        root_rep_.push_back(static_cast<std::uint32_t>(v));
      }
      root_class_[static_cast<std::size_t>(v)] = *cls;
      roots[static_cast<std::size_t>(v)] = class_type[*cls];
    }
    body_map_.clear();
    root_distinct = class_type.size();
    // Once the states are stable the root tuples (as a partition of the
    // vertices) cannot change either; from now on one intern per class.
    roots_stable_ = states_stable_;
  }
  roots_.push_back(std::move(roots));
  root_distinct_.push_back(root_distinct);

  // --- States: the tuple over the steps of s's vertex, s excluded. ---
  if (states_stable_) {
    std::vector<TypeId> class_type(state_rep_.size());
    for (std::size_t c = 0; c < state_rep_.size(); ++c) {
      const std::uint32_t s = state_rep_[c];
      const Vertex v = static_cast<Vertex>(step_vertex[s]);
      touch_steps(step_off[v], step_off[v + 1]);
      tmp_edges.clear();
      for (std::uint32_t j = step_off[v]; j < step_off[v + 1]; ++j) {
        if (j == s) continue;
        const TypeId sub = t_prev_[step_succ[j]];
        tmp_edges.push_back(interner.intern_node(step_edge_tag[j], &sub, 1));
      }
      class_type[c] = interner.intern_node(
          type_tag::kViewNode, tmp_edges.data(), tmp_edges.size());
    }
    runtime::parallel_for(static_cast<std::int64_t>(t_cur_.size()),
                          [&](std::int64_t s) {
                            t_cur_[static_cast<std::size_t>(s)] =
                                class_type[state_class_[
                                    static_cast<std::size_t>(s)]];
                          });
  } else if (split) {
    // Retirement pass: Phase A resolved the previously-seen tuples of the
    // active spans lock-free; the loop interns only what it left kNoType
    // (first occurrences in step order; a retired span's tuples are
    // provably cache hits), and retired spans copy forward bitwise.  The
    // root pass above interned every edge node of every active span, so
    // edge_ids_ is fully resolved here.  Stability detection is
    // incremental -- the multiset of current ids, seeded by the last
    // dense track round, is patched only at changed steps -- so a round
    // costs O(active) work, not O(steps).
    std::vector<TypeId> tuple;
    changed_.assign(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) {
      const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
      if (!active_flag_[static_cast<std::size_t>(v)]) {
        std::copy(t_prev_.begin() + lo, t_prev_.begin() + hi,
                  t_cur_.begin() + lo);
        continue;
      }
      bool vchanged = false;
      for (std::uint32_t s = lo; s < hi; ++s) {
        if (t_cur_[s] == kNoType) {
          tuple.clear();
          for (std::uint32_t j = lo; j < hi; ++j)
            if (j != s) tuple.push_back(edge_ids_[j]);
          t_cur_[s] =
              batch_intern(type_tag::kViewNode, tuple.data(), tuple.size());
        }
        if (t_cur_[s] != t_prev_[s]) {
          vchanged = true;
          if (--*state_count_.find(t_prev_[s]) == 0)
            state_count_.erase(t_prev_[s]);
          ++*state_count_.try_emplace(t_cur_[s], 0).first;
        }
      }
      if (vchanged) changed_[static_cast<std::size_t>(v)] = 1;
    }
    states_stable_ = state_count_.size() == state_distinct_;
    state_distinct_ = state_count_.size();
    if (states_stable_) {
      // The per-class path takes over next round; rebuild the tables it
      // consumes once, with the dense labelling (first occurrence per id
      // in step order) via the round's id -> class map.
      state_count_.clear();
      state_rep_.clear();
      for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(t_cur_.size());
           ++s) {
        const auto [cls, fresh] = state_map_.try_emplace(
            t_cur_[s], static_cast<std::uint32_t>(state_rep_.size()));
        if (fresh) state_rep_.push_back(s);
        state_class_[s] = *cls;
      }
      state_map_.clear();
    }
  } else {
    // Dense pass: intern what Phase A left unresolved, in step order (the
    // root pass resolved every edge node already, so a state tuple is a
    // gather over edge_ids_).  Distinct tuples <=> distinct ids (the
    // interner is injective on the serialized tuple), so class labels ride
    // on the round's id -> class map -- no byte keys.
    std::vector<TypeId> tuple;
    state_rep_.clear();
    if (track) changed_.assign(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) {
      const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
      bool vchanged = false;
      for (std::uint32_t s = lo; s < hi; ++s) {
        if (t_cur_[s] == kNoType) {
          tuple.clear();
          for (std::uint32_t j = lo; j < hi; ++j)
            if (j != s) tuple.push_back(edge_ids_[j]);
          t_cur_[s] =
              batch_intern(type_tag::kViewNode, tuple.data(), tuple.size());
        }
        const auto [cls, fresh] = state_map_.try_emplace(
            t_cur_[s], static_cast<std::uint32_t>(state_rep_.size()));
        if (fresh) state_rep_.push_back(s);
        state_class_[s] = *cls;
        vchanged |= t_cur_[s] != t_prev_[s];
      }
      if (track && vchanged) changed_[static_cast<std::size_t>(v)] = 1;
    }
    state_map_.clear();
    // Equal class count + monotone refinement => identical partition, which
    // is then a fixed point of the splitting step: stable forever.
    states_stable_ = state_rep_.size() == state_distinct_;
    state_distinct_ = state_rep_.size();
    state_count_.clear();  // re-seeded below if a split round follows
  }

  // --- Seed the next round's worklist: a vertex re-enqueues iff some
  // neighbour's state changed this round (its entries depend on nothing
  // else).  Once the partition is stable the per-class paths own the
  // scheduling and the tracking is dropped; legacy rounds also reset it so
  // a mid-flight scheduling switch can never trust stale flags.
  if (track && !states_stable_) {
    active_flag_.assign(static_cast<std::size_t>(n), 0);
    active_.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (!changed_[static_cast<std::size_t>(v)]) continue;
      touch_steps(step_off[v], step_off[v + 1]);
      for (std::uint32_t j = step_off[v]; j < step_off[v + 1]; ++j)
        active_flag_[step_vertex[step_succ[j]]] = 1;
    }
    for (Vertex v = 0; v < n; ++v)
      if (active_flag_[static_cast<std::size_t>(v)])
        active_.push_back(static_cast<std::uint32_t>(v));
    all_active_ = false;
    if (!split && active_.size() < static_cast<std::size_t>(n)) {
      // The next round splits: seed its incremental stability detector
      // with this round's id multiset (distinct ids == distinct keys: the
      // interner is injective on the serialized tuple).
      for (const TypeId id : t_cur_) ++*state_count_.try_emplace(id, 0).first;
    }
  } else {
    all_active_ = true;
  }

  t_prev_.swap(t_cur_);
  if (keep_rounds_) round_states_.push_back(t_prev_);
}

const std::vector<TypeId>& RefineState::types_at(int radius) {
  if (radius < 0) throw std::invalid_argument("RefineState: negative radius");
  while (this->radius() < radius) advance();
  return roots_[static_cast<std::size_t>(radius)];
}

std::size_t RefineState::distinct_at(int radius) {
  types_at(radius);
  std::size_t& d = root_distinct_[static_cast<std::size_t>(radius)];
  if (d == kDistinctUnknown) {
    // Deferred by refine_delta: counting costs O(n log n) per round while a
    // delta pass touches only the frontier, so the count is reconstructed
    // here on first demand.
    std::vector<TypeId> sorted(roots_[static_cast<std::size_t>(radius)]);
    std::sort(sorted.begin(), sorted.end());
    d = static_cast<std::size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  }
  return d;
}

void RefineState::reset_partitions() {
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t steps = step_off_.empty() ? 0 : step_off_.back();
  state_class_.resize(steps);
  state_rep_.clear();
  state_distinct_ = 0;
  states_stable_ = false;
  root_class_.resize(n);
  root_rep_.clear();
  roots_stable_ = false;
  state_count_.clear();  // stale: refine_delta rewrote frontier types
  // The worklist tracking is stale too (refine_delta rewrote frontier
  // types without updating changed_/root_body_): force a full round,
  // which re-seeds it.
  all_active_ = true;
}

RefineState::DeltaStats RefineState::refine_delta(const LDigraph& g) {
  if (!keep_rounds_)
    throw std::logic_error(
        "refine_delta requires a RefineState built with keep_rounds");
  const int max_r = radius();  // >= 0 always (radius 0 exists from birth)
  const auto old_n = static_cast<Vertex>(step_off_.size()) - 1;
  DeltaStats stats;
  stats.rounds = max_r;
  stats.total_vertices = static_cast<std::size_t>(g.num_vertices());
  if (g.num_vertices() < old_n) {
    // Vertex removal shifts ids; nothing transplants.  Rebuild wholesale.
    RefineState fresh(g, *interner_, /*keep_rounds=*/true);
    fresh.types_at(max_r);
    *this = std::move(fresh);
    stats.full_rebuild = true;
    stats.dirty_vertices = stats.total_vertices;
    stats.frontier_vertices = stats.total_vertices;
    return stats;
  }

  // Retire the old CSR and tables into member scratch.  Swapping (rather
  // than freeing) matters: the large-lift tables are mmap-sized, and a
  // malloc/munmap cycle per edit costs as much as the refinement itself.
  // The new CSR is PATCHED, not rebuilt: a delta pass must not pay
  // build_steps' full O(steps) label-scan cost for an edit that touched a
  // handful of vertices.
  scratch_off_.swap(step_off_);
  scratch_vertex_.swap(step_vertex_);
  scratch_succ_.swap(step_succ_);
  scratch_nbr_.swap(step_nbr_);
  scratch_move_.swap(step_move_bits_);
  scratch_tag_.swap(step_edge_tag_);
  scratch_rounds_.swap(round_states_);
  const std::vector<std::uint32_t>& old_off = scratch_off_;
  const std::vector<std::uint32_t>& old_vertex = scratch_vertex_;
  const std::vector<std::uint32_t>& old_succ = scratch_succ_;
  const std::vector<std::uint32_t>& old_nbr = scratch_nbr_;
  const std::vector<std::uint32_t>& old_move = scratch_move_;
  const std::vector<std::uint64_t>& old_tag = scratch_tag_;
  std::vector<std::vector<TypeId>>& old_rounds = scratch_rounds_;
  // round_states_ now holds the husks from two generations ago -- their
  // capacity seeds this generation's tables.
  std::vector<std::vector<TypeId>> spare = std::move(round_states_);
  round_states_.clear();
  auto take_spare = [&spare]() {
    std::vector<TypeId> buf;
    if (!spare.empty()) {
      buf = std::move(spare.back());
      spare.pop_back();
    }
    return buf;
  };
  g_ = &g;
  n_ = g.num_vertices();
  const Vertex n = n_;
  step_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v)
    step_off_[static_cast<std::size_t>(v) + 1] =
        step_off_[v] + static_cast<std::uint32_t>(g.degree(v));
  const std::size_t steps = step_off_[static_cast<std::size_t>(n)];

  // Seed: a vertex is dirty when its incident-step SIGNATURE changed --
  // the per-span sequence of (move bits, successor vertex) pairs, compared
  // straight off the adjacency in the same (outgoing, label) enumeration
  // order fill_vertex_steps uses.  T_1 is a pure function of the
  // signature, and the signature also pins the identity of every successor
  // state, so a clean vertex's old table values transplant verbatim.
  // Serial on purpose: the whole scan is ~one pass over the adjacency, and
  // the pool's wake/barrier costs more than the scan itself at this size.
  std::vector<char> in_frontier(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> frontier;
  for (Vertex v = 0; v < n; ++v) {
    bool same = v < old_n &&
                step_off_[v + 1] - step_off_[v] == old_off[v + 1] - old_off[v];
    if (same) {
      std::uint32_t k = old_off[v];
      for (const auto& [l, w] : g.in_arcs(v)) {
        if (old_move[k] != static_cast<std::uint32_t>(l) ||
            old_nbr[k] != static_cast<std::uint32_t>(w)) {
          same = false;
          break;
        }
        ++k;
      }
      if (same)
        for (const auto& [l, w] : g.out_arcs(v)) {
          if (old_move[k] != (0x80000000u | static_cast<std::uint32_t>(l)) ||
              old_nbr[k] != static_cast<std::uint32_t>(w)) {
            same = false;
            break;
          }
          ++k;
        }
    }
    if (!same) {
      in_frontier[static_cast<std::size_t>(v)] = 1;
      frontier.push_back(v);
    }
  }
  stats.dirty_vertices = frontier.size();

  // Patch the CSR.  Dirty spans refill from scratch; clean spans block-copy
  // (within a run of clean vertices the old-vs-new offset delta is
  // constant, because degrees change only at signature-changed vertices).
  // A clean step's successor index shifts by its target span's offset
  // delta -- unless the target itself is dirty and may have reordered its
  // span, which costs one label scan.
  step_vertex_.resize(steps);
  step_succ_.resize(steps);
  step_nbr_.resize(steps);
  step_edge_tag_.resize(steps);
  step_move_bits_.resize(steps);
  {
    Vertex run_start = 0;
    for (std::size_t fi = 0; fi <= frontier.size(); ++fi) {
      const Vertex stop = fi < frontier.size() ? frontier[fi] : n;
      if (run_start < stop) {
        const std::uint32_t lo = step_off_[run_start];
        const std::uint32_t olo = old_off[run_start];
        const std::uint32_t len = step_off_[stop] - lo;
        std::copy(old_vertex.begin() + olo, old_vertex.begin() + olo + len,
                  step_vertex_.begin() + lo);
        std::copy(old_nbr.begin() + olo, old_nbr.begin() + olo + len,
                  step_nbr_.begin() + lo);
        std::copy(old_move.begin() + olo, old_move.begin() + olo + len,
                  step_move_bits_.begin() + lo);
        std::copy(old_tag.begin() + olo, old_tag.begin() + olo + len,
                  step_edge_tag_.begin() + lo);
        for (std::uint32_t j = 0; j < len; ++j) {
          const std::uint32_t os = old_succ[olo + j];
          const auto w = static_cast<Vertex>(old_nbr[olo + j]);
          if (in_frontier[static_cast<std::size_t>(w)]) {
            const std::uint32_t mb = old_move[olo + j];
            step_succ_[lo + j] = step_index_of(
                g, w, (mb & 0x80000000u) == 0,
                static_cast<graph::Label>(mb & 0x7fffffffu), step_off_[w]);
          } else {
            step_succ_[lo + j] = os - old_off[w] + step_off_[w];
          }
        }
      }
      if (fi < frontier.size()) {
        fill_vertex_steps(frontier[fi]);
        run_start = frontier[fi] + 1;
      }
    }
  }

  // Round 0 is edit-proof: every state is the empty node, every root the
  // same single-node view; only the lengths can change (growth).
  const TypeId empty = interner_->intern_node(type_tag::kViewNode, nullptr, 0);
  const TypeId root0 =
      interner_->intern_node(type_tag::kViewRoot | 0u, &empty, 1);
  round_states_.reserve(old_rounds.size());
  {
    std::vector<TypeId> r0 = take_spare();
    r0.assign(steps, empty);
    round_states_.push_back(std::move(r0));
  }
  roots_[0].assign(static_cast<std::size_t>(n), root0);
  root_distinct_[0] = n ? 1 : 0;

  // Round i re-derives exactly the ball of radius i-1 around the seed (in
  // the new graph): outside it, both the vertex signature and every input
  // T_{i-1} value are unchanged, so hash-consing guarantees the old TypeId
  // is still the right answer.  The frontier pass is serial in ascending
  // vertex order, so freshly interned ids are thread-count-independent --
  // the same guarantee the rendezvous pass gives a from-scratch refine.

  // Unchanged step layout (pure rewires, or a cut healed earlier) lets each
  // old round table transplant by move; otherwise clean spans are copied in
  // contiguous runs -- degrees shift only at signature-changed vertices, so
  // between two dirty vertices the old-vs-new offset delta is constant and
  // the whole run is one block copy.
  const bool same_layout = old_off == step_off_;
  std::vector<TypeId> tmp_edges;
  for (int i = 1; i <= max_r; ++i) {
    std::vector<TypeId> t;
    if (same_layout) {
      t = std::move(old_rounds[static_cast<std::size_t>(i)]);
    } else {
      t = take_spare();
      t.resize(steps);  // stale tail is fine: clean spans are copied below,
                        // frontier spans recomputed, and that covers steps
      const std::vector<TypeId>& old_t =
          old_rounds[static_cast<std::size_t>(i)];
      Vertex run_start = 0;
      for (std::size_t fi = 0; fi <= frontier.size(); ++fi) {
        const Vertex stop = fi < frontier.size() ? frontier[fi] : n;
        if (run_start < stop) {  // all-clean => every vertex < old_n
          const std::uint32_t lo = step_off_[run_start];
          const std::uint32_t len = step_off_[stop] - lo;
          std::copy(old_t.begin() + old_off[run_start],
                    old_t.begin() + old_off[run_start] + len, t.begin() + lo);
        }
        if (fi < frontier.size()) run_start = frontier[fi] + 1;
      }
    }
    const std::vector<TypeId>& prev =
        round_states_[static_cast<std::size_t>(i) - 1];
    const std::uint64_t root_tag =
        type_tag::kViewRoot | static_cast<std::uint32_t>(i);
    std::vector<TypeId>& roots = roots_[static_cast<std::size_t>(i)];
    roots.resize(static_cast<std::size_t>(n), TypeId{});
    for (const Vertex v : frontier) {
      const std::uint32_t lo = step_off_[v], hi = step_off_[v + 1];
      tmp_edges.clear();
      for (std::uint32_t j = lo; j < hi; ++j) {
        const TypeId sub = prev[step_succ_[j]];
        tmp_edges.push_back(interner_->intern_node(step_edge_tag_[j], &sub, 1));
      }
      const TypeId body = interner_->intern_node(
          type_tag::kViewNode, tmp_edges.data(), tmp_edges.size());
      roots[static_cast<std::size_t>(v)] =
          interner_->intern_node(root_tag, &body, 1);
      for (std::uint32_t s = lo; s < hi; ++s) {
        tmp_edges.clear();
        for (std::uint32_t j = lo; j < hi; ++j) {
          if (j == s) continue;
          const TypeId sub = prev[step_succ_[j]];
          tmp_edges.push_back(
              interner_->intern_node(step_edge_tag_[j], &sub, 1));
        }
        t[s] = interner_->intern_node(type_tag::kViewNode, tmp_edges.data(),
                                      tmp_edges.size());
      }
    }
    round_states_.push_back(std::move(t));
    root_distinct_[static_cast<std::size_t>(i)] = kDistinctUnknown;
    if (i < max_r) {
      // Grow the ball by one step for the next round, then restore
      // ascending order so the recompute loop stays deterministic.
      const std::size_t end = frontier.size();
      for (std::size_t idx = 0; idx < end; ++idx) {
        const Vertex v = frontier[idx];
        auto visit = [&](Vertex w) {
          if (!in_frontier[static_cast<std::size_t>(w)]) {
            in_frontier[static_cast<std::size_t>(w)] = 1;
            frontier.push_back(w);
          }
        };
        for (const auto& [l, w] : g.in_arcs(v)) visit(w);
        for (const auto& [l, w] : g.out_arcs(v)) visit(w);
      }
      std::sort(frontier.begin(), frontier.end());
    }
  }
  stats.frontier_vertices = frontier.size();

  // Re-arm the incremental machinery on the last reconciled round; the
  // partitions may have split, so the next advance() takes the full
  // rendezvous path rather than trusting stale stability flags.
  t_prev_ = round_states_.back();
  // Size-only: advance()'s forced-unstable path rewrites every element of
  // these (and of the partition labels) before reading any of them.
  t_cur_.resize(steps);
  edge_ids_.resize(steps);
  // The delta relabels steps, so stale (edge_sub_, edge_ids_) pairs no
  // longer describe step j's move: drop the memo wholesale.
  edge_sub_.assign(steps, kNoType);
  reset_partitions();
  return stats;
}

std::vector<TypeId> bulk_view_type_ids(const LDigraph& g, int r,
                                       TypeInterner& interner) {
  RefineState refiner(g, interner);
  return refiner.types_at(r);
}

TypeId complete_view_type_id(int k, int r, TypeInterner& interner) {
  // Arrival moves of the complete tree, in step order: {false, 0..k-1} then
  // {true, 0..k-1}; move m and move (m + k) % 2k are inverses.
  const int moves = 2 * k;
  const auto edge_tag = [](int m, int k) {
    return type_tag::kViewEdge |
           (m >= k ? (std::uint64_t{1} << 32) : std::uint64_t{0}) |
           static_cast<std::uint32_t>(m % k);
  };
  const TypeId empty = interner.intern_node(type_tag::kViewNode, nullptr, 0);
  std::vector<TypeId> prev(static_cast<std::size_t>(moves), empty), cur(prev);
  std::vector<TypeId> edges;
  for (int depth = 1; depth < r; ++depth) {
    for (int m = 0; m < moves; ++m) {
      edges.clear();
      for (int j = 0; j < moves; ++j) {
        if (j == (m + k) % moves) continue;
        const TypeId sub = prev[static_cast<std::size_t>(j)];
        edges.push_back(interner.intern_node(edge_tag(j, k), &sub, 1));
      }
      cur[static_cast<std::size_t>(m)] =
          interner.intern_node(type_tag::kViewNode, edges.data(), edges.size());
    }
    prev.swap(cur);
  }
  edges.clear();
  if (r > 0)
    for (int j = 0; j < moves; ++j) {
      const TypeId sub = prev[static_cast<std::size_t>(j)];
      edges.push_back(interner.intern_node(edge_tag(j, k), &sub, 1));
    }
  const TypeId body =
      interner.intern_node(type_tag::kViewNode, edges.data(), edges.size());
  return interner.intern_node(
      type_tag::kViewRoot | static_cast<std::uint32_t>(r), &body, 1);
}

}  // namespace lapx::core
