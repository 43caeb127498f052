#include "lapx/core/refine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "lapx/runtime/parallel.hpp"
#include "lapx/runtime/worklist.hpp"

namespace lapx::core {

namespace {

// "None" for a step index or offset: in base_off, a span with no kept
// counterpart (its step layout changed, or it is new), which therefore
// always counts as changed; as a skipped step, none.
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

// The edge tag of a step with move bits `move` (outgoing << 31 | label):
// the (outgoing << 32 | label) payload the ViewTree path interns, so the
// TypeIds coincide.
std::uint64_t edge_tag(std::uint32_t move) {
  return type_tag::kViewEdge | std::uint64_t{move >> 31} << 32 |
         (move & 0x7fffffffu);
}

}  // namespace

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

RefineState::RefineState(const LDigraph& g, TypeInterner& interner,
                         bool keep_rounds)
    : n_(g.num_vertices()), interner_(&interner), keep_rounds_(keep_rounds) {
  steps_.layout(g);
  runtime::parallel_for(g.num_vertices(), [&](std::int64_t v) {
    steps_.fill(g, static_cast<Vertex>(v));
  });
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

  // Round 0: every state is the empty node -- one class.  A state that
  // keeps rounds reads each round's input from its last kept table, so
  // only one that does not keeps t_prev_.
  const TypeId empty = interner_->intern_node(type_tag::kViewNode, nullptr, 0);
  if (keep_rounds_)
    round_states_.assign(1, std::vector<TypeId>(steps, empty));
  else
    t_prev_.assign(steps, empty);
  edge_ids_.resize(steps);
  edge_sub_.assign(steps, kNoType);
  state_distinct_ = steps ? 1 : 0;
  states_stable_ = roots_stable_ = false;
  state_count_.clear();

  // Radius 0: every vertex has the same single-node view.
  const TypeId root0 =
      interner_->intern_node(type_tag::kViewRoot | 0u, &empty, 1);
  roots_.resize(1);
  roots_[0].assign(static_cast<std::size_t>(n_), root0);
  all_active_ = true;  // the tracking seeds itself on the first round
}

void RefineState::advance() {
  const bool states_were_stable = states_stable_;
  const std::size_t steps = off_span()[static_cast<std::size_t>(n_)];
  // T_radius() in, T_radius()+1 out: a state that keeps rounds writes a
  // fresh table it then keeps, any other swaps t_prev_ and t_cur_.
  const std::vector<TypeId>& in = keep_rounds_ ? round_states_.back() : t_prev_;
  std::vector<TypeId> kept;
  std::vector<TypeId>& out = keep_rounds_ ? kept : t_cur_;
  // Retired spans carry last round's values; the kernel rewrites the rest.
  if (all_active_)
    out.resize(steps);
  else
    out.assign(in.begin(), in.end());
  std::vector<TypeId> roots(static_cast<std::size_t>(n_));
  run_round(radius() + 1, in.data(), out.data(), in.data(), off_span(), roots,
            /*replay=*/false);
  roots_.push_back(std::move(roots));

  if (!states_were_stable) {
    // Equal class count + monotone refinement => identical partition, which
    // is then a fixed point of the splitting step: stable forever.  Distinct
    // tuples <=> distinct ids (the interner is injective on the serialized
    // tuple), so the class count is the size of the id multiset.
    const std::span<const std::uint32_t> step_off = off_span();
    if (all_active_) {
      state_count_.clear();
      for (const TypeId id : out) ++*state_count_.try_emplace(id, 0).first;
    } else {
      for (const std::uint32_t v : changed_)
        for (std::uint32_t s = step_off[v]; s < step_off[v + 1]; ++s) {
          if (out[s] == in[s]) continue;
          if (--*state_count_.find(in[s]) == 0) state_count_.erase(in[s]);
          ++*state_count_.try_emplace(out[s], 0).first;
        }
    }
    states_stable_ = state_count_.size() == state_distinct_;
    state_distinct_ = state_count_.size();
    if (states_stable_) {
      // The per-class path takes over next round; label the states once,
      // by first occurrence per id in step order.
      state_rep_.clear();
      state_class_.resize(steps);
      for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(steps); ++s) {
        const auto [cls, fresh] = state_map_.try_emplace(
            out[s], static_cast<std::uint32_t>(state_rep_.size()));
        if (fresh) state_rep_.push_back(s);
        state_class_[s] = *cls;
      }
      state_map_.clear();
    }
  }
  // Once the partition is stable the per-class paths own every round.
  if (states_stable_ || all_active_only_)
    all_active_ = true;
  else
    schedule({});
  if (all_active_) state_count_.clear();  // a full round recounts

  if (keep_rounds_)
    round_states_.push_back(std::move(kept));  // `in` may dangle after this
  else
    t_prev_.swap(t_cur_);
}

template <typename F>
void RefineState::for_active(const F& f) const {
  if (all_active_) {
    for (Vertex v = 0; v < n_; ++v) f(v);
  } else {
    for (const std::uint32_t v : active_) f(static_cast<Vertex>(v));
  }
}

void RefineState::run_round(int radius, const TypeId* in, TypeId* out,
                            const TypeId* base,
                            std::span<const std::uint32_t> base_off,
                            std::vector<TypeId>& roots, bool replay) {
  TypeInterner& interner = *interner_;
  const Vertex n = n_;
  // One code path for both modes: locals over the owned vectors or over
  // the ooc file's mmap'd segments (never dangling -- the spans are
  // re-taken each round, and the owned vectors are not resized here).
  const std::span<const std::uint32_t> step_off = off_span();
  const std::span<const std::uint32_t> step_succ = succ_span();
  const std::span<const std::uint32_t> step_nbr = nbr_span();
  const std::span<const std::uint32_t> step_move = move_span();
  const std::uint64_t root_tag =
      type_tag::kViewRoot | static_cast<std::uint32_t>(radius);

  // --- Phase A: lock-free batch resolution (the worker half of the
  // interner's two-phase pattern).  Every edge node, root body, and state
  // tuple of an active span is probed with try_intern_node -- no locks, no
  // inserts -- and per-index slots record the id, or kNoType on a miss.  A
  // probe can only resolve a type that is already interned, so every call
  // Phase B then skips would have been a hit: the serial section below
  // interns novel types only, in exactly the order a fully serial pass
  // would, keeping TypeIds independent of LAPX_THREADS.  A sparse active
  // set runs in small worklist chunks (its per-item cost is irregular); a
  // full round is a dense parallel_for.
  const bool need_states = !states_stable_;
  const bool need_roots = !roots_stable_;
  if (need_roots) root_body_.resize(static_cast<std::size_t>(n));
  if (need_states || need_roots) {
    const auto resolve_span = [&](Vertex v) {
      const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
      std::uint32_t unresolved = 0, last = 0;
      std::uint32_t changed = 0, last_changed = 0;
      bool probed = false;
      for (std::uint32_t j = lo; j < hi; ++j) {
        const TypeId sub = in[step_succ[j]];
        TypeId e = edge_ids_[j];
        if (edge_sub_[j] != sub || e == kNoType) {
          // Memo miss: the successor state changed since this span's last
          // visit (or the edge never resolved).  A memo hit needs no probe
          // at all -- the pair invariant says e is the id of (tag_j, sub).
          const TypeId got =
              interner.try_intern_node(edge_tag(step_move[j]), &sub, 1);
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
          out[s] = kNoType;
          continue;
        }
        tuple.resize(hi - lo - 1);
        std::copy(edge_ids_.begin() + lo, edge_ids_.begin() + s,
                  tuple.begin());
        std::copy(edge_ids_.begin() + s + 1, edge_ids_.begin() + hi,
                  tuple.begin() + (s - lo));
        out[s] = interner.try_intern_node(type_tag::kViewNode, tuple.data(),
                                          tuple.size());
      }
    };
    if (all_active_) {
      runtime::parallel_for(
          n, [&](std::int64_t vi) { resolve_span(static_cast<Vertex>(vi)); });
    } else {
      runtime::for_each_index(active_,
                              [&](std::uint32_t v) { resolve_span(v); });
    }
  }

  // Phase B helper: serially intern an unresolved span -- edge nodes in
  // step order, then the body tuple -- exactly the calls the serial pass
  // always made at a first occurrence.
  const auto intern_body = [&](Vertex v) {
    const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
    for (std::uint32_t j = lo; j < hi; ++j) {
      const TypeId sub = in[step_succ[j]];
      edge_ids_[j] = interner.intern_node(edge_tag(step_move[j]), &sub, 1);
      edge_sub_[j] = sub;
    }
    return interner.intern_node(type_tag::kViewNode, edge_ids_.data() + lo,
                                hi - lo);
  };

  // Stable per-class path: intern the node over v's steps, `skip`
  // excluded, from a class representative.
  std::vector<TypeId> tmp_edges;
  const auto intern_rep = [&](Vertex v, std::uint32_t skip) {
    tmp_edges.clear();
    for (std::uint32_t j = step_off[v]; j < step_off[v + 1]; ++j) {
      if (j == skip) continue;
      const TypeId sub = in[step_succ[j]];
      tmp_edges.push_back(
          interner.intern_node(edge_tag(step_move[j]), &sub, 1));
    }
    return interner.intern_node(type_tag::kViewNode, tmp_edges.data(),
                                tmp_edges.size());
  };

  // --- Roots at `radius`: the tuple over ALL steps of v. ---
  std::vector<TypeId> class_type;  // root id per class
  if (roots_stable_) {
    // The root partition stopped changing; intern one tuple per class from
    // its representative and scatter by the recorded labels.
    for (const std::uint32_t v : root_rep_) {
      const TypeId body = intern_rep(static_cast<Vertex>(v), kNone);
      class_type.push_back(interner.intern_node(root_tag, &body, 1));
    }
    runtime::parallel_for(n, [&](std::int64_t v) {
      roots[static_cast<std::size_t>(v)] =
          class_type[root_class_[static_cast<std::size_t>(v)]];
    });
  } else {
    // One serial walk in vertex order.  The interner is injective on the
    // serialized body tuple, so equal bodies <=> equal ids, and the round's
    // body -> class map dedups active and retired vertices alike: the fresh
    // allocations are one root node per distinct body, at the first vertex
    // producing it.  A retired vertex re-wraps its cached body (its tuples
    // are bitwise last round's).  Once the states are stable the root
    // partition cannot change either: label it for the per-class path.
    const bool label = states_stable_;
    if (label) {
      root_rep_.clear();
      root_class_.resize(static_cast<std::size_t>(n));
    }
    const auto type_root = [&](Vertex v) {
      const auto vi = static_cast<std::size_t>(v);
      TypeId body = root_body_[vi];
      if (body == kNoType) root_body_[vi] = body = intern_body(v);
      const auto [cls, fresh] = body_map_.try_emplace(
          body, static_cast<std::uint32_t>(class_type.size()));
      if (fresh) {
        class_type.push_back(interner.intern_node(root_tag, &body, 1));
        if (label) root_rep_.push_back(static_cast<std::uint32_t>(v));
      }
      if (label) root_class_[vi] = *cls;
      roots[vi] = class_type[*cls];
    };
    // A replay keeps the retired vertices' kept roots as they are.
    if (replay) {
      for_active(type_root);
    } else {
      for (Vertex v = 0; v < n; ++v) type_root(v);
    }
    body_map_.clear();
    roots_stable_ = label;
  }

  // --- States: the tuple over the steps of s's vertex, s excluded. ---
  changed_.clear();
  if (states_stable_) {
    std::vector<TypeId> state_type;
    // A state's step s belongs to the neighbour of its inverse step.
    for (const std::uint32_t s : state_rep_)
      state_type.push_back(
          intern_rep(static_cast<Vertex>(step_nbr[step_succ[s]]), s));
    runtime::parallel_for(
        static_cast<std::int64_t>(step_off[static_cast<std::size_t>(n)]),
        [&](std::int64_t s) {
          out[s] = state_type[state_class_[static_cast<std::size_t>(s)]];
        });
  } else {
    // Intern what Phase A left unresolved, in step order; the root pass
    // interned every edge node of every active span, so a state tuple is a
    // gather over edge_ids_.  A span that differs from its kept values, or
    // has none, marks its vertex changed.
    std::vector<TypeId> tuple;
    std::size_t rank = 0;  // v's position in the active set
    for_active([&](Vertex v) {
      const std::uint32_t lo = step_off[v], hi = step_off[v + 1];
      const std::uint32_t b = base_off[replay ? rank++ : v];
      bool changed = b == kNone;
      for (std::uint32_t s = lo; s < hi; ++s) {
        if (out[s] == kNoType) {
          tuple.clear();
          for (std::uint32_t j = lo; j < hi; ++j)
            if (j != s) tuple.push_back(edge_ids_[j]);
          out[s] = interner.intern_node(type_tag::kViewNode, tuple.data(),
                                        tuple.size());
        }
        changed = changed || out[s] != base[b + (s - lo)];
      }
      if (changed) changed_.push_back(static_cast<std::uint32_t>(v));
    });
  }
}

void RefineState::schedule(std::span<const std::uint32_t> seed) {
  // A vertex's round tuples depend only on its own signature and its
  // neighbours' states, so the next round recomputes the seed plus every
  // neighbour of a vertex whose states changed.
  const Vertex n = n_;
  const std::span<const std::uint32_t> step_off = off_span();
  const std::span<const std::uint32_t> step_nbr = nbr_span();
  // One bit per vertex: listing the set in ascending order reads n / 64
  // words, so it stays cheap when a delta round activates a few dozen.
  active_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  const auto mark = [&](std::uint32_t v) {
    active_bits_[v / 64] |= std::uint64_t{1} << (v % 64);
  };
  for (const std::uint32_t v : seed) mark(v);
  for (const std::uint32_t v : changed_) {
    for (std::uint32_t j = step_off[v]; j < step_off[v + 1]; ++j)
      mark(step_nbr[j]);
  }
  active_.clear();
  for (std::size_t w = 0; w < active_bits_.size(); ++w)
    for (std::uint64_t b = active_bits_[w]; b != 0; b &= b - 1)
      active_.push_back(static_cast<std::uint32_t>(64 * w) +
                        static_cast<std::uint32_t>(std::countr_zero(b)));
  all_active_ = active_.size() == static_cast<std::size_t>(n);
}

const std::vector<TypeId>& RefineState::types_at(int radius) {
  if (radius < 0) throw std::invalid_argument("RefineState: negative radius");
  while (this->radius() < radius) advance();
  return roots_[static_cast<std::size_t>(radius)];
}

std::size_t RefineState::distinct_at(int radius) {
  return count_classes(types_at(radius)).distinct;
}

RefineState&& RefineState::derivable(RefineState&& parent, const LDigraph& g) {
  if (!parent.keep_rounds_)
    throw std::logic_error(
        "deriving a RefineState requires a parent built with keep_rounds");
  if (g.num_vertices() != parent.n_)
    throw std::invalid_argument(
        "deriving a RefineState requires the parent's vertex set (" +
        std::to_string(parent.n_) + " vertices, got " +
        std::to_string(g.num_vertices()) + ")");
  return std::move(parent);
}

RefineState::RefineState(RefineState&& parent, const LDigraph& g,
                         std::span<const Vertex> candidates, DeltaStats* stats)
    : RefineState(derivable(std::move(parent), g)) {
  const int max_r = radius();  // >= 0 always (radius 0 from birth)
  const Vertex n = n_;
  DeltaStats local;
  DeltaStats& st = stats ? *stats : local;
  st = DeltaStats{};
  st.rounds = max_r;
  st.total_vertices = static_cast<std::size_t>(n);

  // Seed: a candidate is dirty when its incident-step SIGNATURE changed --
  // the per-span sequence of (move bits, successor vertex) pairs, compared
  // straight off the adjacency, in the (outgoing, label) enumeration order
  // StepCsr::fill uses, against the parent's CSR, still in place.  T_1 is
  // a pure function of the signature, and the signature also pins the
  // identity of every successor state, so a clean vertex's table values
  // carry over verbatim.  Only the candidates can be dirty, so only they
  // are compared.  A dirty span is relaid when its move sequence changed
  // too: its tables then hold nothing of the parent's, and it counts as
  // changed every round; any other dirty span keeps its values, and its
  // edge memo, which depends on the moves alone.
  std::vector<std::uint32_t> dirty, relaid;
  bool offsets_move = false;
  for (const Vertex v : candidates) {
    const auto vi = static_cast<std::uint32_t>(v);
    if (static_cast<std::uint32_t>(g.degree(v)) !=
        steps_.off[vi + 1] - steps_.off[vi]) {
      dirty.push_back(vi);
      relaid.push_back(vi);
      offsets_move = true;
      continue;
    }
    bool same_moves = true, same_nbrs = true;
    std::uint32_t k = steps_.off[vi];
    const auto compare = [&](const auto& arcs, std::uint32_t out_bit) {
      for (const auto& [l, w] : arcs) {
        same_moves &=
            steps_.move_bits[k] == (out_bit | static_cast<std::uint32_t>(l));
        same_nbrs &= steps_.nbr[k++] == static_cast<std::uint32_t>(w);
      }
    };
    compare(g.in_arcs(v), 0);
    compare(g.out_arcs(v), 0x80000000u);
    if (same_moves && same_nbrs) continue;
    dirty.push_back(vi);
    if (!same_moves) relaid.push_back(vi);
  }
  st.dirty_vertices = dirty.size();

  // The CSR: a degree change moves offsets, and only then is every table
  // laid out again (O(n) block moves); otherwise every clean span stays
  // where it is.  Dirty spans refill from g, and a step into a relaid span
  // takes the inverse of that span's step back (succ is an involution), so
  // only steps that point into one move.
  if (offsets_move) relay(g, relaid);
  for (const std::uint32_t v : dirty) steps_.fill(g, static_cast<Vertex>(v));
  for (const std::uint32_t v : relaid)
    for (std::uint32_t k = steps_.off[v]; k < steps_.off[v + 1]; ++k) {
      steps_.succ[steps_.succ[k]] = k;
      edge_ids_[k] = kNoType;  // the memo held another move's edge
    }

  // What init_round0 resets, but no table: radius 0 stays as it is.
  state_distinct_ = steps_.off[static_cast<std::size_t>(n)] ? 1 : 0;
  states_stable_ = roots_stable_ = false;
  state_count_.clear();

  // Rounds 1..max_r through the kernel, in place.  Each table holds the
  // parent's values; its relaid spans are stale, but dirty vertices are
  // active in every round, so the kernel rewrites them.  Round 1
  // recomputes the dirty vertices (T_0 is uniform, so nothing else can
  // differ); each later round adds the neighbours of every vertex whose
  // states differ from the parent's, which the kernel reads from a copy
  // of the active spans taken before it overwrites them.  Phase B interns
  // in ascending vertex order, so fresh ids are thread-count-independent,
  // and hash-consing makes them the ids a from-scratch refine finds.
  active_ = dirty;
  all_active_ = active_.size() == static_cast<std::size_t>(n);
  for (int i = 1; i <= max_r; ++i) {
    std::vector<TypeId>& t = round_states_[static_cast<std::size_t>(i)];
    kept_.clear();
    kept_off_.clear();
    std::size_t r = 0;  // relaid[r] is the first one not below v
    for_active([&](Vertex v) {
      while (r < relaid.size() && relaid[r] < static_cast<std::uint32_t>(v))
        ++r;
      if (r < relaid.size() && relaid[r] == static_cast<std::uint32_t>(v)) {
        kept_off_.push_back(kNone);  // nothing kept
        return;
      }
      const auto vi = static_cast<std::size_t>(v);
      kept_off_.push_back(static_cast<std::uint32_t>(kept_.size()));
      kept_.insert(kept_.end(), t.begin() + steps_.off[vi],
                   t.begin() + steps_.off[vi + 1]);
    });
    run_round(i, round_states_[static_cast<std::size_t>(i) - 1].data(),
              t.data(), kept_.data(), kept_off_,
              roots_[static_cast<std::size_t>(i)], /*replay=*/true);
    st.frontier_vertices =
        all_active_ ? static_cast<std::size_t>(n) : active_.size();
    if (i < max_r) schedule(dirty);
  }

  // The tracking compared against the parent's tables and root_body_
  // mixes rounds, so the next advance() runs all-active, which re-seeds
  // it.
  all_active_ = true;
}

void RefineState::relay(const LDigraph& g,
                        std::span<const std::uint32_t> relaid) {
  const graph::StepCsr old = std::move(steps_);
  steps_ = graph::StepCsr{};
  steps_.layout(g);
  const std::vector<std::uint32_t>& off = steps_.off;
  const std::size_t steps = off.back();
  const auto n = static_cast<std::uint32_t>(n_);
  // f(lo, old_lo, len) per maximal run of vertices not relaid: within one
  // the parent-vs-child offset delta is constant.
  const auto kept_runs = [&](const auto& f) {
    std::uint32_t from = 0;
    for (std::size_t k = 0; k <= relaid.size(); ++k) {
      const std::uint32_t to = k < relaid.size() ? relaid[k] : n;
      if (from < to)
        f(off[from], old.off[from], old.off[to] - old.off[from]);
      if (k < relaid.size()) from = relaid[k] + 1;
    }
  };
  const auto relay_table = [&](std::vector<TypeId>& table) {
    std::vector<TypeId> moved(steps);
    kept_runs([&](std::uint32_t lo, std::uint32_t olo, std::uint32_t len) {
      std::copy_n(table.begin() + olo, len, moved.begin() + lo);
    });
    table = std::move(moved);
  };
  kept_runs([&](std::uint32_t lo, std::uint32_t olo, std::uint32_t len) {
    std::copy_n(old.nbr.begin() + olo, len, steps_.nbr.begin() + lo);
    std::copy_n(old.move_bits.begin() + olo, len,
                steps_.move_bits.begin() + lo);
    // A step's successor shifts by its target span's offset delta; one
    // into a relaid span is set again from that span's side.
    for (std::uint32_t j = 0; j < len; ++j) {
      const std::uint32_t w = old.nbr[olo + j];
      steps_.succ[lo + j] = old.succ[olo + j] - old.off[w] + off[w];
    }
  });
  // Radius 0 is uniform, so its table is laid out afresh.
  const TypeId empty = interner_->intern_node(type_tag::kViewNode, nullptr, 0);
  round_states_[0].assign(steps, empty);
  for (std::size_t i = 1; i < round_states_.size(); ++i)
    relay_table(round_states_[i]);
  relay_table(edge_ids_);
  relay_table(edge_sub_);
}

RefineState::DeltaStats RefineState::refine_delta(const LDigraph& g) {
  // Candidates 0 .. n - 1: nothing is known about the edit.
  std::vector<Vertex> every_vertex(static_cast<std::size_t>(g.num_vertices()));
  std::iota(every_vertex.begin(), every_vertex.end(), Vertex{0});
  DeltaStats stats;
  *this = RefineState(std::move(*this), g, every_vertex, &stats);
  return stats;
}

std::vector<TypeId> bulk_view_type_ids(const LDigraph& g, int r,
                                       TypeInterner& interner) {
  RefineState refiner(g, interner);
  return refiner.types_at(r);
}

TypeId complete_view_type_id(int k, int r, TypeInterner& interner) {
  // Arrival moves of the complete tree, in step order: {false, 0..k-1} then
  // {true, 0..k-1}; move m and move (m + k) % 2k are inverses.  The node
  // reached by move m has an edge for every move but m's inverse, so each
  // depth interns its 2k edge nodes once and assembles the 2k nodes from
  // them.  First-time interns keep the order of building node by node --
  // every edge but edge k, node 0, edge k, nodes 1 .. 2k-1 -- so that no
  // TypeId moves.
  const int moves = 2 * k;
  const auto move_tag = [k](int m) {
    return edge_tag((m >= k ? 0x80000000u : 0u) |
                    static_cast<std::uint32_t>(m % k));
  };
  const TypeId empty = interner.intern_node(type_tag::kViewNode, nullptr, 0);
  std::vector<TypeId> prev(static_cast<std::size_t>(moves), empty), cur(prev);
  std::vector<TypeId> edges(prev.size()), children;
  const auto intern_edge = [&](int j) {
    const auto i = static_cast<std::size_t>(j);
    edges[i] = interner.intern_node(move_tag(j), &prev[i], 1);
  };
  for (int depth = 1; depth < r; ++depth) {
    for (int j = 0; j < moves; ++j)
      if (j != k) intern_edge(j);
    for (int m = 0; m < moves; ++m) {
      if (m == 1) intern_edge(k);
      children.clear();
      for (int j = 0; j < moves; ++j)
        if (j != (m + k) % moves)
          children.push_back(edges[static_cast<std::size_t>(j)]);
      cur[static_cast<std::size_t>(m)] = interner.intern_node(
          type_tag::kViewNode, children.data(), children.size());
    }
    prev.swap(cur);
  }
  if (r > 0)
    for (int j = 0; j < moves; ++j) intern_edge(j);
  const TypeId body = interner.intern_node(
      type_tag::kViewNode, edges.data(), r > 0 ? edges.size() : 0);
  return interner.intern_node(
      type_tag::kViewRoot | static_cast<std::uint32_t>(r), &body, 1);
}

}  // namespace lapx::core
