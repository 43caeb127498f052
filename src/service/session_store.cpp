#include "lapx/service/session_store.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "lapx/graph/mutation.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/service/blake2b.hpp"

namespace lapx::service {

// Endpoints are non-negative, so on a little-endian host (blake2b.cpp
// asserts one) the edge array's own bytes are the encoding: no copy.
static_assert(sizeof(graph::Edge) == 2 * sizeof(std::uint32_t) &&
              offsetof(graph::Edge, second) == sizeof(std::uint32_t));

ContentDigest::ContentDigest(const graph::Graph& g)
    : leaves_((g.num_edges() + kLeafEdges - 1) / kLeafEdges) {
  for (std::size_t k = 0; k < leaves_.size(); ++k) hash_leaf(g, k);
  hash_root(g);
}

ContentDigest::ContentDigest(const ContentDigest& parent,
                             const graph::Graph& g,
                             std::span<const graph::EdgeId> rewritten)
    : leaves_(parent.leaves_) {
  // Every slot the edit changed, added or dropped is rewritten, so only
  // their leaves -- the shortened or grown last one among them -- differ.
  leaves_.resize((g.num_edges() + kLeafEdges - 1) / kLeafEdges);
  std::size_t last = leaves_.size();  // rewritten is ascending
  for (const graph::EdgeId id : rewritten) {
    const std::size_t k = static_cast<std::size_t>(id) / kLeafEdges;
    if (k >= leaves_.size()) break;
    if (k != last) hash_leaf(g, last = k);
  }
  hash_root(g);
}

void ContentDigest::hash_leaf(const graph::Graph& g, std::size_t k) {
  const std::uint8_t leaf_tag = 0x00;
  const std::size_t lo = k * kLeafEdges;
  const std::size_t count = std::min(kLeafEdges, g.num_edges() - lo);
  Blake2b256 hash;
  hash.update(&leaf_tag, 1);
  hash.update(g.edges().data() + lo, count * sizeof(graph::Edge));
  leaves_[k] = hash.digest();
}

void ContentDigest::hash_root(const graph::Graph& g) {
  const std::uint8_t root_tag = 0x01;
  const std::uint64_t header[2] = {
      static_cast<std::uint64_t>(g.num_vertices()), g.num_edges()};
  Blake2b256 hash;
  hash.update(&root_tag, 1);
  hash.update(header, sizeof header);
  hash.update(leaves_.data(), leaves_.size() * sizeof(Blake2b256::Digest));
  id_ = hash.hex();
}

std::string graph_content_id(const graph::Graph& g) {
  return ContentDigest(g).id();
}

GraphEntry::GraphEntry(graph::Graph g, std::uint64_t epoch)
    : graph_(std::move(g)),
      digest_(graph_),
      content_id_(digest_.id()),
      epoch_(epoch),
      content_hex_(content_id_.substr(0, 16)) {}

namespace {

// The graph the next epoch of `prev` edits a copy of.
const graph::Graph& editable_graph(const GraphEntry& prev) {
  if (prev.is_ooc())
    throw graph::MutationError(
        "cannot mutate an out-of-core session; regenerate the file and "
        "re-open it");
  return prev.graph();
}

}  // namespace

GraphEntry::GraphEntry(const GraphEntry& prev,
                       std::span<const graph::EdgeEdit> edits)
    : graph_(editable_graph(prev)), epoch_(prev.epoch_ + 1) {
  // A bad batch throws here, before anything is taken from prev.
  const std::vector<graph::EdgeId> rewritten =
      graph::apply_edits(graph_, edits);
  digest_ = ContentDigest(prev.digest_, graph_, rewritten);
  content_id_ = digest_.id();
  content_hex_ = content_id_.substr(0, 16);

  // prev's state moves out under prev's lock, so a concurrent query on
  // prev either finished with it or finds none and rebuilds its own; the
  // derivation then runs in the moved buffers.  A state implies prev's
  // L-digraph, which this entry's patches at the edit.
  std::unique_ptr<core::RefineState> state;
  {
    std::lock_guard<std::mutex> lock(prev.refine_mu_);
    state = std::move(prev.refine_);
  }
  if (state) {
    const std::vector<graph::Vertex> frontier =
        graph::affected_frontier(graph_, edits, 1);
    std::call_once(ld_once_, [&] {
      ld_ = std::make_unique<graph::LDigraph>(
          graph::to_ldigraph(graph_, prev.ldigraph(), edits, frontier));
    });
    refine_ =
        std::make_unique<core::RefineState>(std::move(*state), *ld_, frontier);
  }

  // prev's ordered-ball classes move out the same way; a query still
  // pinned to prev rebuilds the radius it asks for.
  {
    std::lock_guard<std::mutex> lock(prev.homogeneity_mu_);
    homogeneity_.swap(prev.homogeneity_);
  }
  if (homogeneity_.empty()) return;  // nothing typed yet; stay lazy
  const order::Keys keys = order::identity_keys(graph_.num_vertices());
  for (auto it = homogeneity_.begin(); it != homogeneity_.end();) {
    const std::vector<graph::Vertex> frontier =
        graph::ball_frontier(graph_, edits, it->first);
    if (frontier.size() == static_cast<std::size_t>(graph_.num_vertices())) {
      it = homogeneity_.erase(it);
      continue;
    }
    it->second.retype(graph_, keys, frontier);
    ++it;
  }
}

GraphEntry::GraphEntry(std::unique_ptr<graph::OocGraph> ooc,
                       std::uint64_t epoch,
                       graph::Vertex materialize_max_vertices)
    : ooc_(std::move(ooc)),
      materialize_max_(materialize_max_vertices),
      epoch_(epoch) {
  // One more pass over the payload open already checksummed: FNV-1a
  // guards the file's integrity, BLAKE2b names its content.
  const std::span<const unsigned char> payload = ooc_->payload();
  Blake2b256 hash;
  hash.update(payload.data(), payload.size());
  const std::string hex = hash.hex();
  content_id_ = "ooc:" + hex;
  content_hex_ = hex.substr(0, 16);
}

graph::Vertex GraphEntry::num_vertices() const {
  return ooc_ ? ooc_->num_vertices() : graph_.num_vertices();
}

std::size_t GraphEntry::num_edges() const {
  // Default-port-numbered files carry one arc per undirected edge, so the
  // count agrees with what generate/upload would report for the same graph.
  return ooc_ ? ooc_->num_arcs() : graph_.num_edges();
}

graph::Label GraphEntry::alphabet() const {
  return ooc_ ? ooc_->alphabet_size() : ldigraph().alphabet_size();
}

std::int64_t GraphEntry::max_degree() const {
  if (!ooc_) return graph_.max_degree();
  const std::span<const std::uint32_t> off = ooc_->step_off();
  std::uint32_t longest = 0;
  for (std::size_t v = 1; v < off.size(); ++v)
    longest = std::max(longest, off[v] - off[v - 1]);
  return longest;
}

const graph::Graph& GraphEntry::graph() const {
  if (!ooc_) return graph_;
  // ldigraph() throws kTooLarge above the cap; calling it outside
  // call_once keeps the throw from unwinding through the once_flag, which
  // not every pthread_once (TSan's among them) survives.
  const graph::LDigraph& ld = ldigraph();
  std::call_once(graph_once_, [&] {
    mat_graph_ = std::make_unique<graph::Graph>(ld.underlying_graph());
  });
  return *mat_graph_;
}

const graph::LDigraph& GraphEntry::ldigraph() const {
  if (ooc_ && ooc_->num_vertices() > materialize_max_)
    throw ServiceError(ErrorCode::kTooLarge,
                       "out-of-core graph too large to materialize (" +
                           std::to_string(ooc_->num_vertices()) +
                           " vertices); only streaming ops are available");
  std::call_once(ld_once_, [this] {
    ld_ = std::make_unique<graph::LDigraph>(
        ooc_ ? ooc_->materialize() : graph::to_ldigraph(graph_));
  });
  return *ld_;
}

std::vector<core::TypeId> GraphEntry::view_types(int r) const {
  std::lock_guard<std::mutex> lock(refine_mu_);
  if (!refine_) {
    // Ooc backing streams rounds over the file's mmap'd step segments;
    // rounds are not kept (ooc sessions cannot mutate, so no epoch derives
    // from them).  TypeIds are identical either way -- same interner,
    // same step CSR.
    if (ooc_)
      refine_ = std::make_unique<core::RefineState>(
          *ooc_, core::TypeInterner::global());
    else
      refine_ = std::make_unique<core::RefineState>(
          ldigraph(), core::TypeInterner::global(), /*keep_rounds=*/true);
  }
  return refine_->types_at(r);
}

bool GraphEntry::has_refine_state() const {
  std::lock_guard<std::mutex> lock(refine_mu_);
  return refine_ != nullptr;
}

order::HomogeneityReport GraphEntry::homogeneity(int r) const {
  const graph::Graph& g = graph();
  std::lock_guard<std::mutex> lock(homogeneity_mu_);
  auto it = homogeneity_.find(r);
  if (it == homogeneity_.end())
    it = homogeneity_
             .emplace(r, order::OrderedBallClasses(
                             g, order::identity_keys(g.num_vertices()), r))
             .first;
  return it->second.report();
}

SessionStore::SessionStore(Options opt) : opt_(opt) {
  if (opt_.max_graphs == 0) opt_.max_graphs = 1;
}

std::shared_ptr<const GraphEntry> SessionStore::put(const std::string& name,
                                                    graph::Graph g) {
  auto entry = std::make_shared<GraphEntry>(std::move(g), /*epoch=*/1);
  Displaced displaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  bind_locked(name, entry, displaced);
  return entry;
}

std::shared_ptr<const GraphEntry> SessionStore::open_ooc(
    const std::string& name, const std::string& path) {
  auto ooc = std::make_unique<graph::OocGraph>(path);  // throws OocError
  auto entry = std::make_shared<GraphEntry>(std::move(ooc), /*epoch=*/1,
                                            opt_.ooc_materialize_max_vertices);
  Displaced displaced;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  bind_locked(name, entry, displaced);
  return entry;
}

void SessionStore::bind_locked(const std::string& name,
                               const std::shared_ptr<GraphEntry>& entry,
                               Displaced& out) {
  if (auto it = index_.find(name); it != index_.end()) {
    // Overwriting a live binding is a new epoch of the same session, and
    // is counted -- a silent drop used to be invisible in the stats.
    entry->epoch_ = it->second->entry->epoch() + 1;
    out.push_back(std::move(it->second->entry));
    lru_.erase(it->second);
    ++stats_.overwritten;
  }
  lru_.push_front(Slot{name, entry});
  index_[name] = lru_.begin();
  ++stats_.inserted;
  while (lru_.size() > opt_.max_graphs) evict_locked(out);
  stats_.resident = lru_.size();
}

std::shared_ptr<const GraphEntry> SessionStore::get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  return lru_.front().entry;
}

std::shared_ptr<const GraphEntry> SessionStore::mutate(
    const std::string& name, std::span<const graph::EdgeEdit> edits) {
  // The bound entry's mutate_mu_ serializes the whole read-copy-install
  // sequence, so two concurrent mutates of one name produce consecutive
  // epochs instead of racing to install siblings of the same parent.  A
  // put/open does not take that lock, so the install re-checks under mu_
  // that the binding still holds `old`; a mutate whose binding moved on --
  // while it waited or while it derived -- retries against the new entry.
  // Other sessions never wait, and mu_ itself is only held for the map
  // operations, never across the clone or the delta.
  std::shared_ptr<const GraphEntry> old = get(name);
  while (old != nullptr) {
    std::unique_lock<std::mutex> mlock(old->mutate_mu_);
    if (std::shared_ptr<const GraphEntry> cur = get(name); cur != old) {
      mlock.unlock();
      old = std::move(cur);
      continue;
    }
    // Throws MutationError, leaving the binding and `old` untouched.
    auto entry = std::make_shared<const GraphEntry>(*old, edits);
    std::shared_ptr<const GraphEntry> displaced;  // freed after the unlock
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(name);
    if (it == index_.end()) return nullptr;  // dropped concurrently
    if (it->second->entry != old) {
      // A put/open replaced the binding mid-derive: rederive from it.
      // Unlock before `old` lets go of the entry that owns the mutex.
      mlock.unlock();
      displaced = std::exchange(old, it->second->entry);
      continue;
    }
    displaced = std::exchange(it->second->entry, entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.mutated;
    return entry;
  }
  return nullptr;
}

bool SessionStore::drop(const std::string& name) {
  std::shared_ptr<const GraphEntry> dropped;  // freed after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  if (it == index_.end()) return false;
  dropped = std::move(it->second->entry);
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.dropped;
  stats_.resident = lru_.size();
  return true;
}

std::vector<std::string> SessionStore::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [name, it] : index_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

SessionStore::Stats SessionStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SessionStore::evict_locked(Displaced& out) {
  Slot& victim = lru_.back();
  out.push_back(std::move(victim.entry));
  index_.erase(victim.name);
  lru_.pop_back();
  ++stats_.evicted;
  stats_.resident = lru_.size();
}

}  // namespace lapx::service
