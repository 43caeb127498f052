#pragma once

// Internal to lapx_graph: the re-layout pass of a CSR edit, shared by
// Graph's batch editor (apply_edits) and LDigraph::edited.  A CSR here is
// n + 1 32-bit offsets over one or more parallel run arrays.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "lapx/graph/graph.hpp"

namespace lapx::graph::detail {

// The offsets once the runs of `touched` (ascending, each once) take the
// lengths length(k), k indexing `touched`; every other vertex keeps its
// run's length.  One pass over the offsets.
template <typename Length>
std::vector<std::uint32_t> relaid_offsets(
    const std::vector<std::uint32_t>& off, std::span<const Vertex> touched,
    const Length& length) {
  std::vector<std::uint32_t> new_off(off.size());
  std::size_t from = 0;  // the first vertex not laid out yet
  const auto shift_untouched = [&](std::size_t to) {
    // Vertices [from, to) keep their lengths: one shift for all of them.
    const std::uint32_t delta = new_off[from] - off[from];
    for (std::size_t v = from; v < to; ++v)
      new_off[v + 1] = off[v + 1] + delta;
  };
  for (std::size_t k = 0; k < touched.size(); ++k) {
    const auto v = static_cast<std::size_t>(touched[k]);
    shift_untouched(v);
    new_off[v + 1] = new_off[v] + length(k);
    from = v + 1;
  }
  shift_untouched(off.size() - 1);
  return new_off;
}

// Copies the runs of every vertex not in `touched` from `runs`, laid out
// by `off`, into `out`, laid out by `new_off` (relaid_offsets): one block
// per stretch of vertices between two touched ones.
template <typename T>
void move_untouched_runs(const std::vector<std::uint32_t>& off,
                         const std::vector<std::uint32_t>& new_off,
                         std::span<const Vertex> touched,
                         const std::vector<T>& runs, std::vector<T>& out) {
  std::size_t from = 0;
  for (std::size_t k = 0; k <= touched.size(); ++k) {
    const std::size_t to = k < touched.size()
                               ? static_cast<std::size_t>(touched[k])
                               : off.size() - 1;
    std::copy(runs.begin() + off[from], runs.begin() + off[to],
              out.begin() + new_off[from]);
    from = to + 1;
  }
}

}  // namespace lapx::graph::detail
